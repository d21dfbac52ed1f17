// LabelSet: the one builder for metric/trace/span label sets
// (docs/OBSERVABILITY.md).
//
// Before this existed every emitter hand-assembled its obs::Labels vector —
// `labels.emplace_back("shard", std::to_string(i))` in the server group,
// `labels.emplace_back("stage", stage)` in the front end — and each call
// site was responsible for keeping the vector sorted so equal label sets
// compare equal. Adding a new dimension (tenant=) meant finding and editing
// every one of those sites. LabelSet centralizes the convention: named
// setters for the canonical dimensions (shard, tenant, stage) and a Build()
// that emits the sorted, de-duplicated obs::Labels every registry consumer
// expects. One seam, N dimensions.
#ifndef YIELDHIDE_SRC_OBS_LABELS_H_
#define YIELDHIDE_SRC_OBS_LABELS_H_

#include <algorithm>
#include <string>
#include <utility>

#include "src/obs/metrics.h"

namespace yieldhide::obs {

class LabelSet {
 public:
  LabelSet() = default;
  // Seeds the builder from an existing label vector (e.g. a shard's base
  // labels) so emitters can extend without mutating the original.
  explicit LabelSet(const Labels& base) : labels_(base) {}

  // Canonical dimensions. Each setter overwrites any previous value for its
  // key, so a builder can be reused down a call chain.
  LabelSet& Shard(size_t id) { return Add("shard", std::to_string(id)); }
  LabelSet& Tenant(const std::string& name) { return Add("tenant", name); }
  LabelSet& Stage(const std::string& stage) { return Add("stage", stage); }

  // The canonical form: sorted by key, so equal label sets compare equal
  // regardless of the order the dimensions were added in.
  Labels Build() const {
    Labels out = labels_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  // Last write wins per key.
  LabelSet& Add(const std::string& key, std::string value) {
    for (auto& [k, v] : labels_) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    labels_.emplace_back(key, std::move(value));
    return *this;
  }

  Labels labels_;
};

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_LABELS_H_
