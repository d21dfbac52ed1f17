// Metrics registry: named counters, gauges, and latency histograms with
// labels, snapshotable as JSON and Prometheus-style text
// (docs/OBSERVABILITY.md).
//
// One registry serves one process (or one experiment run). Components that
// accept a `MetricsRegistry*` publish their private counters through it so
// the same numbers flow to benches, tests, and the CLI instead of each
// consumer hand-formatting its own table. Instruments are created on first
// use and owned by the registry; the returned pointers stay valid for the
// registry's lifetime, so hot paths can cache them and pay one pointer write
// per update.
//
// Naming convention (docs/OBSERVABILITY.md): `yh_<component>_<what>[_total]`,
// labels for the dimension ({site="0x2a"}, {class="scavenger"},
// {event="l2_miss"}). Counters are monotone within a run; Set() exists so
// components that already aggregate (RunReport and friends) can publish
// absolute values at safe points — the published stream is still monotone
// because the underlying aggregates are.
#ifndef YIELDHIDE_SRC_OBS_METRICS_H_
#define YIELDHIDE_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace yieldhide::obs {

// Label dimensions, e.g. {{"site", "0x2a"}, {"class", "primary"}}. Kept
// sorted by key so equal label sets compare equal regardless of insert order.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Add(uint64_t n) { value_ += n; }
  void Increment() { ++value_; }
  // For components publishing an already-aggregated monotone value.
  void Set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  // Instruments are created on first request; name+labels is the identity.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const Labels& labels = {});

  // Lookup without creation (nullptr when absent): for tests and snapshots.
  const Counter* FindCounter(const std::string& name,
                             const Labels& labels = {}) const;
  const Gauge* FindGauge(const std::string& name,
                         const Labels& labels = {}) const;

  // One metric per line, lexicographically sorted, so snapshots diff cleanly:
  //   {"metrics": [
  //     {"name": "...", "type": "counter", "labels": {...}, "value": N},
  //     ...
  //   ]}
  std::string ToJson() const;

  // Prometheus exposition text: `# TYPE` headers, `name{label="v"} value`
  // lines; histograms render as summaries (quantile labels + _count/_sum).
  std::string ToPrometheus() const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  // Key: name + '\0'-separated serialized sorted labels.
  using Key = std::pair<std::string, std::string>;
  static Key MakeKey(const std::string& name, const Labels& labels);

  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_METRICS_H_
