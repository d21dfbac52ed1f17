#include "src/obs/exemplar/exemplar.h"

#include <algorithm>

#include "src/common/strings.h"

namespace yieldhide::obs {

namespace {

// Heap comparator: std::push_heap keeps the comp-maximum at the front, and
// the maximum under Outranks (an element that outranks nobody) is the WORST
// retained exemplar — exactly the threshold the gate compares against.
bool HeapOrder(const Exemplar& a, const Exemplar& b) {
  return ExemplarReservoir::Outranks(a.span, b.span);
}

}  // namespace

Status ExemplarReservoirConfig::Validate() const {
  if (top_k == 0) {
    return InvalidArgumentError("exemplar: top_k must be positive");
  }
  if (window_cycles == 0) {
    return InvalidArgumentError("exemplar: window_cycles must be positive");
  }
  return Status::Ok();
}

ExemplarReservoir::ExemplarReservoir(const ExemplarReservoirConfig& config)
    : config_(config) {}

ExemplarReservoir::Window* ExemplarReservoir::WindowFor(uint64_t ordinal) {
  if (!windows_.empty() && ordinal < windows_.front().ordinal) {
    return nullptr;  // window already evicted; the completion arrived late
  }
  // Completions are near-monotone (harvest order), so the window is almost
  // always the back one; otherwise walk back over the short tail.
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    if (it->ordinal == ordinal) {
      return &*it;
    }
    if (it->ordinal < ordinal) {
      break;
    }
  }
  if (windows_.empty() || ordinal > windows_.back().ordinal) {
    windows_.push_back(Window{ordinal, {}});
    while (windows_.size() > kExemplarMaxWindows) {
      windows_.pop_front();
      ++evicted_windows_;
    }
    return &windows_.back();
  }
  // Out-of-order completion into a retained middle window: insert in place.
  auto pos = std::lower_bound(
      windows_.begin(), windows_.end(), ordinal,
      [](const Window& w, uint64_t o) { return w.ordinal < o; });
  return &*windows_.insert(pos, Window{ordinal, {}});
}

void ExemplarReservoir::Offer(const RequestSpan& span) {
  if (!config_.enabled) {
    return;
  }
  ++offered_;
  Window* window = WindowFor(span.complete_cycle / config_.window_cycles);
  if (window == nullptr) {
    ++late_drops_;
    return;
  }
  if (window->heap.size() >= config_.top_k) {
    // Threshold gate: the candidate must beat the worst retained exemplar.
    if (!Outranks(span, window->heap.front().span)) {
      ++rejected_;
      return;
    }
    std::pop_heap(window->heap.begin(), window->heap.end(), HeapOrder);
    window->heap.pop_back();
  }
  Exemplar e;
  e.span = span;
  e.context = context_;
  e.window = window->ordinal;
  window->heap.push_back(std::move(e));
  std::push_heap(window->heap.begin(), window->heap.end(), HeapOrder);
  ++accepted_;
  uncharged_ += kExemplarInsertCostCycles;
}

uint64_t ExemplarReservoir::TakeUnchargedOverheadCycles() {
  const uint64_t delta = uncharged_;
  uncharged_ = 0;
  return delta;
}

std::vector<Exemplar> ExemplarReservoir::Sorted(const Window& window) {
  std::vector<Exemplar> out = window.heap;
  std::sort(out.begin(), out.end(), HeapOrder);
  return out;
}

std::vector<Exemplar> ExemplarReservoir::Merged() const {
  std::vector<Exemplar> out;
  for (const Window& window : windows_) {
    out.insert(out.end(), window.heap.begin(), window.heap.end());
  }
  std::sort(out.begin(), out.end(), HeapOrder);
  return out;
}

Status ExemplarReservoir::VerifyExactness() const {
  for (const Window& window : windows_) {
    for (const Exemplar& e : window.heap) {
      if (e.span.ClassSum() != e.span.latency()) {
        return InternalError(StrFormat(
            "exemplar %llu (window %llu): span classes sum to %llu but "
            "latency is %llu",
            static_cast<unsigned long long>(e.span.id),
            static_cast<unsigned long long>(e.window),
            static_cast<unsigned long long>(e.span.ClassSum()),
            static_cast<unsigned long long>(e.span.latency())));
      }
    }
  }
  return Status::Ok();
}

// ---- exports -------------------------------------------------------------

std::string ToPerfettoExemplarJson(
    const std::vector<const ExemplarReservoir*>& shards,
    double cycles_per_ns) {
  ChromeTraceWriter writer("yieldhide tail exemplars", cycles_per_ns);
  size_t count = 0;
  for (const ExemplarReservoir* shard : shards) {
    for (const Exemplar& e : shard->Merged()) {
      ++count;
      const int32_t tid = TrackIdFor(e.span.id);
      // Lay the classes end to end from the arrival cycle; the exact-sum
      // invariant makes the track span [arrival, complete] with no gap.
      uint64_t offset = e.span.arrival_cycle;
      for (size_t i = 0; i < kNumSpanClasses; ++i) {
        if (e.span.classes[i] == 0) {
          continue;
        }
        writer.Emit(StrFormat(
            "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"exemplar\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"req\": %llu, \"window\": %llu, \"generation\": %d, "
            "\"epoch\": %llu}}",
            SpanClassName(static_cast<SpanClass>(i)), writer.Us(offset),
            writer.Us(e.span.classes[i]), tid,
            static_cast<unsigned long long>(e.span.id),
            static_cast<unsigned long long>(e.window), e.context.generation_id,
            static_cast<unsigned long long>(e.context.epoch)));
        offset += e.span.classes[i];
      }
    }
  }
  return writer.Finish(StrFormat("\"exemplars\": %zu", count));
}

}  // namespace yieldhide::obs
