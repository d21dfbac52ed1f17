// Hardware-event listener interface and the bus that routes events to
// listeners. The executor publishes micro-architectural events to the
// machine's MulticastListener; the simulated PMU (src/pmu) subscribes to
// build PEBS-style samples and LBR records, and the exact-stats collector
// subscribes to build the ground truth that profiles are evaluated against.
//
// The bus counts the way a hardware PMU does. A listener declares the events
// it wants and is called for no others; one that declares nothing gets every
// event. For retired instructions, a subscriber keeps a countdown and
// OnRetired runs only for the retirement that takes it to zero, the way PEBS
// preloads a counter with -period and acts only on overflow. The bus keeps one
// shared distance to the nearest of those sample points, the smallest
// countdown minus one over its subscribers, and a retirement short of it only
// decrements that distance. So a retirement costs the simulator one decrement
// however many samplers listen, and a sampler costs nothing between its
// sample points. The retirements counted that way are applied to every
// subscriber's countdown at the next sample point, before any other event is
// dispatched, and before an Add, Remove or Clear. A subscriber at countdown 1
// when the registrations change (a listener that sees every retirement) or a
// listener registered twice pins the distance at 0 until they change again;
// a pinned bus counts each retirement down each subscriber in place. A stretch
// of retirements that raises no other event (the executor's straight-line ALU
// runs) may be counted at once, one subtraction from the distance, when the
// distance covers it.
#ifndef YIELDHIDE_SRC_SIM_EVENTS_H_
#define YIELDHIDE_SRC_SIM_EVENTS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "src/isa/isa.h"
#include "src/sim/hierarchy.h"

namespace yieldhide::sim {

// The events a listener can subscribe to, one per EventListener callback.
enum class Event : uint8_t { kRetired, kLoad, kStall, kBranch, kPrefetch, kYield };
inline constexpr size_t kNumEvents = 6;

// A set of events, one bit per Event.
using EventMask = uint8_t;
constexpr EventMask MaskOf(std::initializer_list<Event> events) {
  EventMask mask = 0;
  for (const Event event : events) {
    mask |= static_cast<EventMask>(1u << static_cast<unsigned>(event));
  }
  return mask;
}
inline constexpr EventMask kAllEvents = (1u << kNumEvents) - 1;

class EventListener {
 public:
  virtual ~EventListener() = default;

  // Every retired instruction.
  virtual void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) {}

  // Every retired load: where it hit and how many cycles the context was
  // exposed to beyond an L1 hit (0 for L1 hits).
  virtual void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
                      bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) {}

  // Execution-stall cycles attributed to instruction `ip` (memory waits).
  virtual void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) {}

  // Every taken or not-taken conditional branch and unconditional transfer.
  // `cycle` is the retirement time; LBR derives block latencies from deltas.
  virtual void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                        uint64_t cycle) {}

  virtual void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) {}

  // A YIELD/CYIELD that actually suspended the context.
  virtual void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) {}

 protected:
  // A listener that declares no events gets every event.
  EventListener() = default;
  explicit EventListener(EventMask events) : events_(events) {}

  // Retirements to go before this listener next needs OnRetired. While it is
  // above 1 the bus counts retirements down instead of calling OnRetired; at
  // 1 the bus calls OnRetired, which must leave it at 1 or more. A listener
  // that never changes it sees every retirement; one subscribed to retired
  // instructions changes it only in OnRetired or before it is added. Between
  // sample points it lags by the retirements the bus has counted but not yet
  // applied (see the top of this file); it is exact whenever the bus calls
  // this listener.
  uint64_t countdown_ = 1;

 private:
  friend class MulticastListener;

  // The events the bus calls this listener for.
  EventMask events_ = kAllEvents;
};

// The event bus: keeps one subscriber list per event and calls each listener
// only for the events it declares. Listeners are not owned. A listener with a
// countdown must be registered on one bus at a time.
class MulticastListener final : public EventListener {
 public:
  MulticastListener() = default;
  // A copy gets the same registrations; the pending retirements are applied
  // first, so neither side applies them twice.
  MulticastListener(const MulticastListener& other) : EventListener(other) {
    *this = other;
  }
  MulticastListener& operator=(const MulticastListener& other) {
    ApplyRetirements();
    other.ApplyRetirements();
    listeners_ = other.listeners_;
    by_event_ = other.by_event_;
    Rearm();
    return *this;
  }

  // Subscribes `listener` to its declared events. A listener added twice
  // gets each of its events twice.
  void Add(EventListener* listener) {
    ApplyRetirements();
    listeners_.push_back(listener);
    for (size_t event = 0; event < kNumEvents; ++event) {
      if ((listener->events_ >> event) & 1u) {
        by_event_[event].push_back(listener);
      }
    }
    Rearm();
  }
  // Removes every registration of `listener` from every list; unknown
  // listeners are a no-op. Lets a sampling session detach itself mid-run
  // (online re-profiling attaches and detaches around serving epochs).
  void Remove(const EventListener* listener) {
    ApplyRetirements();
    std::erase(listeners_, listener);
    for (std::vector<EventListener*>& subscribers : by_event_) {
      std::erase(subscribers, listener);
    }
    Rearm();
  }
  void Clear() {
    ApplyRetirements();
    listeners_.clear();
    for (std::vector<EventListener*>& subscribers : by_event_) {
      subscribers.clear();
    }
    Rearm();
  }
  // Registrations, whatever events they declare.
  size_t size() const { return listeners_.size(); }

  // Retirements that can pass before some subscriber reaches its sample
  // point: 0 on a pinned bus or one at a sample point.
  uint64_t retire_distance() const { return retire_distance_; }
  // Counts `n` retirements at once, as `n` OnRetired calls would; requires
  // n <= retire_distance(), so that none of them reaches a sample point.
  void CountRetirements(uint64_t n) { retire_distance_ -= n; }

  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override {
    if (retire_distance_ > 0) {
      --retire_distance_;
      return;
    }
    RetireAtSamplePoint(ctx_id, ip, op, cycle);
  }
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override {
    for (EventListener* l : Dispatch(Event::kLoad)) {
      l->OnLoad(ctx_id, ip, vaddr, level, hit_inflight, stall_cycles, cycle);
    }
  }
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override {
    for (EventListener* l : Dispatch(Event::kStall)) {
      l->OnStall(ctx_id, ip, cycles, cycle);
    }
  }
  void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                uint64_t cycle) override {
    for (EventListener* l : Dispatch(Event::kBranch)) {
      l->OnBranch(ctx_id, from, to, taken, cycle);
    }
  }
  void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) override {
    for (EventListener* l : Dispatch(Event::kPrefetch)) {
      l->OnPrefetch(ctx_id, ip, vaddr, cycle);
    }
  }
  void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) override {
    for (EventListener* l : Dispatch(Event::kYield)) {
      l->OnYield(ctx_id, ip, conditional, cycle);
    }
  }

 private:
  // The subscribers to `event`, each with its countdown brought up to date.
  const std::vector<EventListener*>& Dispatch(Event event) {
    const std::vector<EventListener*>& subscribers =
        by_event_[static_cast<size_t>(event)];
    if (!subscribers.empty()) {
      ApplyRetirements();
    }
    return subscribers;
  }

  // Subtracts the retirements counted since the last call from every
  // retired-instruction subscriber's countdown. None reaches zero: the
  // distance stopped at the nearest one's last retirement short of it.
  void ApplyRetirements() const {
    const uint64_t pending = armed_distance_ - retire_distance_;
    if (pending == 0) {
      return;
    }
    for (EventListener* l : by_event_[static_cast<size_t>(Event::kRetired)]) {
      l->countdown_ -= pending;
    }
    armed_distance_ = retire_distance_;
  }

  // Retirements `listener` lets pass before its next OnRetired.
  static uint64_t DistanceOf(const EventListener& listener) {
    return listener.countdown_ > 1 ? listener.countdown_ - 1 : 0;
  }

  // After the registrations change: decides whether the bus is pinned and
  // arms the distance from the countdowns, which must be up to date. A
  // subscriber at countdown 1 then is taken to see every retirement (a
  // full-feed listener, a period-1 sampler; a sampler that is one retirement
  // short of a sample costs only speed until the next change), and a listener
  // registered twice counts each retirement twice; either holds the distance
  // at 0.
  void Rearm() {
    const std::vector<EventListener*>& subscribers =
        by_event_[static_cast<size_t>(Event::kRetired)];
    pinned_ = false;
    uint64_t distance = UINT64_MAX;
    for (size_t i = 0; i < subscribers.size(); ++i) {
      distance = std::min(distance, DistanceOf(*subscribers[i]));
      for (size_t j = 0; j < i; ++j) {
        pinned_ |= subscribers[j] == subscribers[i];
      }
    }
    pinned_ |= distance == 0;
    retire_distance_ = pinned_ ? 0 : distance;
    armed_distance_ = retire_distance_;
  }

  // Counts one retirement down `listener`'s countdown, or calls it at 1.
  static void Retire(EventListener& listener, int ctx_id, isa::Addr ip,
                     isa::Opcode op, uint64_t cycle) {
    if (listener.countdown_ > 1) {
      --listener.countdown_;
    } else {
      listener.OnRetired(ctx_id, ip, op, cycle);
    }
  }

  // The retirement that reaches the shared distance. A pinned bus has nothing
  // pending and counts it down each subscriber in place. Otherwise some
  // subscriber is at a sample point, and one pass dispatches the retirement
  // and finds the next distance. Kept out of line: the executor's run loop
  // inlines OnRetired, and a walk of the subscribers there, even one it
  // skips, slowed adapt_drift by 7%.
  [[gnu::noinline]] void RetireAtSamplePoint(int ctx_id, isa::Addr ip,
                                             isa::Opcode op, uint64_t cycle) {
    const std::vector<EventListener*>& subscribers =
        by_event_[static_cast<size_t>(Event::kRetired)];
    if (pinned_) {
      for (EventListener* l : subscribers) {
        Retire(*l, ctx_id, ip, op, cycle);
      }
      return;
    }
    ApplyRetirements();
    uint64_t distance = UINT64_MAX;
    for (EventListener* l : subscribers) {
      Retire(*l, ctx_id, ip, op, cycle);
      distance = std::min(distance, DistanceOf(*l));
    }
    retire_distance_ = distance;
    armed_distance_ = distance;
  }

  // Every registration, in the order added.
  std::vector<EventListener*> listeners_;
  // The registrations subscribed to each event, in the order added.
  std::array<std::vector<EventListener*>, kNumEvents> by_event_;
  // Retirements that can still pass before some subscriber reaches its sample
  // point; each one decrements it.
  uint64_t retire_distance_ = UINT64_MAX;
  // The distance when the retirement subscribers' countdowns were last
  // brought up to date; the difference is the retirements not yet applied.
  mutable uint64_t armed_distance_ = UINT64_MAX;
  // Some subscriber takes every retirement: the distance stays at 0 until the
  // registrations change.
  bool pinned_ = false;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_EVENTS_H_
