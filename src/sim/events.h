// Hardware-event listener interface and the bus that routes events to
// listeners. The executor publishes micro-architectural events to the
// machine's MulticastListener; the simulated PMU (src/pmu) subscribes to
// build PEBS-style samples and LBR records, and the exact-stats collector
// subscribes to build the ground truth that profiles are evaluated against.
//
// The bus counts the way a hardware PMU does. A listener declares the events
// it wants and is called for no others; one that declares nothing gets every
// event. For retired instructions, a subscriber's countdown is decremented in
// place and OnRetired runs only for the retirement that takes it to zero, the
// way PEBS preloads a counter with -period and acts only on overflow. So a
// sampler costs the simulator one decrement per instruction, not one call.
#ifndef YIELDHIDE_SRC_SIM_EVENTS_H_
#define YIELDHIDE_SRC_SIM_EVENTS_H_

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
  // above 1 the bus decrements it in place instead of calling OnRetired; at 1
  // the bus calls OnRetired, which must leave it at 1 or more. A listener
  // that never changes it sees every retirement.
  uint64_t countdown_ = 1;

 private:
  friend class MulticastListener;

  // The events the bus calls this listener for.
  EventMask events_ = kAllEvents;
};

// The event bus: keeps one subscriber list per event and calls each listener
// only for the events it declares. Listeners are not owned.
class MulticastListener final : public EventListener {
 public:
  // Subscribes `listener` to its declared events. A listener added twice
  // gets each of its events twice.
  void Add(EventListener* listener) {
    listeners_.push_back(listener);
    for (size_t event = 0; event < kNumEvents; ++event) {
      if ((listener->events_ >> event) & 1u) {
        by_event_[event].push_back(listener);
      }
    }
  }
  // Removes every registration of `listener` from every list; unknown
  // listeners are a no-op. Lets a sampling session detach itself mid-run
  // (online re-profiling attaches and detaches around serving epochs).
  void Remove(const EventListener* listener) {
    std::erase(listeners_, listener);
    for (std::vector<EventListener*>& subscribers : by_event_) {
      std::erase(subscribers, listener);
    }
  }
  void Clear() {
    listeners_.clear();
    for (std::vector<EventListener*>& subscribers : by_event_) {
      subscribers.clear();
    }
  }
  // Registrations, whatever events they declare.
  size_t size() const { return listeners_.size(); }

  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override {
    for (EventListener* l : Subscribers(Event::kRetired)) {
      if (l->countdown_ > 1) {
        --l->countdown_;
      } else {
        l->OnRetired(ctx_id, ip, op, cycle);
      }
    }
  }
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override {
    for (EventListener* l : Subscribers(Event::kLoad)) {
      l->OnLoad(ctx_id, ip, vaddr, level, hit_inflight, stall_cycles, cycle);
    }
  }
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override {
    for (EventListener* l : Subscribers(Event::kStall)) {
      l->OnStall(ctx_id, ip, cycles, cycle);
    }
  }
  void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                uint64_t cycle) override {
    for (EventListener* l : Subscribers(Event::kBranch)) {
      l->OnBranch(ctx_id, from, to, taken, cycle);
    }
  }
  void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) override {
    for (EventListener* l : Subscribers(Event::kPrefetch)) {
      l->OnPrefetch(ctx_id, ip, vaddr, cycle);
    }
  }
  void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) override {
    for (EventListener* l : Subscribers(Event::kYield)) {
      l->OnYield(ctx_id, ip, conditional, cycle);
    }
  }

 private:
  const std::vector<EventListener*>& Subscribers(Event event) const {
    return by_event_[static_cast<size_t>(event)];
  }

  // Every registration, in the order added.
  std::vector<EventListener*> listeners_;
  // The registrations subscribed to each event, in the order added.
  std::array<std::vector<EventListener*>, kNumEvents> by_event_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_EVENTS_H_
