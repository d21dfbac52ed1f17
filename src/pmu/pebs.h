// PEBS-style precise event sampler.
//
// Counts occurrences of one hardware event and records a precise sample every
// `period` occurrences into a bounded in-memory buffer, reproducing the three
// realities of sample-based profiling the paper's pipeline must absorb:
//   * sampling error — only 1/period of events are observed,
//   * skid — the recorded IP may trail the causing instruction by a few
//     instructions (configurable, probabilistic), and
//   * buffer overflow — samples arriving while the buffer is full are lost
//     until the consumer drains it.
//
// Like a hardware counter preloaded with -period, the sampler keeps a
// countdown to its next sample. It subscribes to its one event only, and for
// retired instructions the machine's event bus counts the countdown down, so
// the sampler runs only at sample points. Jitter and skid draws
// happen only there, so the sample stream is the one a sampler fed every
// event would emit; tests/pmu_diff_test.cc checks that against a reference.
#ifndef YIELDHIDE_SRC_PMU_PEBS_H_
#define YIELDHIDE_SRC_PMU_PEBS_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/pmu/sample.h"
#include "src/sim/events.h"

namespace yieldhide::pmu {

struct PebsConfig {
  HwEvent event = HwEvent::kLoadsL2Miss;
  uint64_t period = 97;      // sample every Nth event; primes help, but see jitter
  // Randomizes each inter-sample gap within period*(1 +/- jitter), jitter in
  // [0, 1]: defeats deterministic aliasing against loop periods (perf_event's
  // attr.freq/randomization serves the same purpose on real PMUs).
  double period_jitter = 0.0;
  uint32_t max_skid = 0;     // max instructions of IP skid (0 = fully precise)
  double skid_probability = 0.0;
  size_t buffer_capacity = 4096;
  uint64_t seed = 1;
};

class PebsSampler : public sim::EventListener {
 public:
  explicit PebsSampler(const PebsConfig& config);

  // sim::EventListener:
  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override;
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, sim::HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override;
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override;

  // Moves the accumulated samples out of the buffer (simulating the profiler
  // interrupt draining the PEBS buffer).
  std::vector<PebsSample> Drain();

  const PebsConfig& config() const { return config_; }
  // For retired instructions, exact once the bus has applied the
  // retirements it counted (see src/sim/events.h), e.g. after a Remove.
  uint64_t event_count() const { return next_sample_at_ - countdown_; }
  uint64_t samples_taken() const { return samples_taken_; }
  uint64_t samples_dropped() const { return samples_dropped_; }
  size_t buffered() const { return buffer_.size(); }

 private:
  void CountEvent(uint64_t weight, const PebsSample& proto);
  void Emit(PebsSample sample);

  PebsConfig config_;
  Rng rng_;
  // The event count at which the next sample fires. EventListener's
  // countdown_ holds the events still to go, whichever event is counted.
  uint64_t next_sample_at_;
  uint64_t samples_taken_ = 0;
  uint64_t samples_dropped_ = 0;
  std::vector<PebsSample> buffer_;
};

}  // namespace yieldhide::pmu

#endif  // YIELDHIDE_SRC_PMU_PEBS_H_
