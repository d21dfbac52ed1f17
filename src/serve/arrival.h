// ArrivalProcess: deterministic open-loop request arrivals (docs/SERVING.md).
//
// Two models, both driven by one seeded Rng (the zipf.h discipline: every
// consumer of randomness takes an explicit seed, so a fixed seed reproduces
// the exact arrival sequence cycle-for-cycle):
//
//   * kPoisson — memoryless arrivals at a constant mean rate; interarrival
//     gaps are exponential draws.
//   * kBurst — a two-state Markov-modulated Poisson process (MMPP): dwell
//     times in a QUIET and a BURST state are themselves exponential, and the
//     instantaneous rate is the mean rate scaled by the state's multiplier.
//     The same mean offered load arrives in clumps, which is what stresses
//     bounded queues and tail latency.
//
// Rates are expressed per KILOCYCLE so CLI-friendly magnitudes (0.001..10)
// cover the whole interesting range on a ~GHz-class simulated core.
#ifndef YIELDHIDE_SRC_SERVE_ARRIVAL_H_
#define YIELDHIDE_SRC_SERVE_ARRIVAL_H_

#include <cstdint>
#include <optional>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace yieldhide::serve {

struct ArrivalConfig {
  enum class Kind { kPoisson, kBurst };
  Kind kind = Kind::kPoisson;
  // Mean arrivals per 1000 cycles (both models; kBurst redistributes the
  // same mean into bursts).
  double rate_per_kcycle = 0.01;
  // Arrivals occur strictly before this cycle; the stream then ends.
  uint64_t horizon_cycles = 1'000'000;
  uint64_t seed = 1;

  // Named-field validation (CLI exit-2 hygiene rides on these messages).
  Status Validate() const;
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalConfig& config);

  // The absolute cycle of the next arrival (strictly increasing), or nullopt
  // once the horizon is reached. Deterministic in (config, seed).
  std::optional<uint64_t> Next();

  const ArrivalConfig& config() const { return config_; }

 private:
  // Exponential draw with the given per-cycle rate.
  double ExpGap(double rate_per_cycle);

  ArrivalConfig config_;
  Rng rng_;
  double clock_ = 0.0;        // continuous arrival clock (cycles)
  uint64_t last_cycle_ = 0;   // last emitted integer cycle (strict order)
  bool emitted_ = false;
  bool in_burst_ = false;     // kBurst state
  double state_until_ = 0.0;  // kBurst: current state's dwell deadline
};

}  // namespace yieldhide::serve

#endif  // YIELDHIDE_SRC_SERVE_ARRIVAL_H_
