#include "src/serve/arrival.h"

#include <cmath>

namespace yieldhide::serve {

namespace {
// kBurst shape: rate multipliers per state and mean state dwell cycles. The
// long-run mean is rate * (q*Tq + b*Tb) / (Tq + Tb) = 1.0 * rate_per_kcycle.
constexpr double kQuietRateMultiplier = 0.25;
constexpr double kBurstRateMultiplier = 4.0;
constexpr uint64_t kMeanQuietCycles = 120'000;
constexpr uint64_t kMeanBurstCycles = 30'000;
}  // namespace

Status ArrivalConfig::Validate() const {
  if (!(rate_per_kcycle > 0.0) || !std::isfinite(rate_per_kcycle)) {
    return InvalidArgumentError("arrival rate must be a positive finite "
                                "number of requests per kilocycle");
  }
  if (horizon_cycles == 0) {
    return InvalidArgumentError("arrival horizon must be positive");
  }
  return Status::Ok();
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.kind == ArrivalConfig::Kind::kBurst) {
    // Start in the quiet state with a fresh dwell draw.
    in_burst_ = false;
    state_until_ = ExpGap(1.0 / static_cast<double>(kMeanQuietCycles));
  }
}

double ArrivalProcess::ExpGap(double rate_per_cycle) {
  // Inverse-CDF exponential; 1 - U in (0, 1] keeps log() finite.
  return -std::log(1.0 - rng_.NextDouble()) / rate_per_cycle;
}

std::optional<uint64_t> ArrivalProcess::Next() {
  const double base_rate = config_.rate_per_kcycle / 1000.0;
  if (config_.kind == ArrivalConfig::Kind::kPoisson) {
    clock_ += ExpGap(base_rate);
  } else {
    // MMPP: exponential dwells make the state memoryless, so a gap that
    // crosses a state boundary is redrawn from the boundary at the new
    // state's rate without bias.
    while (true) {
      const double rate =
          base_rate * (in_burst_ ? kBurstRateMultiplier : kQuietRateMultiplier);
      const double gap = ExpGap(rate);
      if (clock_ + gap <= state_until_) {
        clock_ += gap;
        break;
      }
      clock_ = state_until_;
      in_burst_ = !in_burst_;
      const uint64_t mean_dwell = in_burst_ ? kMeanBurstCycles : kMeanQuietCycles;
      state_until_ =
          clock_ + ExpGap(1.0 / static_cast<double>(mean_dwell));
      if (clock_ >= static_cast<double>(config_.horizon_cycles)) {
        return std::nullopt;
      }
    }
  }
  if (clock_ >= static_cast<double>(config_.horizon_cycles)) {
    return std::nullopt;
  }
  // Two close continuous-time draws may floor to the same integer cycle;
  // the discrete sequence is promised strictly increasing, so bump.
  uint64_t cycle = static_cast<uint64_t>(clock_);
  if (emitted_ && cycle <= last_cycle_) {
    cycle = last_cycle_ + 1;
    if (cycle >= config_.horizon_cycles) {
      return std::nullopt;
    }
  }
  last_cycle_ = cycle;
  emitted_ = true;
  return cycle;
}

}  // namespace yieldhide::serve
