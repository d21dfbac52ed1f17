#include "src/pmu/pebs.h"

namespace yieldhide::pmu {

namespace {

// The one bus event each hardware event is counted from.
sim::EventMask SubscribedEvents(HwEvent event) {
  switch (event) {
    case HwEvent::kRetiredInstructions:
      return sim::MaskOf({sim::Event::kRetired});
    case HwEvent::kStallCycles:
      return sim::MaskOf({sim::Event::kStall});
    default:
      return sim::MaskOf({sim::Event::kLoad});
  }
}

}  // namespace

PebsSampler::PebsSampler(const PebsConfig& config)
    : sim::EventListener(SubscribedEvents(config.event)),
      config_(config),
      rng_(config.seed),
      next_sample_at_(config.period) {
  countdown_ = config.period;
}

void PebsSampler::CountEvent(uint64_t weight, const PebsSample& proto) {
  // Each pass consumes the countdown: the weight reached a sample point.
  while (weight >= countdown_) {
    weight -= countdown_;
    uint64_t gap = config_.period;
    if (config_.period_jitter > 0.0) {
      const auto swing = static_cast<uint64_t>(config_.period_jitter *
                                               static_cast<double>(config_.period));
      if (swing > 0) {
        gap = config_.period - swing + rng_.NextBelow(2 * swing + 1);
      }
    }
    countdown_ = gap == 0 ? 1 : gap;
    next_sample_at_ += countdown_;
    Emit(proto);
  }
  countdown_ -= weight;
}

void PebsSampler::Emit(PebsSample sample) {
  ++samples_taken_;
  if (config_.max_skid > 0 && rng_.NextBool(config_.skid_probability)) {
    sample.ip += static_cast<isa::Addr>(rng_.NextInRange(1, config_.max_skid));
  }
  if (buffer_.size() >= config_.buffer_capacity) {
    ++samples_dropped_;
    return;
  }
  buffer_.push_back(sample);
}

// The bus calls this only for the retirement that takes the countdown to zero;
// a direct caller may call it for every retirement.
void PebsSampler::OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) {
  if (config_.event != HwEvent::kRetiredInstructions) {
    return;
  }
  PebsSample proto;
  proto.event = config_.event;
  proto.ctx_id = ctx_id;
  proto.ip = ip;
  proto.cycle = cycle;
  CountEvent(1, proto);
}

void PebsSampler::OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, sim::HitLevel level,
                         bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) {
  bool matches = false;
  switch (config_.event) {
    case HwEvent::kLoadsL1Miss:
      matches = level != sim::HitLevel::kL1 || hit_inflight;
      break;
    case HwEvent::kLoadsL2Miss:
      matches = level == sim::HitLevel::kL3 || level == sim::HitLevel::kDram;
      break;
    case HwEvent::kLoadsL3Miss:
      matches = level == sim::HitLevel::kDram;
      break;
    default:
      return;
  }
  if (!matches) {
    return;
  }
  PebsSample proto;
  proto.event = config_.event;
  proto.ctx_id = ctx_id;
  proto.ip = ip;
  proto.vaddr = vaddr;
  proto.level = level;
  proto.cycle = cycle;
  CountEvent(1, proto);
}

void PebsSampler::OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) {
  if (config_.event != HwEvent::kStallCycles) {
    return;
  }
  PebsSample proto;
  proto.event = config_.event;
  proto.ctx_id = ctx_id;
  proto.ip = ip;
  proto.cycle = cycle;
  // A single long stall can cross several sampling periods; CountEvent emits
  // one sample per crossed period, all attributed to this IP — exactly how a
  // cycles-based PEBS event piles samples onto long-stalling instructions.
  CountEvent(cycles, proto);
}

std::vector<PebsSample> PebsSampler::Drain() {
  std::vector<PebsSample> out;
  out.swap(buffer_);
  return out;
}

}  // namespace yieldhide::pmu
