#include "src/pmu/session.h"

namespace yieldhide::pmu {

namespace {
// Modeled cost of capturing one PEBS sample (microcode assist), used for
// overhead reporting only — the simulation itself is not slowed.
constexpr uint64_t kSampleCaptureCycles = 30;
}  // namespace

SamplingSession::SamplingSession(const SessionConfig& config) : config_(config) {
  for (const PebsConfig& pc : config.pebs) {
    pebs_.push_back(std::make_unique<PebsSampler>(pc));
  }
  if (config.enable_lbr) {
    lbr_ = std::make_unique<LbrRecorder>(config.lbr);
  }
}

void SamplingSession::AttachTo(sim::Machine& machine) {
  for (auto& sampler : pebs_) {
    machine.listeners().Add(sampler.get());
  }
  if (lbr_ != nullptr) {
    machine.listeners().Add(lbr_.get());
  }
}

void SamplingSession::DetachFrom(sim::Machine& machine) {
  for (auto& sampler : pebs_) {
    machine.listeners().Remove(sampler.get());
  }
  if (lbr_ != nullptr) {
    machine.listeners().Remove(lbr_.get());
  }
}

std::vector<PebsSample> SamplingSession::DrainAllSamples() {
  std::vector<PebsSample> all;
  for (auto& sampler : pebs_) {
    std::vector<PebsSample> drained = sampler->Drain();
    all.insert(all.end(), drained.begin(), drained.end());
  }
  if (trace_ != nullptr && trace_->ShouldRecord(obs::kTracePmu)) {
    for (const PebsSample& sample : all) {
      trace_->Record(obs::TraceEventType::kPmuSample, sample.cycle,
                     sample.ctx_id, sample.ip,
                     static_cast<uint64_t>(sample.event));
    }
  }
  return all;
}

std::vector<LbrSnapshot> SamplingSession::DrainLbrSnapshots() {
  if (lbr_ == nullptr) {
    return {};
  }
  return lbr_->DrainSnapshots();
}

uint64_t SamplingSession::OverheadCycles() const {
  uint64_t samples = 0;
  for (const auto& sampler : pebs_) {
    samples += sampler->samples_taken();
  }
  return samples * kSampleCaptureCycles;
}

double SamplingSession::OverheadFraction(uint64_t run_cycles) const {
  if (run_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(OverheadCycles()) / static_cast<double>(run_cycles);
}

}  // namespace yieldhide::pmu
