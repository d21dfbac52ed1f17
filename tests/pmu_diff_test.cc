// Differential test of the simulated PMU against a reference sampler.
//
// RefPebsSampler is PebsSampler copied verbatim (less Reset(), which the test
// never calls), kept here unchanged as an oracle the way sim_diff_test keeps
// RefCache. It declares no event mask, so the machine hands it every event
// and it counts each one itself. Real SamplingSessions and reference samplers
// with identical configs attach to one machine that runs random programs as
// round-robin coroutines; after every drain, every sample and every counter
// must be equal, however the machine routes and counts events for the real
// samplers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/instrument/scavenger_pass.h"
#include "src/pmu/pebs.h"
#include "src/pmu/session.h"
#include "src/runtime/annotate.h"
#include "src/runtime/round_robin.h"
#include "src/sim/machine.h"
#include "tests/random_program.h"

namespace yieldhide::pmu {
namespace {

class RefPebsSampler : public sim::EventListener {
 public:
  explicit RefPebsSampler(const PebsConfig& config);

  // sim::EventListener:
  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override;
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, sim::HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override;
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override;

  // Moves the accumulated samples out of the buffer (simulating the profiler
  // interrupt draining the PEBS buffer).
  std::vector<PebsSample> Drain();

  const PebsConfig& config() const { return config_; }
  uint64_t event_count() const { return event_count_; }
  uint64_t samples_taken() const { return samples_taken_; }
  uint64_t samples_dropped() const { return samples_dropped_; }
  size_t buffered() const { return buffer_.size(); }

 private:
  void CountEvent(uint64_t weight, const PebsSample& proto);
  void Emit(PebsSample sample);

  PebsConfig config_;
  Rng rng_;
  uint64_t event_count_ = 0;
  uint64_t next_sample_at_;
  uint64_t samples_taken_ = 0;
  uint64_t samples_dropped_ = 0;
  // The last few retired IPs per context, for skid modelling.
  isa::Addr last_ip_ = 0;
  std::vector<PebsSample> buffer_;
};

RefPebsSampler::RefPebsSampler(const PebsConfig& config)
    : config_(config), rng_(config.seed), next_sample_at_(config.period) {}

void RefPebsSampler::CountEvent(uint64_t weight, const PebsSample& proto) {
  event_count_ += weight;
  while (event_count_ >= next_sample_at_) {
    uint64_t gap = config_.period;
    if (config_.period_jitter > 0.0) {
      const auto swing = static_cast<uint64_t>(config_.period_jitter *
                                               static_cast<double>(config_.period));
      if (swing > 0) {
        gap = config_.period - swing + rng_.NextBelow(2 * swing + 1);
      }
    }
    next_sample_at_ += gap == 0 ? 1 : gap;
    Emit(proto);
  }
}

void RefPebsSampler::Emit(PebsSample sample) {
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

void RefPebsSampler::OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) {
  last_ip_ = ip;
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

void RefPebsSampler::OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, sim::HitLevel level,
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

void RefPebsSampler::OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) {
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

std::vector<PebsSample> RefPebsSampler::Drain() {
  std::vector<PebsSample> out;
  out.swap(buffer_);
  return out;
}

// --- the differential run ---------------------------------------------------------

constexpr uint64_t kMinRetired = 1'000'000;
constexpr int kContexts = 4;

PebsConfig Sampler(HwEvent event, uint64_t period, double jitter, bool skid,
                   size_t capacity, uint64_t seed) {
  PebsConfig config;
  config.event = event;
  config.period = period;
  config.period_jitter = jitter;
  if (skid) {
    config.max_skid = 3;
    config.skid_probability = 0.5;
  }
  config.buffer_capacity = capacity;
  config.seed = seed;
  return config;
}

// Covers every event, periods 1, 2, 61 and 301, jitter 0, 0.1 and 1.0, skid,
// and a buffer small enough to drop samples between drains.
SessionConfig FirstConfig() {
  SessionConfig config;
  config.pebs = {
      Sampler(HwEvent::kRetiredInstructions, 1, 0.0, false, 1 << 16, 11),
      Sampler(HwEvent::kRetiredInstructions, 61, 0.1, false, 4096, 12),
      Sampler(HwEvent::kRetiredInstructions, 301, 1.0, true, 4096, 13),
      Sampler(HwEvent::kLoadsL1Miss, 2, 1.0, false, 4096, 14),
      Sampler(HwEvent::kLoadsL2Miss, 1, 0.0, false, 16, 15),
      Sampler(HwEvent::kLoadsL3Miss, 61, 0.1, true, 4096, 16),
      Sampler(HwEvent::kStallCycles, 61, 1.0, false, 4096, 17),
  };
  return config;
}

SessionConfig SecondConfig() {
  SessionConfig config;
  config.pebs = {
      Sampler(HwEvent::kRetiredInstructions, 2, 1.0, true, 64, 21),
      Sampler(HwEvent::kRetiredInstructions, 301, 0.0, false, 4096, 22),
      Sampler(HwEvent::kLoadsL1Miss, 61, 0.0, true, 4096, 23),
      Sampler(HwEvent::kLoadsL3Miss, 1, 1.0, false, 4096, 24),
      Sampler(HwEvent::kStallCycles, 301, 0.1, false, 4096, 25),
  };
  return config;
}

// FirstConfig with every period halved the way Shard rounds a rescale, and
// fresh seeds: the session that replaces the first one mid-run.
SessionConfig RescaledConfig() {
  SessionConfig config = FirstConfig();
  for (PebsConfig& pc : config.pebs) {
    pc.period = pc.period < 2 ? 1 : (pc.period + 1) / 2;
    pc.seed += 100;
  }
  return config;
}

// A sampling session and one reference sampler per PEBS config, attached and
// detached together.
class ShadowedSession {
 public:
  explicit ShadowedSession(const SessionConfig& config) : session_(config) {
    for (const PebsConfig& pc : config.pebs) {
      refs_.push_back(std::make_unique<RefPebsSampler>(pc));
    }
  }

  void AttachTo(sim::Machine& machine) {
    session_.AttachTo(machine);
    for (auto& ref : refs_) {
      machine.listeners().Add(ref.get());
    }
  }

  void DetachFrom(sim::Machine& machine) {
    session_.DetachFrom(machine);
    for (auto& ref : refs_) {
      machine.listeners().Remove(ref.get());
    }
  }

  // Drains both sides and expects the same samples in the same order and the
  // same counters. Returns the number of samples compared.
  size_t DrainAndCompare() {
    const std::vector<PebsSample> got = session_.DrainAllSamples();
    std::vector<PebsSample> want;
    for (size_t i = 0; i < refs_.size(); ++i) {
      const std::vector<PebsSample> drained = refs_[i]->Drain();
      want.insert(want.end(), drained.begin(), drained.end());
      const PebsSampler& real = session_.pebs(i);
      EXPECT_EQ(real.event_count(), refs_[i]->event_count()) << "sampler " << i;
      EXPECT_EQ(real.samples_taken(), refs_[i]->samples_taken()) << "sampler " << i;
      EXPECT_EQ(real.samples_dropped(), refs_[i]->samples_dropped()) << "sampler " << i;
      EXPECT_EQ(real.buffered(), 0u);
    }
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      const bool equal = got[i].event == want[i].event &&
                         got[i].ctx_id == want[i].ctx_id && got[i].ip == want[i].ip &&
                         got[i].vaddr == want[i].vaddr && got[i].level == want[i].level &&
                         got[i].cycle == want[i].cycle;
      if (!equal) {
        ADD_FAILURE() << "sample " << i << " differs: event "
                      << static_cast<int>(got[i].event) << " vs "
                      << static_cast<int>(want[i].event) << ", ctx " << got[i].ctx_id
                      << " vs " << want[i].ctx_id << ", ip " << got[i].ip << " vs "
                      << want[i].ip << ", vaddr " << got[i].vaddr << " vs "
                      << want[i].vaddr << ", cycle " << got[i].cycle << " vs "
                      << want[i].cycle;
        break;
      }
    }
    return want.size();
  }

  std::vector<uint64_t> EventCounts() {
    std::vector<uint64_t> counts;
    for (size_t i = 0; i < session_.pebs_count(); ++i) {
      counts.push_back(session_.pebs(i).event_count());
    }
    return counts;
  }

  uint64_t SamplesDropped() {
    uint64_t dropped = 0;
    for (size_t i = 0; i < session_.pebs_count(); ++i) {
      dropped += session_.pebs(i).samples_dropped();
    }
    return dropped;
  }

 private:
  SamplingSession session_;
  std::vector<std::unique_ptr<RefPebsSampler>> refs_;
};

// Runs RandomProgram(seed), scavenger-instrumented, as kContexts round-robin
// coroutines on disjoint data. Returns the instructions retired.
uint64_t RunRound(uint64_t seed, sim::Machine& machine) {
  instrument::InstrumentedProgram input;
  input.program = RandomProgram(seed);
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 30;
  auto scavenged = instrument::RunScavengerPass(input, nullptr, config);
  EXPECT_TRUE(scavenged.ok()) << scavenged.status();
  if (!scavenged.ok()) {
    return 0;
  }
  Rng rng(seed);
  for (int c = 0; c < kContexts; ++c) {
    const uint64_t base = 0x10000 + static_cast<uint64_t>(c) * 0x100000;
    for (uint64_t offset = 0; offset < 0x4000; offset += 8) {
      machine.memory().Write64(base + offset, rng.Next() & 0xffff);
    }
  }
  const instrument::InstrumentedProgram binary = runtime::AnnotateManualYields(
      scavenged->instrumented.program, machine.config().cost);
  runtime::RoundRobinScheduler scheduler(&binary, &machine);
  for (int c = 0; c < kContexts; ++c) {
    scheduler.AddCoroutine(
        [c](sim::CpuContext& ctx) {
          ctx.regs[10] = 0x10000 + static_cast<uint64_t>(c) * 0x100000;
          ctx.regs[15] = 0x80000 + static_cast<uint64_t>(c) * 0x100000;
        },
        /*cyield_enabled=*/true);
  }
  auto report = scheduler.Run(10'000'000);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? report->instructions : 0;
}

TEST(PmuDiffTest, SessionsMatchReferenceSamplersOnRandomPrograms) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto first = std::make_unique<ShadowedSession>(FirstConfig());
  ShadowedSession second(SecondConfig());
  first->AttachTo(machine);
  second.AttachTo(machine);

  // The first session, once replaced, stays alive: its counts must freeze.
  std::unique_ptr<ShadowedSession> replaced;
  std::vector<uint64_t> replaced_counts;
  uint64_t retired = 0;
  size_t compared = 0;
  uint64_t dropped = 0;
  for (uint64_t seed = 1; retired < kMinRetired && !HasFailure(); ++seed) {
    retired += RunRound(seed, machine);
    compared += first->DrainAndCompare();
    compared += second.DrainAndCompare();
    if (replaced != nullptr) {
      EXPECT_EQ(replaced->EventCounts(), replaced_counts) << "after seed " << seed;
    } else if (retired >= kMinRetired / 2) {
      // Replace it as Shard does when it rescales periods.
      first->DetachFrom(machine);
      dropped += first->SamplesDropped();
      replaced = std::move(first);
      replaced_counts = replaced->EventCounts();
      first = std::make_unique<ShadowedSession>(RescaledConfig());
      first->AttachTo(machine);
    }
  }
  dropped += first->SamplesDropped() + second.SamplesDropped();

  EXPECT_GE(retired, kMinRetired);
  EXPECT_GT(compared, retired);
  EXPECT_GT(dropped, 0u);
  ASSERT_NE(replaced, nullptr);
}

}  // namespace
}  // namespace yieldhide::pmu
