// StagePipeline: the modeled connection-processing path (docs/SERVING.md).
//
// Modeled on beng-proxy's request path: a request traverses a sequence of
// stages — accept -> buffered-read -> parse -> [handle] -> respond — where
// every stage except handle is event-loop work with a fixed modeled cycle
// cost charged on the serving core, and HANDLE is the application: it
// dispatches onto the shard's primary coroutine group and runs under the
// instrumented dual-mode scheduler.
//
// The front end charges the INGRESS stages at admission (the event loop reads
// and parses a connection before it can queue the request for handling) and
// the EGRESS stages when the handled request's response is written back.
#ifndef YIELDHIDE_SRC_SERVE_PIPELINE_H_
#define YIELDHIDE_SRC_SERVE_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/machine.h"

namespace yieldhide::serve {

struct Stage {
  std::string name;
  uint64_t cycles = 0;
};

class StagePipeline {
 public:
  StagePipeline() = default;

  StagePipeline& Append(std::string name, uint64_t cycles) {
    stages_.push_back(Stage{std::move(name), cycles});
    return *this;
  }

  // Charges every stage to the machine clock, in order. Returns the total
  // cycles charged; per-stage totals accumulate in stage_cycles() for the
  // yh_serve_stage_cycles_total{stage=...} metrics.
  uint64_t Charge(sim::Machine& machine) {
    uint64_t total = 0;
    for (const Stage& stage : stages_) {
      machine.AdvanceClock(stage.cycles);
      stage_cycles_[stage.name] += stage.cycles;
      total += stage.cycles;
    }
    return total;
  }

  const std::map<std::string, uint64_t>& stage_cycles() const {
    return stage_cycles_;
  }

  // The default modeled protocol. Costs are small multiples of an L2 miss:
  // accept is a cheap edge-triggered wakeup, buffered-read touches the
  // socket buffer, parse walks the header bytes.
  static StagePipeline DefaultIngress() {
    StagePipeline pipeline;
    pipeline.Append("accept", 60).Append("buffered_read", 140).Append("parse",
                                                                      90);
    return pipeline;
  }
  static StagePipeline DefaultEgress() {
    StagePipeline pipeline;
    pipeline.Append("respond", 80);
    return pipeline;
  }

 private:
  std::vector<Stage> stages_;
  std::map<std::string, uint64_t> stage_cycles_;
};

}  // namespace yieldhide::serve

#endif  // YIELDHIDE_SRC_SERVE_PIPELINE_H_
