// The benchmark's own tests, on shrunken workloads: metric names and units
// are well formed and match BENCHMARK.json, every result line is strict
// JSON, a planted checksum corruption shows up in failed_frac, and the
// simulated metrics repeat exactly across invocations.
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "src/obs/snapshot.h"
#include "yhbench/yhbench.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
    }                                                                  \
  } while (0)

yhbench::Outcome MustRun(const std::string& workload, bool trace,
                         bool corrupt) {
  yhbench::Options options;
  options.workload = workload;
  options.seconds = 0.01;
  options.trace = trace;
  options.small = true;
  options.plant_corruption = corrupt;
  auto outcome = yhbench::Run(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                 outcome.status().ToString().c_str());
    ++failures;
    return {};
  }
  return *outcome;
}

double Value(const yhbench::Outcome& outcome, const std::string& name) {
  for (const auto& [spec, value] : outcome.metrics) {
    if (spec.name == name) {
      return value;
    }
  }
  return -1.0;
}

void TestNamesAndUnits() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* list :
       {&yhbench::EndToEndMetrics(), &yhbench::PerLayerMetrics()}) {
    for (const yhbench::MetricSpec& spec : *list) {
      EXPECT(std::regex_match(spec.name, name_re));
      EXPECT(std::regex_match(spec.unit, unit_re));
      EXPECT(seen.insert(spec.name).second);
    }
  }
  for (const std::string& name : yhbench::WorkloadNames()) {
    EXPECT(std::regex_match(name, name_re));
    EXPECT(seen.insert(name).second);
  }
}

// BENCHMARK.json names every workload and metric this binary prints, with
// the same units, and nothing else.
void TestSpecMatchesBenchmarkJson() {
  std::ifstream file(YHBENCH_SPEC_PATH);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string spec = buffer.str();
  EXPECT(yieldhide::obs::ValidateJson(spec).ok());
  size_t listed = 0;
  for (size_t at = spec.find("\"name\""); at != std::string::npos;
       at = spec.find("\"name\"", at + 1)) {
    ++listed;
  }
  size_t expected = yhbench::WorkloadNames().size();
  for (const std::string& name : yhbench::WorkloadNames()) {
    EXPECT(spec.find("\"name\": \"" + name + "\"") != std::string::npos);
  }
  for (const auto* list :
       {&yhbench::EndToEndMetrics(), &yhbench::PerLayerMetrics()}) {
    for (const yhbench::MetricSpec& m : *list) {
      ++expected;
      const std::string entry =
          "\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit + "\"";
      if (spec.find(entry) == std::string::npos) {
        std::fprintf(stderr, "BENCHMARK.json lacks %s\n", entry.c_str());
        ++failures;
      }
    }
  }
  EXPECT(listed == expected);
}

void TestWorkload(const std::string& workload) {
  for (const bool trace : {false, true}) {
    const yhbench::Outcome outcome = MustRun(workload, trace, false);
    const auto& specs =
        trace ? yhbench::PerLayerMetrics() : yhbench::EndToEndMetrics();
    EXPECT(outcome.correct);
    EXPECT(outcome.attempted >= 1);
    EXPECT(outcome.failed == 0);
    EXPECT(outcome.metrics.size() == specs.size());
    for (size_t i = 0; i < specs.size() && i < outcome.metrics.size(); ++i) {
      EXPECT(outcome.metrics[i].first.name == specs[i].name);
    }
    const std::string json = yhbench::ToResultJson(outcome);
    EXPECT(yieldhide::obs::ValidateJson(json).ok());
    if (!trace) {
      for (const yhbench::MetricSpec& spec : specs) {
        if (!(Value(outcome, spec.name) > 0.0)) {
          std::fprintf(stderr, "%s: %s is not positive\n", workload.c_str(),
                       spec.name.c_str());
          ++failures;
        }
      }
    } else {
      EXPECT(Value(outcome, "check.failed_frac") == 0.0);
    }
  }

  const yhbench::Outcome corrupted = MustRun(workload, false, true);
  EXPECT(!corrupted.correct);
  EXPECT(corrupted.failed >= 1);
  EXPECT(corrupted.failed_frac() > 0.0);
  EXPECT(yieldhide::obs::ValidateJson(yhbench::ToResultJson(corrupted)).ok());
  EXPECT(yhbench::ToResultJson(corrupted).find("\"correct\": false") !=
         std::string::npos);
}

// Two invocations with the same seed agree on every simulated metric.
void TestSimulatedMetricsRepeat() {
  const yhbench::Outcome a = MustRun("serve_obs", true, false);
  const yhbench::Outcome b = MustRun("serve_obs", true, false);
  for (const char* name :
       {"sim.hierarchy.l3_frac", "runtime.dm.bursts", "obs.trace_events",
        "obs.span.queue_wait", "serve.slo_miss_frac", "latency.samples"}) {
    EXPECT(Value(a, name) == Value(b, name));
  }
}

}  // namespace

int main() {
  TestNamesAndUnits();
  TestSpecMatchesBenchmarkJson();
  for (const std::string& workload : yhbench::WorkloadNames()) {
    TestWorkload(workload);
  }
  TestSimulatedMetricsRepeat();
  yhbench::Options unknown;
  unknown.workload = "no_such_workload";
  EXPECT(!yhbench::Run(unknown).ok());
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("yhbench_test: all checks passed\n");
  return 0;
}
