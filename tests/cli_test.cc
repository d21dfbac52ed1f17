// End-to-end tests of the yhc binary: exit-status hygiene (bad flags and
// unknown topics are distinguishable from crashes by scripts) and the
// observability exports (`yhc trace` / `yhc metrics`).
//
// The binary path comes from the build (YHC_BINARY); tests shell out with
// stderr captured to a temp file.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/snapshot.h"

namespace yieldhide {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string stderr_text;
};

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "yhc_cli_test_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

CommandResult RunYhc(const std::string& args, const std::string& tag) {
  const std::string err_path = TempPath(tag + ".err");
  const std::string cmd =
      std::string(YHC_BINARY) + " " + args + " 2> " + err_path;
  const int raw = std::system(cmd.c_str());
  CommandResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  result.stderr_text = ReadFile(err_path);
  return result;
}

// Small scenario flags shared by the trace/metrics runs to keep tests quick.
constexpr char kSmallRun[] = "--tasks 8 --epoch 4 --nodes 16384 --steps 200";

// --- exit-status hygiene -----------------------------------------------------

TEST(CliTest, UnknownCommandExitsTwo) {
  const CommandResult r = RunYhc("frobnicate", "unknown_cmd");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("unknown command 'frobnicate'"),
            std::string::npos);
}

TEST(CliTest, UnknownHelpTopicExitsTwo) {
  const CommandResult r = RunYhc("help frobnicate", "unknown_topic");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("unknown help topic 'frobnicate'"),
            std::string::npos);
}

TEST(CliTest, KnownHelpTopicExitsZero) {
  const CommandResult r = RunYhc("help trace > /dev/null", "known_topic");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.stderr_text.find("unknown"), std::string::npos);
}

TEST(CliTest, TraceBadCapacityExitsTwo) {
  const CommandResult r = RunYhc("trace --capacity nope", "bad_capacity");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --capacity"), std::string::npos);
}

TEST(CliTest, MetricsBadFormatExitsTwo) {
  const CommandResult r = RunYhc("metrics --format bogus", "bad_format");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --format"), std::string::npos);
}

// Every command takes a closed flag set: a typo must not silently run the
// default scenario (or the named file) and look like success. The files need
// not exist — the flag is rejected before anything is read.
struct UnknownFlagCase {
  const char* name;     // test-name suffix
  const char* command;  // as named in the error
  const char* args;     // enough positionals/flags to select the mode
};

// Listings show the case by name, not as raw bytes.
void PrintTo(const UnknownFlagCase& c, std::ostream* os) { *os << c.name; }

class CliUnknownFlagTest : public ::testing::TestWithParam<UnknownFlagCase> {};

TEST_P(CliUnknownFlagTest, ExitsTwoWithNamedError) {
  const UnknownFlagCase& c = GetParam();
  const CommandResult r =
      RunYhc(std::string(c.command) + " " + c.args + " --bogus 1",
             std::string("unknown_flag_") + c.name);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(std::string("yhc ") + c.command +
                               ": unknown flag '--bogus'"),
            std::string::npos)
      << r.stderr_text;
}

INSTANTIATE_TEST_SUITE_P(
    EveryCommand, CliUnknownFlagTest,
    ::testing::Values(UnknownFlagCase{"asm", "asm", "in.s out.yh"},
                      UnknownFlagCase{"dis", "dis", "in.yh"},
                      UnknownFlagCase{"cfg", "cfg", "in.yh"},
                      UnknownFlagCase{"interval", "interval", "in.yh"},
                      UnknownFlagCase{"run", "run", "in.yh"},
                      UnknownFlagCase{"profile_file", "profile",
                                      "in.yh --out in.prof"},
                      UnknownFlagCase{"instrument", "instrument",
                                      "in.yh --profile in.prof --out o.yh"},
                      UnknownFlagCase{"chaos", "chaos", "in.yh --fault drop:1"},
                      UnknownFlagCase{"adapt", "adapt", ""},
                      UnknownFlagCase{"trace", "trace", ""},
                      UnknownFlagCase{"metrics", "metrics", ""}),
    [](const ::testing::TestParamInfo<UnknownFlagCase>& info) {
      return std::string(info.param.name);
    });

// Every flag yhc stores in an int or uint32_t rejects a value past that
// type's range by name instead of silently wrapping (4294967297 used to
// become 1, 2147483648 a negative count).
struct NarrowedFlagCase {
  const char* name;
  const char* command;
  const char* args;
  const char* flag;
};

void PrintTo(const NarrowedFlagCase& c, std::ostream* os) { *os << c.name; }

class CliNarrowedFlagTest : public ::testing::TestWithParam<NarrowedFlagCase> {};

TEST_P(CliNarrowedFlagTest, OutOfRangeValueExitsTwoWithNamedError) {
  const NarrowedFlagCase& c = GetParam();
  const CommandResult r =
      RunYhc(std::string(c.command) + " " + c.args + " --" + c.flag +
                 " 4294967297 > /dev/null",
             std::string("narrowed_") + c.name);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(std::string("bad --") + c.flag),
            std::string::npos)
      << r.stderr_text;
}

INSTANTIATE_TEST_SUITE_P(
    EveryNarrowedFlag, CliNarrowedFlagTest,
    ::testing::Values(
        NarrowedFlagCase{"run_group", "run", "in.yh", "group"},
        NarrowedFlagCase{"instrument_interval", "instrument",
                         "in.yh --profile in.prof --out o.yh", "interval"},
        NarrowedFlagCase{"chaos_group", "chaos", "in.yh --fault drop:1",
                         "group"},
        NarrowedFlagCase{"adapt_tasks", "adapt", "", "tasks"},
        NarrowedFlagCase{"adapt_epoch", "adapt", "", "epoch"},
        NarrowedFlagCase{"adapt_flip", "adapt", "", "flip"},
        NarrowedFlagCase{"serve_shards", "serve", "", "shards"},
        NarrowedFlagCase{"serve_tasks", "serve", "", "tasks"},
        NarrowedFlagCase{"serve_epoch", "serve", "", "epoch"},
        NarrowedFlagCase{"serve_flip", "serve", "", "flip"},
        NarrowedFlagCase{"serve_guard_window", "serve", "--guard 1",
                         "guard-window"},
        NarrowedFlagCase{"serve_arrival_epoch", "serve", "--arrival poisson",
                         "epoch"},
        NarrowedFlagCase{"serve_arrival_guard_window", "serve",
                         "--arrival poisson --guard 1", "guard-window"},
        NarrowedFlagCase{"profile_tasks", "profile", "--json", "tasks"},
        NarrowedFlagCase{"profile_epoch", "profile", "--json", "epoch"},
        NarrowedFlagCase{"trace_tasks", "trace", "", "tasks"},
        NarrowedFlagCase{"trace_epoch", "trace", "", "epoch"},
        NarrowedFlagCase{"trace_mask", "trace", "", "mask"},
        NarrowedFlagCase{"metrics_tasks", "metrics", "", "tasks"},
        NarrowedFlagCase{"metrics_epoch", "metrics", "", "epoch"},
        NarrowedFlagCase{"spans_epoch", "spans", "--json", "epoch"},
        NarrowedFlagCase{"slo_epoch", "slo", "", "epoch"},
        NarrowedFlagCase{"why_epoch", "why", "", "epoch"},
        NarrowedFlagCase{"why_flip", "why", "", "flip"}),
    [](const ::testing::TestParamInfo<NarrowedFlagCase>& info) {
      return std::string(info.param.name);
    });

// --- observability exports ---------------------------------------------------

TEST(CliTest, TraceExportsValidChromeJson) {
  const std::string out = TempPath("trace.json");
  const CommandResult r = RunYhc(
      std::string("trace --out ") + out + " " + kSmallRun, "trace_export");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::ValidateJson(json).ok())
      << obs::ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("yield_"), std::string::npos);
}

TEST(CliTest, MetricsSnapshotParsesAndDiffsAgainstItself) {
  const std::string out = TempPath("metrics.json");
  const CommandResult r = RunYhc(
      std::string("metrics --format json --out ") + out + " " + kSmallRun,
      "metrics_export");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  auto flat = obs::ParseMetricsSnapshot(json);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_NE(flat->count("yh_sched_yields_total{}"), 0u);
  EXPECT_NE(flat->count("yh_sched_tasks_completed_total{}"), 0u);

  // Diff mode: a snapshot against itself is empty and exits 0.
  const CommandResult diff =
      RunYhc(std::string("metrics ") + out + " " + out + " > /dev/null",
             "metrics_diff");
  EXPECT_EQ(diff.exit_code, 0) << diff.stderr_text;
}

TEST(CliTest, MetricsPromFormatHasTypeHeaders) {
  const std::string out = TempPath("metrics.prom");
  const CommandResult r = RunYhc(
      std::string("metrics --format prom --out ") + out + " " + kSmallRun,
      "metrics_prom");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("# TYPE yh_sched_yields_total counter"),
            std::string::npos);
}

// --- cycle attribution (`yhc profile --folded|--top|--json`) -----------------

TEST(CliTest, ProfileUnknownFlagExitsTwoWithNamedError) {
  const CommandResult r =
      RunYhc("profile --json --bogus 1 > /dev/null", "profile_bad_flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("yhc profile: unknown flag '--bogus'"),
            std::string::npos);
}

TEST(CliTest, ProfileBadTopCountExitsTwo) {
  const CommandResult r = RunYhc("profile --top=0", "profile_bad_top");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --top"), std::string::npos);
}

TEST(CliTest, ProfileConflictingModesExitTwo) {
  const CommandResult r =
      RunYhc("profile --folded --json", "profile_two_modes");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("usage: yhc profile"), std::string::npos);
}

TEST(CliTest, ProfileJsonExportIsValid) {
  const std::string out = TempPath("profile.json");
  const CommandResult r = RunYhc(
      std::string("profile --json --out ") + out + " " + kSmallRun,
      "profile_json");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::ValidateJson(json).ok())
      << obs::ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"classified_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_hidden\""), std::string::npos);
  EXPECT_NE(r.stderr_text.find("cycles classified"), std::string::npos);
}

// --- sharded serving (`yhc serve`) -------------------------------------------

TEST(CliTest, ServeBadShardsExitsTwo) {
  const CommandResult r = RunYhc("serve --shards 0", "serve_bad_shards");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --shards"), std::string::npos);
}

TEST(CliTest, ServeNegativeShardsExitsTwo) {
  const CommandResult r = RunYhc("serve --shards=-2", "serve_neg_shards");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --shards"), std::string::npos);
}

TEST(CliTest, ServeBadGuardWindowExitsTwo) {
  const CommandResult r =
      RunYhc("serve --guard 1 --guard-window 0", "serve_bad_guard_window");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --guard-window"), std::string::npos);
}

TEST(CliTest, ServeBadGuardRatioExitsTwoWithNamedError) {
  const CommandResult r =
      RunYhc(std::string("serve --guard 1 --guard-ratio 0.5 ") + kSmallRun,
             "serve_bad_guard_ratio");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("regression_ratio"), std::string::npos);
}

TEST(CliTest, ServeUnknownFaultClassExitsTwo) {
  const CommandResult r = RunYhc(
      std::string("serve --fault bogus:1.0 ") + kSmallRun, "serve_bad_fault");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("unknown fault class 'bogus'"),
            std::string::npos);
}

TEST(CliTest, ServeRejectsPipelineFaultClasses) {
  // The sample-stream classes belong to `yhc chaos`; serve takes only the
  // serving-layer classes.
  const CommandResult r =
      RunYhc(std::string("serve --fault ip_alias:0.5 ") + kSmallRun,
             "serve_pipeline_fault");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("not a serving-layer fault"),
            std::string::npos);
}

TEST(CliTest, ServeGuardedRunReportsGuardActivityAndExitsZero) {
  const std::string out = TempPath("serve_guarded.out");
  const CommandResult r = RunYhc(
      std::string("serve --shards 2 --guard 1 --tasks 16 --epoch 4 "
                  "--nodes 16384 --steps 200 > ") + out,
      "serve_guarded");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string text = ReadFile(out);
  // The decision audit trail and the summary's guard counters both surface.
  EXPECT_NE(text.find("canary_begin"), std::string::npos);
  EXPECT_NE(text.find("promote"), std::string::npos);
  EXPECT_NE(text.find("guard: canaries="), std::string::npos);
  EXPECT_NE(text.find("results correct"), std::string::npos);
}

TEST(CliTest, ServeUnknownFlagExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("serve --frobnicate 3", "serve_bad_flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("yhc serve: unknown flag '--frobnicate'"),
            std::string::npos);
}

TEST(CliTest, ServeTwoShardsReportsStaggerAndExitsZero) {
  const std::string out = TempPath("serve.out");
  const CommandResult r = RunYhc(
      std::string("serve --shards 2 ") + kSmallRun + " > " + out, "serve_run");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("shards=2"), std::string::npos);
  EXPECT_NE(text.find("stagger ok"), std::string::npos);
  EXPECT_NE(text.find("results correct"), std::string::npos);
}

// --- open-loop serving (serve --arrival ...) ---------------------------------

TEST(CliTest, ServeOpenLoopBadArrivalExitsTwoWithNamedError) {
  const CommandResult r =
      RunYhc("serve --arrival bogus", "serve_bad_arrival");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --arrival (want poisson|burst)"),
            std::string::npos);
}

TEST(CliTest, ServeOpenLoopBadRateExitsTwoWithNamedError) {
  const CommandResult r =
      RunYhc("serve --arrival poisson --rate -1", "serve_bad_rate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --rate (want > 0)"), std::string::npos);
}

TEST(CliTest, ServeOpenLoopBadDurationExitsTwo) {
  const CommandResult r =
      RunYhc("serve --arrival poisson --duration nope", "serve_bad_duration");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --duration"), std::string::npos);
}

TEST(CliTest, ServeOpenLoopRunReportsLedgerAndExitsZero) {
  const std::string out = TempPath("serve_open_loop.out");
  const CommandResult r = RunYhc(
      std::string("serve --arrival poisson --rate 0.05 --duration 300000 "
                  "--nodes 4096 --steps 120 > ") + out,
      "serve_open_loop");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("arrival=poisson"), std::string::npos);
  EXPECT_NE(text.find("ledger"), std::string::npos);
  EXPECT_NE(text.find("conservation ok"), std::string::npos);
}

// --- request spans (`yhc spans`) and SLO monitoring (`yhc slo`) --------------

// Small open-loop scenario shared by the spans/slo runs to keep tests quick.
constexpr char kSpanRun[] =
    "--nodes 4096 --steps 120 --rate 0.05 --duration 300000";

TEST(CliTest, SpansWithoutModeExitsTwoWithUsage) {
  const CommandResult r = RunYhc("spans", "spans_no_mode");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("usage: yhc spans"), std::string::npos);
}

TEST(CliTest, SpansConflictingModesExitTwo) {
  const CommandResult r = RunYhc("spans --top --json", "spans_two_modes");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("usage: yhc spans"), std::string::npos);
}

TEST(CliTest, SpansUnknownFlagExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("spans --json --bogus 1", "spans_bad_flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("yhc spans: unknown flag '--bogus'"),
            std::string::npos);
}

TEST(CliTest, SpansTopTableReportsExactClosure) {
  const std::string out = TempPath("spans.top");
  const CommandResult r = RunYhc(
      std::string("spans --top=5 --out ") + out + " " + kSpanRun, "spans_top");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  // The scenario verifies the exact-sum invariant before exporting.
  EXPECT_NE(r.stderr_text.find("exact to the cycle"), std::string::npos);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("completed requests"), std::string::npos);
  EXPECT_NE(text.find("dominant"), std::string::npos);
}

TEST(CliTest, SpansJsonExportIsValid) {
  const std::string out = TempPath("spans.json");
  const CommandResult r = RunYhc(
      std::string("spans --json --out ") + out + " " + kSpanRun, "spans_json");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::ValidateJson(json).ok())
      << obs::ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"classes\""), std::string::npos);
}

TEST(CliTest, SpansPerfettoExportIsValidChromeJson) {
  const std::string out = TempPath("spans.perfetto.json");
  const CommandResult r =
      RunYhc(std::string("spans --perfetto --out ") + out + " " + kSpanRun,
             "spans_perfetto");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::ValidateJson(json).ok())
      << obs::ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("yieldhide spans"), std::string::npos);
}

TEST(CliTest, SloBadObjectiveExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("slo --objective 1.5", "slo_bad_objective");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad --objective (want 0..1)"),
            std::string::npos);
}

TEST(CliTest, SloInconsistentWindowsExitTwoWithNamedError) {
  // Validate() rejects a slow window shorter than the fast window.
  const CommandResult r = RunYhc(
      "slo --window 1000 --fast-window 2000 --bucket 500", "slo_bad_windows");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("slow_window_cycles"), std::string::npos);
}

TEST(CliTest, SloRunReportsBurnRatesPerShard) {
  const std::string out = TempPath("slo.out");
  const CommandResult r = RunYhc(
      std::string("slo --shards 2 --budget 200000 --out ") + out + " " +
          kSpanRun,
      "slo_run");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("objective"), std::string::npos);
  EXPECT_NE(text.find("shard 0:"), std::string::npos);
  EXPECT_NE(text.find("shard 1:"), std::string::npos);
  EXPECT_NE(text.find("burn fast="), std::string::npos);
}

TEST(CliTest, SloJsonExportIsValid) {
  const std::string out = TempPath("slo.json");
  const CommandResult r = RunYhc(
      std::string("slo --json --budget 200000 --out ") + out + " " + kSpanRun,
      "slo_json");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::ValidateJson(json).ok())
      << obs::ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_cycles\": 200000"), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn\""), std::string::npos);
}

// --- multi-tenant serving (serve --tenant ...) -------------------------------

TEST(CliTest, ServeTenantMalformedSpecExitsTwoWithNamedError) {
  const CommandResult r = RunYhc(
      "serve --arrival poisson --tenant justname", "tenant_malformed");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("wants name:class:share[:budget]"),
            std::string::npos);
}

TEST(CliTest, ServeTenantBadClassExitsTwoWithNamedError) {
  const CommandResult r =
      RunYhc("serve --arrival poisson --tenant a:xx:0.5", "tenant_bad_class");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("class 'xx' wants fg|bg"), std::string::npos);
}

TEST(CliTest, ServeDuplicateTenantNamesExitTwoWithNamedError) {
  const CommandResult r = RunYhc(
      "serve --arrival poisson --tenant a:fg:0.5 --tenant a:bg:0.4",
      "tenant_dup");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("duplicate tenant name 'a'"),
            std::string::npos);
}

TEST(CliTest, ServeTenantSharesOverOneExitTwoWithNamedError) {
  const CommandResult r = RunYhc(
      "serve --arrival poisson --tenant a:fg:0.9 --tenant b:bg:0.9",
      "tenant_shares");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("shares sum past 1.0"), std::string::npos);
}

TEST(CliTest, ServeMultiTenantRunReportsPerTenantLedgers) {
  const std::string out = TempPath("serve_tenants.out");
  const CommandResult r = RunYhc(
      std::string("serve --arrival poisson --tenant victim:fg:0.6:200000 "
                  "--tenant antagonist:bg:0.4 --tenant-drift 0.3 "
                  "--severity 0.8 ") + kSpanRun + " > " + out,
      "serve_tenants");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("tenant=victim class=fg"), std::string::npos);
  EXPECT_NE(text.find("tenant=antagonist class=bg"), std::string::npos);
  EXPECT_NE(text.find("conservation ok"), std::string::npos);
}

// --- tail diagnosis (`yhc why`) ----------------------------------------------

TEST(CliTest, WhyWindowAndGenerationAreMutuallyExclusive) {
  const CommandResult r =
      RunYhc("why --window 0-1,2-3 --generation 0,1", "why_both_modes");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(
                "yhc why: --window and --generation are mutually exclusive"),
            std::string::npos);
}

TEST(CliTest, WhySingleWindowExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("why --window 0-3", "why_one_window");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("--window expects two epoch windows "
                               "'LO-HI,LO-HI', got '0-3'"),
            std::string::npos);
}

TEST(CliTest, WhyReversedEpochRangeExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("why --window 5-2,6-7", "why_reversed");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("reversed epoch range '5-2'"),
            std::string::npos);
}

TEST(CliTest, WhyMalformedEpochRangeExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("why --window 0-x,2-3", "why_malformed");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("bad epoch range '0-x' (expected N or LO-HI)"),
            std::string::npos);
}

TEST(CliTest, WhyBadGenerationSpecExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("why --generation 1", "why_one_generation");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(
                "--generation expects two generation ids 'G1,G2', got '1'"),
            std::string::npos);
}

TEST(CliTest, WhyUnknownFlagExitsTwoWithNamedError) {
  const CommandResult r = RunYhc("why --bogus 1", "why_bad_flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("yhc why: unknown flag '--bogus'"),
            std::string::npos);
}

TEST(CliTest, WhyUnknownGenerationNamesTheServedOnes) {
  // The static generation-id check happens after the run, because the set of
  // served generations IS a run artifact; a bogus id must name the real ones.
  const CommandResult r = RunYhc(
      std::string("why --generation 0,9 ") + kSpanRun, "why_unknown_gen");
  EXPECT_EQ(r.exit_code, 2) << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("unknown generation 9 (run served generations"),
            std::string::npos)
      << r.stderr_text;
}

TEST(CliTest, WhyOutOfRangeWindowExitsTwoWithNamedError) {
  const CommandResult r = RunYhc(
      std::string("why --window 0-1,900-901 ") + kSpanRun, "why_oob_window");
  EXPECT_EQ(r.exit_code, 2) << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("epoch 900 out of range"), std::string::npos)
      << r.stderr_text;
}

TEST(CliTest, WhyJsonDiagnosisIsValidAndCarriesTheCause) {
  const std::string out = TempPath("why.json");
  const CommandResult r = RunYhc(
      std::string("why --json --out ") + out + " " + kSpanRun, "why_json");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(obs::ValidateJson(json).ok())
      << obs::ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"cause\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"cycle_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"span_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"control_events\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
}

TEST(CliTest, HelpListsSpansAndSloTopics) {
  const std::string out = TempPath("help.out");
  const CommandResult r = RunYhc(std::string("help > ") + out, "help_spans");
  EXPECT_EQ(r.exit_code, 0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("spans --top[=N]|--json|--perfetto"), std::string::npos);
  EXPECT_NE(text.find("slo"), std::string::npos);
}

TEST(CliTest, ProfileFoldedStacksAreWellFormed) {
  const std::string out = TempPath("profile.folded");
  const CommandResult r = RunYhc(
      std::string("profile --folded --out ") + out + " " + kSmallRun,
      "profile_folded");
  ASSERT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string folded = ReadFile(out);
  ASSERT_FALSE(folded.empty());
  // Every non-empty line is a semicolon-joined stack plus a count.
  std::istringstream lines(folded);
  std::string line;
  size_t checked = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) {
      continue;
    }
    ++checked;
    EXPECT_EQ(line.rfind("all;", 0), 0u) << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find_first_not_of("0123456789", space + 1),
              std::string::npos)
        << line;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_NE(folded.find("issue_useful"), std::string::npos);
}

}  // namespace
}  // namespace yieldhide
