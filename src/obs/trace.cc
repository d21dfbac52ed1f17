#include "src/obs/trace.h"

#include "src/common/strings.h"

namespace yieldhide::obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case kTraceSched:
      return "sched";
    case kTraceYield:
      return "yield";
    case kTraceScavenger:
      return "scavenger";
    case kTraceQuarantine:
      return "quarantine";
    case kTraceDrift:
      return "drift";
    case kTraceSwap:
      return "swap";
    case kTracePmu:
      return "pmu";
    case kTraceGuard:
      return "guard";
    case kTraceServe:
      return "serve";
    case kTraceSpan:
      return "span";
    case kTraceSlo:
      return "slo";
    default:
      return "multi";
  }
}

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCoroSwitch:
      return "coro_switch";
    case TraceEventType::kYieldHidden:
      return "yield_hidden";
    case TraceEventType::kYieldBlown:
      return "yield_blown";
    case TraceEventType::kScavengerSpawn:
      return "scavenger_spawn";
    case TraceEventType::kScavengerRetire:
      return "scavenger_retire";
    case TraceEventType::kQuarantineEnter:
      return "quarantine_enter";
    case TraceEventType::kQuarantineExit:
      return "quarantine_exit";
    case TraceEventType::kDriftUpdate:
      return "drift_update";
    case TraceEventType::kSwapBegin:
      return "swap_begin";
    case TraceEventType::kSwapCommit:
      return "swap_commit";
    case TraceEventType::kPmuSample:
      return "pmu_sample";
    case TraceEventType::kCanaryBegin:
      return "canary_begin";
    case TraceEventType::kCanaryPromote:
      return "canary_promote";
    case TraceEventType::kCanaryRollback:
      return "canary_rollback";
    case TraceEventType::kRebuildRetry:
      return "rebuild_retry";
    case TraceEventType::kWatchdogFire:
      return "watchdog_fire";
    case TraceEventType::kStoreFallback:
      return "store_fallback";
    case TraceEventType::kRequestAdmit:
      return "request_admit";
    case TraceEventType::kRequestShed:
      return "request_shed";
    case TraceEventType::kRequestDispatch:
      return "request_dispatch";
    case TraceEventType::kRequestComplete:
      return "request_complete";
    case TraceEventType::kRequestRequeue:
      return "request_requeue";
    case TraceEventType::kSpanBegin:
      return "span_begin";
    case TraceEventType::kSpanEnd:
      return "span_end";
    case TraceEventType::kSloAlertFire:
      return "slo_alert_fire";
    case TraceEventType::kSloAlertClear:
      return "slo_alert_clear";
    case TraceEventType::kTenantQuarantine:
      return "tenant_quarantine";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(const TraceConfig& config)
    : config_(config), mask_(config.mask) {
  ring_.resize(RoundUpPow2(config.capacity == 0 ? 1 : config.capacity));
}

void TraceRecorder::Record(TraceEventType type, uint64_t cycle, int32_t ctx_id,
                           uint64_t ip, uint64_t arg) {
  TraceEvent& slot = ring_[recorded_ & (ring_.size() - 1)];
  slot.cycle = cycle;
  slot.ip = ip;
  slot.arg = arg;
  slot.ctx_id = ctx_id;
  slot.type = type;
  ++recorded_;
  if (sink_ && recorded_ - drained_ >= flush_threshold_) {
    DrainToSink();
  }
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  uint64_t n = recorded_ < ring_.size() ? recorded_ : ring_.size();
  if (sink_) {
    // Only the undrained tail: the sink already owns everything before
    // drained_, and re-exporting it would duplicate the stream.
    const uint64_t undrained = recorded_ - drained_;
    n = undrained < n ? undrained : n;
  }
  out.reserve(n);
  const uint64_t first = recorded_ - n;
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) & (ring_.size() - 1)]);
  }
  return out;
}

void TraceRecorder::SetSink(TraceSink sink, size_t flush_threshold) {
  sink_ = std::move(sink);
  if (flush_threshold == 0) {
    flush_threshold = ring_.size() / 2;
  }
  if (flush_threshold > ring_.size()) {
    flush_threshold = ring_.size();
  }
  flush_threshold_ = flush_threshold == 0 ? 1 : flush_threshold;
  if (!sink_) {
    drained_ = 0;
  }
}

uint64_t TraceRecorder::DrainToSink() {
  if (!sink_) {
    return 0;
  }
  // Anything older than one ring's worth was overwritten before this drain
  // could run (only possible with a threshold forced above the half-full
  // default while recording races ahead); skip the lost range rather than
  // replay stale slots.
  uint64_t first = drained_;
  if (recorded_ - first > ring_.size()) {
    first = recorded_ - ring_.size();
  }
  const uint64_t delivered = recorded_ - first;
  for (uint64_t i = first; i < recorded_; ++i) {
    sink_(ring_[i & (ring_.size() - 1)]);
  }
  drained_ = recorded_;
  return delivered;
}

uint64_t TraceRecorder::TakeUnchargedOverheadCycles() {
  const uint64_t delta = (recorded_ - charged_) * kTraceRecordCostCycles;
  charged_ = recorded_;
  return delta;
}

ChromeTraceWriter::ChromeTraceWriter(const char* process_name,
                                     double cycles_per_ns)
    : out_("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"),
      cycles_per_us_((cycles_per_ns > 0.0 ? cycles_per_ns : 1.0) * 1000.0) {
  // Process naming metadata so viewers label the tracks.
  Emit(StrFormat("{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
                 "\"args\": {\"name\": \"%s\"}}",
                 process_name));
}

void ChromeTraceWriter::Emit(const std::string& event) {
  if (!first_) {
    out_ += ",\n";
  }
  first_ = false;
  out_ += "  " + event;
}

std::string ChromeTraceWriter::Finish(const std::string& other_data) {
  return out_ + "\n], \"otherData\": {" + other_data + "}}\n";
}

GuardTrack::GuardTrack(ChromeTraceWriter* writer) : writer_(writer) {
  writer_->Emit(StrFormat("{\"ph\": \"M\", \"pid\": 0, \"tid\": %d, "
                          "\"name\": \"thread_name\", "
                          "\"args\": {\"name\": \"control-plane\"}}",
                          kTid));
}

void GuardTrack::Observe(const TraceEvent& event) {
  const char* verdict = nullptr;
  switch (event.type) {
    case TraceEventType::kCanaryBegin:
      open_ = true;
      begin_ = event.cycle;
      generation_ = event.arg;
      return;
    case TraceEventType::kCanaryPromote:
      verdict = "promote";
      break;
    case TraceEventType::kCanaryRollback:
      verdict = "rollback";
      break;
    default:
      return;
  }
  if (!open_) {
    return;
  }
  open_ = false;
  writer_->Emit(StrFormat(
      "{\"ph\": \"X\", \"name\": \"canary gen %llu (%s)\", "
      "\"cat\": \"guard\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, "
      "\"tid\": %d, \"args\": {\"generation\": %llu, \"verdict\": \"%s\"}}",
      static_cast<unsigned long long>(generation_), verdict,
      writer_->Us(begin_), writer_->Us(event.cycle - begin_), kTid,
      static_cast<unsigned long long>(generation_), verdict));
}

int32_t TrackIdFor(uint64_t request_id) {
  return static_cast<int32_t>((request_id ^ (request_id >> 32)) & 0x7fffffff);
}

std::string ToChromeTraceJson(const TraceRecorder& recorder,
                              double cycles_per_ns) {
  ChromeTraceWriter writer("yieldhide", cycles_per_ns);
  GuardTrack guard(&writer);
  for (const TraceEvent& event : recorder.Events()) {
    guard.Observe(event);
    const double ts = writer.Us(event.cycle);
    const char* name = TraceEventTypeName(event.type);
    const char* cat = TraceCategoryName(TraceEventCategory(event.type));
    switch (event.type) {
      case TraceEventType::kCoroSwitch:
      case TraceEventType::kYieldHidden:
      case TraceEventType::kYieldBlown:
        // Complete slice: the switch cost is the duration.
        writer.Emit(StrFormat(
            "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"site\": %llu, \"cycle\": %llu}}",
            name, cat, ts, writer.Us(event.arg), event.ctx_id,
            static_cast<unsigned long long>(event.ip),
            static_cast<unsigned long long>(event.cycle)));
        break;
      case TraceEventType::kDriftUpdate:
        // Counter track: drift score over time.
        writer.Emit(StrFormat("{\"ph\": \"C\", \"name\": \"drift_score\", "
                              "\"cat\": \"%s\", \"ts\": %.3f, \"pid\": 0, "
                              "\"args\": {\"score\": %.6f}}",
                              cat, ts, static_cast<double>(event.arg) / 1e6));
        break;
      default:
        writer.Emit(StrFormat("{\"ph\": \"i\", \"s\": \"t\", \"name\": \"%s\", "
                              "\"cat\": \"%s\", \"ts\": %.3f, \"pid\": 0, "
                              "\"tid\": %d, "
                              "\"args\": {\"site\": %llu, \"arg\": %llu, "
                              "\"cycle\": %llu}}",
                              name, cat, ts, event.ctx_id,
                              static_cast<unsigned long long>(event.ip),
                              static_cast<unsigned long long>(event.arg),
                              static_cast<unsigned long long>(event.cycle)));
        break;
    }
  }
  return writer.Finish(
      StrFormat("\"recorded\": %llu, \"overwritten\": %llu",
                static_cast<unsigned long long>(recorder.recorded()),
                static_cast<unsigned long long>(recorder.overwritten())));
}

}  // namespace yieldhide::obs
