#include "src/serve/front_end.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace yieldhide::serve {

namespace {
// Idle-donation chunk when no future arrival bounds the scavenger drain.
constexpr uint64_t kDrainChunkCycles = 1u << 16;
}  // namespace

Status FrontEndConfig::Validate() const {
  YH_RETURN_IF_ERROR(arrival.Validate());
  if (queue_capacity == 0) {
    return InvalidArgumentError("serve queue capacity must be positive");
  }
  if (!tenants.empty()) {
    YH_RETURN_IF_ERROR(ValidateTenantSet(tenants));
  }
  return Status::Ok();
}

bool FrontEndReport::TenantLedgersConsistent() const {
  FrontEndCounters sum;
  for (const TenantLedger& ledger : tenants) {
    const FrontEndCounters& c = ledger.counters;
    if (c.offered != c.admitted + c.shed ||
        c.admitted != c.completed + c.in_flight ||
        c.completed != c.completed_primary + c.completed_scavenger) {
      return false;
    }
    sum.offered += c.offered;
    sum.admitted += c.admitted;
    sum.shed += c.shed;
    sum.completed += c.completed;
    sum.completed_primary += c.completed_primary;
    sum.completed_scavenger += c.completed_scavenger;
    sum.requeued += c.requeued;
    sum.in_flight += c.in_flight;
  }
  return sum.offered == counters.offered && sum.admitted == counters.admitted &&
         sum.shed == counters.shed && sum.completed == counters.completed &&
         sum.completed_primary == counters.completed_primary &&
         sum.completed_scavenger == counters.completed_scavenger &&
         sum.requeued == counters.requeued &&
         sum.in_flight == counters.in_flight;
}

std::string FrontEndReport::Summary() const {
  std::ostringstream out;
  out << "offered=" << counters.offered << " admitted=" << counters.admitted
      << " shed=" << counters.shed << " completed=" << counters.completed
      << " (primary=" << counters.completed_primary
      << " scavenger=" << counters.completed_scavenger
      << ") requeued=" << counters.requeued
      << " in_flight=" << counters.in_flight;
  if (latency.count() > 0) {
    out << " latency_p50=" << latency.P50()
        << " p99=" << latency.P99()
        << " p999=" << latency.ValueAtQuantile(0.999);
  }
  if (tenants.size() > 1) {
    for (const TenantLedger& ledger : tenants) {
      out << "\n  tenant=" << ledger.spec.name << " class="
          << ledger.spec.ClassName() << " offered=" << ledger.counters.offered
          << " admitted=" << ledger.counters.admitted
          << " shed=" << ledger.counters.shed
          << " completed=" << ledger.counters.completed
          << " requeued=" << ledger.counters.requeued
          << " in_flight=" << ledger.counters.in_flight;
      if (ledger.latency.count() > 0) {
        out << " p99=" << ledger.latency.P99();
        if (ledger.spec.p99_budget_cycles > 0) {
          out << "/" << ledger.spec.p99_budget_cycles
              << (ledger.latency.P99() <= ledger.spec.p99_budget_cycles
                      ? " (within budget)"
                      : " (OVER budget)");
        }
      }
    }
  }
  return out.str();
}

ShardFrontEnd::ShardFrontEnd(const FrontEndConfig& config, Handler handler,
                             obs::TraceRecorder* trace,
                             obs::MetricsRegistry* metrics, obs::Labels labels)
    : config_(config),
      handler_(std::move(handler)),
      ingress_(StagePipeline::DefaultIngress()),
      egress_(StagePipeline::DefaultEgress()),
      trace_(trace),
      metrics_(metrics),
      labels_(std::move(labels)) {
  specs_ = config_.tenants.empty() ? DefaultTenantSet() : config_.tenants;
  multi_tenant_ = specs_.size() > 1;
  tenants_.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    const TenantSpec& spec = specs_[i];
    ArrivalConfig arrival = config_.arrival;
    arrival.rate_per_kcycle *= spec.share;
    // Tenant 0 keeps the configured seed unchanged, so the implicit
    // single-tenant set reproduces the tenant-blind arrival stream bit for
    // bit; later tenants get disjoint deterministic streams.
    arrival.seed = config_.arrival.seed + i * 0x9E3779B97F4A7C15ull;
    TenantState state(spec, arrival);
    state.next_arrival = state.arrivals.Next();
    state.queue_capacity =
        multi_tenant_
            ? std::max<size_t>(
                  1, static_cast<size_t>(spec.share *
                                         static_cast<double>(
                                             config_.queue_capacity)))
            : config_.queue_capacity;
    state.labels = multi_tenant_
                       ? obs::LabelSet(labels_).Tenant(spec.name).Build()
                       : labels_;
    tenants_.push_back(std::move(state));
  }
}

void ShardFrontEnd::SetTenantHandler(size_t tenant, Handler handler) {
  if (tenant < tenants_.size()) {
    tenants_[tenant].handler = std::move(handler);
  }
}

void ShardFrontEnd::SetTenantSloEvaluator(size_t tenant,
                                          obs::SloEvaluator* slo) {
  if (tenant < tenants_.size()) {
    tenants_[tenant].slo = slo;
  }
}

const ShardFrontEnd::Handler& ShardFrontEnd::HandlerFor(size_t tenant) const {
  if (tenant < tenants_.size() && tenants_[tenant].handler) {
    return tenants_[tenant].handler;
  }
  return handler_;
}

std::optional<uint64_t> ShardFrontEnd::NextArrival() const {
  std::optional<uint64_t> next;
  for (const TenantState& tenant : tenants_) {
    if (tenant.next_arrival.has_value() &&
        (!next.has_value() || *tenant.next_arrival < *next)) {
      next = tenant.next_arrival;
    }
  }
  return next;
}

int ShardFrontEnd::PickDispatchTenant() const {
  // Foreground class first; within a class the earliest queued head wins,
  // lowest tenant index on ties. With one tenant this is "the queue head".
  // A demoted (quarantined) tenant is skipped while any other tenant still
  // has traffic to offer — its requests ride scavenger slots only — and
  // regains the primary once every other stream has drained, so nothing it
  // was admitted is ever lost.
  bool others_active = false;
  for (const TenantState& tenant : tenants_) {
    if (!tenant.demoted &&
        (!tenant.queue.empty() || tenant.next_arrival.has_value())) {
      others_active = true;
      break;
    }
  }
  int best = -1;
  bool best_background = true;
  uint64_t best_arrival = 0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& tenant = tenants_[i];
    if (tenant.queue.empty() || (tenant.demoted && others_active)) {
      continue;
    }
    const bool background = tenant.spec.background();
    const uint64_t arrival = tenant.queue.front().arrival_cycle;
    if (best < 0 || std::tie(background, arrival) <
                        std::tie(best_background, best_arrival)) {
      best = static_cast<int>(i);
      best_background = background;
      best_arrival = arrival;
    }
  }
  return best;
}

int ShardFrontEnd::PickScavengeTenant() const {
  // The mirror of PickDispatchTenant: BACKGROUND queues feed the scavenger
  // pool first — background tenants are the scavengers that soak foreground
  // stall windows — then foreground requests behind the head ride along.
  int best = -1;
  bool best_foreground = true;
  uint64_t best_arrival = 0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& tenant = tenants_[i];
    if (tenant.queue.empty()) {
      continue;
    }
    const bool foreground = !tenant.spec.background();
    const uint64_t arrival = tenant.queue.front().arrival_cycle;
    if (best < 0 || std::tie(foreground, arrival) <
                        std::tie(best_foreground, best_arrival)) {
      best = static_cast<int>(i);
      best_foreground = foreground;
      best_arrival = arrival;
    }
  }
  return best;
}

size_t ShardFrontEnd::QueuedTotal() const {
  size_t total = 0;
  for (const TenantState& tenant : tenants_) {
    total += tenant.queue.size();
  }
  return total;
}

void ShardFrontEnd::RecordCompletion(sim::Machine& machine,
                                     const Request& request, bool scavenged) {
  const uint64_t latency = machine.now() - request.arrival_cycle;
  TenantState& tenant = tenants_[request.tenant];
  latency_.Record(latency);
  tenant.latency.Record(latency);
  if (slo_ != nullptr) {
    slo_->Record(machine.now(), latency);
  }
  if (tenant.slo != nullptr) {
    tenant.slo->Record(machine.now(), latency);
  }
  ++counters_.completed;
  ++tenant.counters.completed;
  if (scavenged) {
    ++counters_.completed_scavenger;
    ++tenant.counters.completed_scavenger;
  } else {
    ++counters_.completed_primary;
    ++tenant.counters.completed_primary;
  }
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("yh_serve_latency_cycles", labels_)
        ->Record(latency);
    if (multi_tenant_) {
      metrics_->GetHistogram("yh_serve_latency_cycles", tenant.labels)
          ->Record(latency);
    }
  }
  if (YH_TRACE_ENABLED(trace_, obs::kTraceServe)) {
    trace_->Record(obs::TraceEventType::kRequestComplete, machine.now(),
                   scavenged ? 1 : 0, latency, request.id);
  }
}

void ShardFrontEnd::Harvest(sim::Machine& machine,
                            const runtime::DualModeScheduler& scheduler) {
  // Primary completions are FIFO against dispatch order (one task in flight
  // at a time); merge them with halted scavenger requests by finish cycle so
  // responds serialize on the core in the order the work actually finished.
  struct Done {
    uint64_t finish = 0;
    Request request;
    bool scavenged = false;
  };
  std::vector<Done> done;
  const auto& completions = scheduler.progress().run.completions;
  while (completions_consumed_ < completions.size() &&
         !dispatched_primary_.empty()) {
    const runtime::CompletionRecord& record =
        completions[completions_consumed_++];
    done.push_back(Done{record.end_cycle, dispatched_primary_.front(), false});
    dispatched_primary_.pop_front();
    // Close this request's primary episode (the drift-attribution timeline):
    // episodes_ is pushed in dispatch order, so the next unstamped episode is
    // exactly this completion's.
    if (episodes_matched_ < episodes_.size()) {
      episodes_[episodes_matched_++].end = record.end_cycle;
    }
  }
  for (const auto& [request, halt_cycle] : scav_done_) {
    done.push_back(Done{halt_cycle, request, true});
  }
  scav_done_.clear();
  std::sort(done.begin(), done.end(), [](const Done& a, const Done& b) {
    return std::tie(a.finish, a.request.id) < std::tie(b.finish, b.request.id);
  });
  for (const Done& item : done) {
    const uint64_t egress_begin = machine.now();
    egress_.Charge(machine);
    if (spans_ != nullptr) {
      spans_->OnHarvest(item.request.id, egress_begin, machine.now());
    }
    RecordCompletion(machine, item.request, item.scavenged);
  }
}

void ShardFrontEnd::AdmitDue(sim::Machine& machine) {
  // High bits namespace the id by shard seed; low 32 bits stay the dense
  // per-shard sequence (handlers may truncate the id to index a workload).
  const uint64_t id_namespace = (config_.id_seed & 0x3FFFFFFFull) << 32;
  while (true) {
    // The earliest due arrival across tenant streams (lowest tenant index on
    // exact-cycle ties) admits next, so the interleaved admission order is
    // the merged arrival order.
    int idx = -1;
    uint64_t due = 0;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const TenantState& tenant = tenants_[i];
      if (tenant.next_arrival.has_value() &&
          *tenant.next_arrival <= machine.now() &&
          (idx < 0 || *tenant.next_arrival < due)) {
        idx = static_cast<int>(i);
        due = *tenant.next_arrival;
      }
    }
    if (idx < 0) {
      return;
    }
    TenantState& tenant = tenants_[idx];
    Request request{id_namespace | next_id_++, *tenant.next_arrival,
                    static_cast<size_t>(idx)};
    ++counters_.offered;
    ++tenant.counters.offered;
    if (tenant.queue.size() >= tenant.queue_capacity) {
      ++counters_.shed;
      ++tenant.counters.shed;
      if (YH_TRACE_ENABLED(trace_, obs::kTraceServe)) {
        trace_->Record(obs::TraceEventType::kRequestShed, machine.now(), 0, 0,
                       request.id);
      }
    } else {
      // The event loop reads and parses the connection before queuing it.
      const uint64_t ingress_begin = machine.now();
      ingress_.Charge(machine);
      ++counters_.admitted;
      ++tenant.counters.admitted;
      tenant.queue.push_back(request);
      if (spans_ != nullptr) {
        spans_->OnAdmit(request.id, request.arrival_cycle, ingress_begin,
                        machine.now(),
                        multi_tenant_ ? tenant.spec.name : std::string());
      }
      if (YH_TRACE_ENABLED(trace_, obs::kTraceServe)) {
        trace_->Record(obs::TraceEventType::kRequestAdmit, machine.now(), 0, 0,
                       request.id);
      }
    }
    tenant.next_arrival = tenant.arrivals.Next();
  }
}

bool ShardFrontEnd::Poll(sim::Machine& machine,
                         runtime::DualModeScheduler& scheduler) {
  if (!status_.ok()) {
    return false;
  }
  Harvest(machine, scheduler);
  AdmitDue(machine);
  // Poll boundary: every evaluator's bookkeeping goes on the clock AFTER the
  // just-harvested latencies were measured — watching never flatters the
  // numbers it watches.
  uint64_t slo_cost = 0;
  if (slo_ != nullptr) {
    slo_cost += slo_->TakeUnchargedOverheadCycles();
  }
  for (TenantState& tenant : tenants_) {
    if (tenant.slo != nullptr) {
      slo_cost += tenant.slo->TakeUnchargedOverheadCycles();
    }
  }
  if (slo_cost > 0) {
    machine.AdvanceClock(slo_cost);
  }
  while (true) {
    const int dispatch = PickDispatchTenant();
    if (dispatch >= 0) {
      // Dispatch exactly one head request; the next task boundary polls
      // again, so admissions track completions at request granularity.
      TenantState& tenant = tenants_[dispatch];
      Request request = tenant.queue.front();
      tenant.queue.pop_front();
      dispatched_primary_.push_back(request);
      episodes_.push_back(PrimaryEpisode{machine.now(), 0, request.tenant});
      if (spans_ != nullptr) {
        spans_->OnDispatchPrimary(request.id, machine.now());
      }
      if (YH_TRACE_ENABLED(trace_, obs::kTraceServe)) {
        trace_->Record(obs::TraceEventType::kRequestDispatch, machine.now(),
                       -1, 0, request.id);
      }
      scheduler.AddPrimaryTask(HandlerFor(request.tenant)(request.id));
      PublishMetrics();
      return true;
    }
    if (!scavenger_held_.empty()) {
      // Idle event loop: donate cycles to in-flight scavenger requests until
      // the next arrival is due (or in bounded chunks past the horizon).
      const std::optional<uint64_t> next = NextArrival();
      uint64_t budget = kDrainChunkCycles;
      if (next.has_value() && *next > machine.now()) {
        budget = *next - machine.now();
      }
      Result<uint64_t> drained = scheduler.DrainScavengers(budget);
      if (!drained.ok()) {
        status_ = drained.status();
        return false;
      }
      Harvest(machine, scheduler);
      AdmitDue(machine);
      if (drained.value() == 0 && PickDispatchTenant() < 0 &&
          !scavenger_held_.empty()) {
        // No scavenger progress possible (e.g. the pool was cleared under
        // us): don't spin — skip ahead if arrivals remain, otherwise stop
        // with the stuck requests reported as in-flight.
        const std::optional<uint64_t> upcoming = NextArrival();
        if (!upcoming.has_value()) {
          PublishMetrics();
          return false;
        }
        machine.AdvanceClockTo(*upcoming);
        AdmitDue(machine);
      }
      continue;
    }
    const std::optional<uint64_t> upcoming = NextArrival();
    if (upcoming.has_value()) {
      // Nothing runnable: skip the idle gap to the next arrival.
      machine.AdvanceClockTo(*upcoming);
      AdmitDue(machine);
      continue;
    }
    PublishMetrics();
    return false;  // exhausted: no queue, nothing in flight, no arrivals
  }
}

void ShardFrontEnd::OnScavengerSpawn(int ctx_id, uint64_t now) {
  if (!staged_.has_value()) {
    return;  // someone else's factory fed this slot
  }
  scavenger_held_[ctx_id] = *staged_;
  if (spans_ != nullptr) {
    spans_->OnScavengerBind(ctx_id, staged_->id, now);
  }
  if (YH_TRACE_ENABLED(trace_, obs::kTraceServe)) {
    trace_->Record(obs::TraceEventType::kRequestDispatch, now, ctx_id, 0,
                   staged_->id);
  }
  staged_.reset();
}

void ShardFrontEnd::OnScavengerRetire(int ctx_id, uint64_t now,
                                      bool completed) {
  auto it = scavenger_held_.find(ctx_id);
  if (it == scavenger_held_.end()) {
    return;
  }
  if (completed) {
    // Respond is charged at the next safe point (Harvest); the halt cycle
    // orders it against other finishers.
    if (spans_ != nullptr) {
      spans_->OnScavengerDone(ctx_id, now);
    }
    scav_done_.emplace_back(it->second, now);
  } else {
    // Killed mid-flight by a swap or rollback: restart at its tenant queue's
    // HEAD — admitted exactly once, completed exactly once, never lost. The
    // head slot (not the tail) keeps its queueing discipline close to
    // arrival order; capacity does not apply, the request was already
    // admitted.
    ++counters_.requeued;
    TenantState& tenant = tenants_[it->second.tenant];
    ++tenant.counters.requeued;
    tenant.queue.push_front(it->second);
    if (spans_ != nullptr) {
      spans_->OnRequeue(ctx_id, now);
    }
    if (YH_TRACE_ENABLED(trace_, obs::kTraceServe)) {
      trace_->Record(obs::TraceEventType::kRequestRequeue, now, ctx_id, 0,
                     it->second.id);
    }
  }
  scavenger_held_.erase(it);
}

runtime::DualModeScheduler::ScavengerFactory
ShardFrontEnd::MakeScavengerFactory() {
  return [this]() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
    if (!config_.scavengers_serve) {
      return std::nullopt;
    }
    const int idx = PickScavengeTenant();
    if (idx < 0) {
      return std::nullopt;
    }
    TenantState& tenant = tenants_[idx];
    staged_ = tenant.queue.front();
    tenant.queue.pop_front();
    // The dispatch trace fires in OnScavengerSpawn, which knows the cycle.
    return HandlerFor(staged_->tenant)(staged_->id);
  };
}

std::vector<adapt::TenantSnapshot> ShardFrontEnd::Tenants() const {
  std::vector<adapt::TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const TenantState& tenant : tenants_) {
    adapt::TenantSnapshot snapshot;
    snapshot.name = tenant.spec.name;
    snapshot.background = tenant.spec.background();
    snapshot.completed = tenant.counters.completed;
    snapshot.p99_latency_cycles =
        tenant.latency.count() > 0 ? tenant.latency.P99() : 0;
    snapshot.p99_budget_cycles = tenant.spec.p99_budget_cycles;
    out.push_back(std::move(snapshot));
  }
  return out;
}

int ShardFrontEnd::TenantAtCycle(uint64_t cycle) const {
  // episodes_ is ordered by start cycle (primary dispatches serialize), so
  // the covering episode, if any, is the last one starting at or before
  // `cycle`. An unstamped end (0) means the request is still on the slot.
  auto it = std::upper_bound(
      episodes_.begin(), episodes_.end(), cycle,
      [](uint64_t c, const PrimaryEpisode& e) { return c < e.start; });
  if (it == episodes_.begin()) {
    return -1;
  }
  --it;
  if (it->end == 0 || cycle <= it->end) {
    return static_cast<int>(it->tenant);
  }
  return -1;
}

void ShardFrontEnd::SetTenantDemoted(const std::string& name, bool demoted) {
  for (TenantState& tenant : tenants_) {
    if (tenant.spec.name == name) {
      tenant.demoted = demoted;
    }
  }
}

void ShardFrontEnd::ForgetTenantTimelineBefore(uint64_t cycle) {
  size_t keep = 0;
  while (keep < episodes_matched_ && episodes_[keep].end < cycle) {
    ++keep;
  }
  if (keep > 0) {
    episodes_.erase(episodes_.begin(),
                    episodes_.begin() + static_cast<std::ptrdiff_t>(keep));
    episodes_matched_ -= keep;
  }
}

FrontEndReport ShardFrontEnd::report() const {
  FrontEndReport report;
  report.counters = counters_;
  report.counters.in_flight =
      QueuedTotal() + dispatched_primary_.size() + scavenger_held_.size() +
      scav_done_.size() + (staged_.has_value() ? 1 : 0);
  report.latency = latency_;
  report.tenants.reserve(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& tenant = tenants_[i];
    TenantLedger ledger;
    ledger.spec = tenant.spec;
    ledger.counters = tenant.counters;
    ledger.latency = tenant.latency;
    uint64_t in_flight = tenant.queue.size();
    for (const Request& request : dispatched_primary_) {
      if (request.tenant == i) {
        ++in_flight;
      }
    }
    for (const auto& [ctx, request] : scavenger_held_) {
      if (request.tenant == i) {
        ++in_flight;
      }
    }
    for (const auto& [request, halt] : scav_done_) {
      if (request.tenant == i) {
        ++in_flight;
      }
    }
    if (staged_.has_value() && staged_->tenant == i) {
      ++in_flight;
    }
    ledger.counters.in_flight = in_flight;
    report.tenants.push_back(std::move(ledger));
  }
  return report;
}

void ShardFrontEnd::PublishMetrics() {
  if (slo_ != nullptr) {
    slo_->PublishMetrics();
  }
  for (TenantState& tenant : tenants_) {
    if (tenant.slo != nullptr) {
      tenant.slo->PublishMetrics();
    }
  }
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->GetCounter("yh_serve_offered_total", labels_)
      ->Set(counters_.offered);
  metrics_->GetCounter("yh_serve_admitted_total", labels_)
      ->Set(counters_.admitted);
  metrics_->GetCounter("yh_serve_shed_total", labels_)->Set(counters_.shed);
  metrics_->GetCounter("yh_serve_completed_total", labels_)
      ->Set(counters_.completed);
  metrics_->GetCounter("yh_serve_requeued_total", labels_)
      ->Set(counters_.requeued);
  metrics_->GetGauge("yh_serve_queue_depth", labels_)
      ->Set(static_cast<double>(QueuedTotal()));
  if (latency_.count() > 0) {
    metrics_->GetGauge("yh_serve_latency_p50", labels_)
        ->Set(static_cast<double>(latency_.P50()));
    metrics_->GetGauge("yh_serve_latency_p99", labels_)
        ->Set(static_cast<double>(latency_.P99()));
    metrics_->GetGauge("yh_serve_latency_p999", labels_)
        ->Set(static_cast<double>(latency_.ValueAtQuantile(0.999)));
  }
  if (multi_tenant_) {
    for (const TenantState& tenant : tenants_) {
      metrics_->GetCounter("yh_serve_offered_total", tenant.labels)
          ->Set(tenant.counters.offered);
      metrics_->GetCounter("yh_serve_admitted_total", tenant.labels)
          ->Set(tenant.counters.admitted);
      metrics_->GetCounter("yh_serve_shed_total", tenant.labels)
          ->Set(tenant.counters.shed);
      metrics_->GetCounter("yh_serve_completed_total", tenant.labels)
          ->Set(tenant.counters.completed);
      metrics_->GetCounter("yh_serve_requeued_total", tenant.labels)
          ->Set(tenant.counters.requeued);
      metrics_->GetGauge("yh_serve_queue_depth", tenant.labels)
          ->Set(static_cast<double>(tenant.queue.size()));
      if (tenant.latency.count() > 0) {
        metrics_->GetGauge("yh_serve_latency_p50", tenant.labels)
            ->Set(static_cast<double>(tenant.latency.P50()));
        metrics_->GetGauge("yh_serve_latency_p99", tenant.labels)
            ->Set(static_cast<double>(tenant.latency.P99()));
        metrics_->GetGauge("yh_serve_latency_p999", tenant.labels)
            ->Set(static_cast<double>(
                tenant.latency.ValueAtQuantile(0.999)));
      }
    }
  }
  for (const auto& [stage, cycles] : ingress_.stage_cycles()) {
    metrics_
        ->GetCounter("yh_serve_stage_cycles_total",
                     obs::LabelSet(labels_).Stage(stage).Build())
        ->Set(cycles);
  }
  for (const auto& [stage, cycles] : egress_.stage_cycles()) {
    metrics_
        ->GetCounter("yh_serve_stage_cycles_total",
                     obs::LabelSet(labels_).Stage(stage).Build())
        ->Set(cycles);
  }
}

}  // namespace yieldhide::serve
