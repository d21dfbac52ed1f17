// ShardFrontEnd: the per-shard open-loop serving front end (docs/SERVING.md).
//
// Implements adapt::RequestSource over one ArrivalProcess PER TENANT, a
// bounded admission queue per tenant (weighted by arrival share), and the
// staged connection pipeline:
//
//   arrival --admit/shed--> [tenant queues] --handle--> primary coroutine
//                                \--(scavengers_serve)--> scavenger slots
//
// The event-loop model, all at scheduler safe points:
//   * HARVEST: finished requests (primary completions and scavenger halts)
//     get their egress stages charged in finish order and their end-to-end
//     latency recorded (arrival cycle -> respond done) into a
//     LatencyHistogram — one per tenant plus the front-end aggregate.
//   * ADMIT: arrivals due by `now` enter their tenant's queue — ingress
//     stages (accept, buffered-read, parse) are charged as the event loop
//     reads the connection — or are SHED when that tenant's weighted room is
//     full. Shedding is the overload contract AND the isolation contract:
//     each tenant's room bounds its latency and an antagonist cannot fill
//     the shared waiting room.
//   * DISPATCH: the head of the highest-priority non-empty queue (foreground
//     class first, earliest arrival within a class) becomes ONE primary
//     task, so every task boundary is a fresh poll. Queued requests are
//     served CONCURRENTLY by the scavenger pool (MakeScavengerFactory),
//     BACKGROUND tenants first: background tenants ARE the scavengers that
//     soak foreground stall windows — the multi-tenant form of the paper's
//     "scavengers are other requests" deployment. A tenant DEMOTED by a
//     drift quarantine (SetTenantDemoted) is held to scavenger-only service
//     while anyone else has traffic: the stale binary was never adapted for
//     its phase, so its slow requests must not head-of-line block the
//     foreground on the primary slot.
//   * IDLE: with nothing queued, idle gaps are donated to in-flight
//     scavenger requests (DrainScavengers) and then skipped to the next
//     arrival.
//
// A tenant-less config serves the single implicit "default" tenant and is
// bit-identical to the pre-tenant front end (same arrivals, same ids, same
// dispatch order, same metrics series).
//
// Guarded-swap interplay: a rollback retires live scavengers mid-request;
// the retire hook re-queues those requests at their tenant queue's HEAD
// (restart, not loss), so admitted == completed + in_flight holds per tenant
// through any swap storm.
#ifndef YIELDHIDE_SRC_SERVE_FRONT_END_H_
#define YIELDHIDE_SRC_SERVE_FRONT_END_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/adapt/request_source.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/obs/labels.h"
#include "src/obs/metrics.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/runtime/dual_mode.h"
#include "src/serve/arrival.h"
#include "src/serve/pipeline.h"
#include "src/serve/tenant.h"
#include "src/sim/machine.h"

namespace yieldhide::serve {

struct FrontEndConfig {
  ArrivalConfig arrival;
  // Bounded waiting room (requests admitted but not yet dispatched).
  // Arrivals beyond it are shed at admission. With multiple tenants each
  // tenant's room is max(1, floor(share * queue_capacity)) — weighted
  // admission — so one tenant's backlog cannot displace another's.
  size_t queue_capacity = 32;
  // Serve queued requests on scavenger slots during the head request's miss
  // windows. Off = the queue drains strictly through the primary (the
  // uninstrumented-baseline shape).
  bool scavengers_serve = true;
  // Request-id namespace seed. Ids are `(seed_low30 << 32) | sequence`, so
  // they are deterministic per shard (derived from the serve seed, no global
  // counter shared across shards) while the low 32 bits stay a dense
  // sequence for handlers that index workloads by truncated id.
  uint64_t id_seed = 0;
  // Tenant set (tenant.h). Empty = the single implicit foreground tenant.
  // Each tenant's arrival process carries `share` of `arrival.rate_per_kcycle`
  // under its own deterministic seed stream.
  std::vector<TenantSpec> tenants;

  Status Validate() const;
};

struct FrontEndCounters {
  uint64_t offered = 0;    // admitted + shed
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;  // completed_primary + completed_scavenger
  uint64_t completed_primary = 0;
  uint64_t completed_scavenger = 0;
  uint64_t requeued = 0;   // restarts after a swap/rollback killed a slot
  uint64_t in_flight = 0;  // queued + dispatched + scavenger-held, at report
};

// One tenant's slice of the front-end report: its own conservation ledger
// and latency distribution.
struct TenantLedger {
  TenantSpec spec;
  FrontEndCounters counters;
  LatencyHistogram latency;
};

struct FrontEndReport {
  FrontEndCounters counters;
  LatencyHistogram latency;  // end-to-end, cycles, all tenants
  std::vector<TenantLedger> tenants;
  // The ledger the unit tests and the S1 gate assert:
  //   offered == admitted + shed, admitted == completed + in_flight.
  bool ConservationHolds() const {
    return counters.offered == counters.admitted + counters.shed &&
           counters.admitted == counters.completed + counters.in_flight;
  }
  // Q1's per-tenant exactness: every tenant ledger conserves on its own AND
  // the tenant ledgers sum to the front-end ledger, counter for counter.
  bool TenantLedgersConsistent() const;
  std::string Summary() const;
};

class ShardFrontEnd : public adapt::RequestSource {
 public:
  // Builds the primary-task setup serving one request (the HANDLE stage's
  // application logic, e.g. PhasedChase::SetupFor of a per-request index).
  using Handler =
      std::function<runtime::DualModeScheduler::ContextSetup(uint64_t id)>;

  // `trace` and `metrics` may be null. `labels` follows the shard labeling
  // convention ({{"shard","<id>"}} only in multi-shard groups); tenant=
  // labels are appended per tenant (only in multi-tenant configs) through
  // obs::LabelSet.
  ShardFrontEnd(const FrontEndConfig& config, Handler handler,
                obs::TraceRecorder* trace, obs::MetricsRegistry* metrics,
                obs::Labels labels);

  // adapt::RequestSource:
  bool Poll(sim::Machine& machine,
            runtime::DualModeScheduler& scheduler) override;
  void OnScavengerSpawn(int ctx_id, uint64_t now) override;
  void OnScavengerRetire(int ctx_id, uint64_t now, bool completed) override;
  std::vector<adapt::TenantSnapshot> Tenants() const override;
  int TenantAtCycle(uint64_t cycle) const override;
  void ForgetTenantTimelineBefore(uint64_t cycle) override;
  // Quarantine actuation: a demoted tenant keeps admitting, queueing, and
  // riding scavenger slots, but stops occupying the PRIMARY while any
  // non-demoted tenant still has traffic (arrivals pending or requests
  // queued). Once every other stream drains, its queue empties through the
  // primary as usual — demotion is starvation-bounded by the run, not a
  // silent drop. Requests already on the primary finish normally.
  void SetTenantDemoted(const std::string& name, bool demoted) override;

  // The scavenger supply: pops the next waiting request — background-class
  // tenant queues first — and serves it on a scavenger slot. Returns nullopt
  // while every queue is empty (or when scavengers_serve is off) — the pool
  // refills on demand once requests queue again. Install via
  // ServerGroup::SetScavengerFactory.
  runtime::DualModeScheduler::ScavengerFactory MakeScavengerFactory();

  // Per-tenant handler override (e.g. the Q1 antagonist runs a drifting
  // workload while the victim's stays stable). Tenants without an override
  // use the shared handler. Call before serving starts.
  void SetTenantHandler(size_t tenant, Handler handler);

  // Optional request-scoped span attribution: the front end feeds admission,
  // dispatch, scavenger-bind/requeue, and harvest transitions (the scheduler
  // feeds the execution interior — wire the same collector to both). Spans
  // are stamped with the owning tenant's name.
  void SetSpanCollector(obs::SpanCollector* spans) { spans_ = spans; }
  // Optional SLO burn-rate evaluator: fed one Record per harvested request;
  // its modeled bookkeeping cost is charged at the poll boundary.
  void SetSloEvaluator(obs::SloEvaluator* slo) { slo_ = slo; }
  // Per-tenant SLO evaluation (one evaluator per declared tenant budget):
  // fed only that tenant's completions; overhead charged like slo_'s.
  void SetTenantSloEvaluator(size_t tenant, obs::SloEvaluator* slo);

  // Counters + latency histograms; in_flight is computed at call time.
  FrontEndReport report() const;
  const std::vector<TenantSpec>& tenants() const { return specs_; }
  // First scheduler error observed (serving stops on it); Ok() in practice.
  const Status& status() const { return status_; }

 private:
  struct Request {
    uint64_t id = 0;
    uint64_t arrival_cycle = 0;
    size_t tenant = 0;  // index into tenants_
  };

  // Per-tenant serving state: arrivals, weighted queue room, ledger.
  struct TenantState {
    TenantSpec spec;
    ArrivalProcess arrivals;
    std::optional<uint64_t> next_arrival;
    std::deque<Request> queue;
    size_t queue_capacity = 0;
    FrontEndCounters counters;
    LatencyHistogram latency;
    Handler handler;  // empty = use the shared handler_
    obs::SloEvaluator* slo = nullptr;
    obs::Labels labels;  // base labels + tenant= (multi-tenant only)
    bool demoted = false;  // quarantined: scavenger-only while others active

    explicit TenantState(const TenantSpec& s, const ArrivalConfig& arrival)
        : spec(s), arrivals(arrival) {}
  };

  // One primary-slot occupancy: the drift-attribution timeline. end == 0
  // while the request is still executing.
  struct PrimaryEpisode {
    uint64_t start = 0;
    uint64_t end = 0;
    size_t tenant = 0;
  };

  // Charges egress + records latency for every finished request, in finish
  // order (primary completions FIFO-matched against dispatch order).
  void Harvest(sim::Machine& machine,
               const runtime::DualModeScheduler& scheduler);
  // Admits every arrival due by now (all tenants, in arrival order); charges
  // ingress or sheds against the tenant's weighted room.
  void AdmitDue(sim::Machine& machine);
  void PublishMetrics();
  void RecordCompletion(sim::Machine& machine, const Request& request,
                        bool scavenged);
  // The earliest pending arrival across tenants (nullopt = streams done).
  std::optional<uint64_t> NextArrival() const;
  // Dispatch policy: foreground class first, earliest head arrival within a
  // class, lowest tenant index on ties. Returns tenants_ index or -1.
  int PickDispatchTenant() const;
  // Scavenger supply policy: background queues first, then foreground.
  int PickScavengeTenant() const;
  size_t QueuedTotal() const;
  const Handler& HandlerFor(size_t tenant) const;

  FrontEndConfig config_;
  Handler handler_;
  std::vector<TenantSpec> specs_;  // resolved (implicit default when empty)
  std::vector<TenantState> tenants_;
  bool multi_tenant_ = false;
  uint64_t next_id_ = 0;

  std::deque<Request> dispatched_primary_;  // FIFO with primary completions
  size_t completions_consumed_ = 0;
  std::map<int, Request> scavenger_held_;   // ctx id -> in-flight request
  std::optional<Request> staged_;           // popped by factory, pre-spawn
  std::vector<std::pair<Request, uint64_t>> scav_done_;  // halted, un-responded

  // Primary-slot occupancy log (FIFO with dispatched_primary_); prefix with
  // end != 0 is prunable via ForgetTenantTimelineBefore.
  std::vector<PrimaryEpisode> episodes_;
  size_t episodes_matched_ = 0;  // episodes with end already stamped

  StagePipeline ingress_;
  StagePipeline egress_;
  FrontEndCounters counters_;
  LatencyHistogram latency_;
  Status status_ = Status::Ok();

  obs::TraceRecorder* trace_;
  obs::MetricsRegistry* metrics_;
  obs::Labels labels_;
  obs::SpanCollector* spans_ = nullptr;
  obs::SloEvaluator* slo_ = nullptr;
};

}  // namespace yieldhide::serve

#endif  // YIELDHIDE_SRC_SERVE_FRONT_END_H_
