// Online serving runtime: a discrete-event, multi-tenant scheduler that
// streams polynomial-multiplication requests over the 128-bank chip.
//
// Where `model::ChipScheduler` answers "what is the makespan of this
// fixed job list?", the serving runtime answers the production question:
// requests *arrive over time* (open-loop Poisson or closed-loop clients),
// are admitted through a bounded queue with backpressure, and are
// dispatched in a scheduling policy's order (fifo / sjf / edf / wfq) onto
// *superbank lanes* — superbanks carved on demand from the chip's bank
// pool per degree class (arch::ChipConfig::plan_for_degree geometry,
// including degraded chips once banks have failed).
//
// One request path: every request is served as a DAG of primitive ops.
// A raw polymul is a DAG of one op (the request itself); a protocol
// request (runtime/protocol.h) compiles to several lane and host ops.
// Admission, launch, completion and settlement each exist once; the
// DAG-only steps (op expansion, the parent-mask frontier, fan-out lane
// exclusion, the join and the sibling sweep on failure) are skipped for
// a one-op DAG. Settlement is the single place that chooses between
// reporting a request's fate and tearing its whole DAG down.
//
// Time is a discrete-event clock in crossbar cycles, consistent with
// model::Performance: a lane configured for degree n accepts one request
// per `slowest_stage_cycles` beat (times `segments` for degrees above
// the design point) and delivers it a pipeline fill later
// (`depth * beat + (segments-1) * beat`). Carving or re-carving a lane
// is a *repartition* and costs a fixed 4096 cycles (kRepartitionCycles,
// serving.cc) before the new lane accepts work. A mid-stream bank
// failure (one bank, injected at a configured cycle) consumes a spare
// bank when one is left — the victim lane pays a repartition and its
// in-flight requests retry — and shrinks the pool once spares are dry,
// by the rule plan_for_degree(n, failed) also plans with
// (arch::ChipConfig::usable_banks). A victim that wear had set draining
// is empty after the teardown, so its repartition is the wear remap and
// it accepts work straight after.
//
// Observability: every run fills per-tenant pow2 latency histograms
// (p50/p99/p999 via obs::Histogram::quantile) and queue-depth and
// utilization counters in its report, and — when the global tracer is
// enabled — emits one span per request on a per-lane `runtime` track so
// Perfetto shows requests flowing across superbank lanes.
//
// Verification: requests flagged `verify` carry a data seed; on
// completion the runtime materialises the operands, runs the product
// through the software mirror of the datapath and checks it with the
// reliability layer's Freivalds verifier, so a stream "completes with
// verified results" in the literal sense.
//
// Resilience (runtime/resilience.h, all off by default): per-request
// deadlines with admission feasibility rejection and queued-timeout
// cancellation, budgeted retries with capped exponential backoff, hedged
// duplicates for stragglers (first result wins), CoDel-style load
// shedding, and per-lane state: each lane holds a CircuitBreaker and a
// LaneHealth (wear in dispatches since its last remap, plus a decayed
// verification-failure score), so worn lanes drain and remap before they
// corrupt traffic and unhealthy idle lanes are scrubbed. `--chaos`
// composes seeded lane fault episodes with live traffic to exercise the
// whole stack deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "model/scheduler.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "runtime/event_queue.h"
#include "runtime/journal.h"
#include "runtime/policy.h"
#include "runtime/protocol.h"
#include "runtime/request.h"
#include "runtime/resilience.h"
#include "runtime/workload.h"

namespace cryptopim::runtime {

class ExecutionBackend;  // runtime/backend.h
class ProtocolHarness;   // runtime/protocol_ops.h

/// Trace track ids used by the runtime: base + lane index (base itself
/// is the control track carrying repartition/failure spans). Disjoint
/// from the simulator tracks (0..banks, 1<<15 and 1<<16 ranges).
/// Fleet chips each get their own window of kRuntimeTracksPerChip ids
/// above the base so per-lane tracks never collide across chips.
inline constexpr std::uint32_t kRuntimeTrackBase = 1u << 18;
inline constexpr std::uint32_t kRuntimeTracksPerChip = 1u << 10;

/// Terminal fate of a request on one chip, reported through the outcome
/// sink so a fleet front-end can react (cross-chip retry, hedging,
/// accounting). kCompleted is the only good outcome; everything else is
/// a candidate for re-dispatch on a replica chip.
enum class Outcome : std::uint8_t {
  kCompleted,
  kRejected,  ///< refused at admission (queue full / unservable / deadline)
  kShed,      ///< CoDel drop at dispatch
  kTimedOut,  ///< cancelled in queue past its deadline
  kFailed,    ///< gave up after detection/teardown (no retry left)
};

struct ServingConfig {
  /// Fleet identity: the namespace of the chip's events on the clock,
  /// stamped on event-log records, and offset into the trace track ids.
  /// 0 for the classic single-chip `serve` path.
  std::uint32_t chip_id = 0;

  arch::ChipConfig chip = arch::ChipConfig::paper_chip();
  std::string policy = "fifo";
  /// Execution backend for data-carrying (verified) requests: "gate"
  /// (crossbar simulation, golden) or "word" (host-speed flat-word NTT,
  /// bit-exact vs gate). See runtime/backend.h. Scheduling, admission
  /// and cycle accounting are backend-invariant: same-seed reports
  /// differ only in the report's `backend` field (and host wall-clock).
  /// A run that verifies nothing (`workload.verify_every` 0) never calls
  /// the backend.
  std::string backend = "word";

  // -- workload ---------------------------------------------------------------
  WorkloadSpec workload;
  /// Open loop: offered arrival rate in requests per second.
  double arrival_rate_per_s = 1000.0;
  /// Closed loop when clients > 0 (arrival_rate_per_s is then ignored).
  std::uint32_t closed_loop_clients = 0;
  double think_time_us = 100.0;
  /// Arrival horizon in simulated microseconds; the runtime then drains.
  double duration_us = 5000.0;
  /// deadline = arrival + slack * service estimate; 0 = no deadlines.
  double deadline_slack = 0.0;

  // -- protocol workload (runtime/protocol.h; kNone = classic raw polymul) ----
  /// When enabled, every arrival is a protocol-level request compiled
  /// into a DAG of primitive ops with dependency-aware dispatch; the
  /// workload mix is expected to be pinned to the protocol's lane degree.
  ProtocolSpec protocol;

  // -- admission and partitioning --------------------------------------------
  std::size_t queue_capacity = 1024;

  // -- reliability ------------------------------------------------------------
  /// Inject one bank failure at this simulated microsecond (0 = none).
  /// prime() throws std::invalid_argument when it is past duration_us.
  double fail_bank_at_us = 0.0;
  /// Freivalds points for data-carrying requests.
  static constexpr unsigned verify_points = 2;

  // -- resilience (all features default off; see runtime/resilience.h) --------
  ResilienceConfig resilience;

  // -- observability -----------------------------------------------------------
  /// Width of the rolling telemetry windows in cycles; 0 = auto
  /// (max(1024, arrival horizon / 64), so every run gets ~64 windows).
  std::uint64_t window_cycles = 0;
  /// SLO objectives (availability + latency); off by default.
  obs::SloConfig slo;

  /// Crossbar cycle time: the paper's 1.1 ns device (HSPICE, 45 nm).
  static constexpr double cycle_ns = 1.1;

  static constexpr double cycles_per_us() noexcept { return 1e3 / cycle_ns; }
};

/// Per-tenant serving ledger.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// Deadline-infeasible at admission; kept apart from `rejected` so the
  /// global counters still sum per-tenant ones field-for-field.
  std::uint64_t rejected_deadline = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  /// Bank-cycles consumed: lane banks x occupancy beats per request.
  std::uint64_t bank_cycles = 0;
  obs::Histogram latency_cycles;  ///< arrival -> completion
};

struct ServingReport {
  std::string policy;
  std::string backend;  ///< execution backend the run verified through
  std::uint64_t duration_cycles = 0;  ///< arrival horizon
  std::uint64_t drain_cycle = 0;      ///< last event processed

  // Work conservation, in ops: submitted == admitted + rejected +
  // rejected_unservable + resilience.rejected_deadline, and admitted ==
  // completed + resilience.{shed,timed_out,failed} + queued + in_flight +
  // protocol.ops_cancelled at any observation point (a fleet chip also
  // hands work back: chip_failed, migrated, lost_in_flight). After the
  // final drain in_flight == queued == 0.
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;          ///< queue-full backpressure
  std::uint64_t rejected_unservable = 0;  ///< no feasible plan (degraded)
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t queued = 0;

  std::uint64_t repartitions = 0;
  std::uint64_t bank_failures = 0;
  std::uint64_t retried = 0;  ///< requests re-queued by a bank failure
  std::uint64_t deadline_misses = 0;

  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;

  /// Resilience ledger (all zero when no resilience feature ran).
  ResilienceStats resilience;

  /// Fleet context (all zero for a single-chip run).
  std::uint32_t chip_id = 0;
  std::uint64_t migrated = 0;         ///< queued work extracted by a drain/crash
  std::uint64_t lost_in_flight = 0;   ///< in-flight torn down by a chip crash
  std::uint64_t chip_corruptions = 0; ///< corruption-storm results detected
  std::uint64_t chip_failed = 0;      ///< surrendered to the fleet for retry

  /// Protocol-level ledger (kind "none" and all zero for raw polymul).
  /// In a protocol run the main counters above count primitive *ops*,
  /// so the serving conservation identities keep holding with ops as the
  /// unit of work; this block counts whole protocol requests.
  ProtocolStats protocol;

  std::uint64_t busy_bank_cycles = 0;
  double utilization = 0;       ///< busy bank-cycles / (banks x drain time)
  double throughput_per_s = 0;  ///< completed / drain time
  double offered_per_s = 0;     ///< submitted / arrival horizon

  obs::Histogram latency_cycles;   ///< all tenants
  obs::Histogram queue_depth;      ///< sampled at every arrival
  std::map<std::uint32_t, TenantStats> tenants;

  /// Windowed telemetry: per-window counters (submitted / completed /
  /// shed / retries / ...) and latency histograms on the cycle axis.
  obs::WindowedSeries series;
  /// The run's SLO objectives. The accounting is a view of `series`
  /// (obs::slo_summary), serialized only when objectives were set.
  obs::SloConfig slo;

  double cycles_per_us = 1.0;
  double latency_us(double quantile) const;

  /// Deterministic JSON document (schema "serving/3"), one shape for
  /// every run: totals, the resilience, fleet-context and protocol
  /// ledgers, derived rates, per-tenant stats with p50/p99/p999 latency,
  /// and the windowed "series" section with derived "rolling" rates. The
  /// "slo" error-budget section is the one optional part: it is emitted
  /// only when objectives were set.
  obs::Json to_json() const;
};

/// A lifecycle record's first fields: {"ev":name,"cycle":cycle,
/// "chip":chip}, then "trace":r->id and "tenant":r->tenant for a
/// request's record; with `op` set, r is an op (runtime/request.h), so
/// the trace is its request's id and "op", its index, follows. A record
/// with no request is a control record, which the log flushes. Chips and
/// the fleet front-end start every event-log record here, append
/// event-specific fields and hand it to EventLog::write().
obs::EventRecord ev_base(const char* name, std::uint64_t cycle,
                         std::uint32_t chip, const Request* r = nullptr,
                         bool op = false);

class ServingRuntime {
 public:
  /// A single chip on its own clock.
  explicit ServingRuntime(ServingConfig cfg);
  /// A fleet chip on the fleet's clock (not owned): the fleet injects its
  /// arrivals, pops its events and hands them to handle().
  ServingRuntime(ServingConfig cfg, Clock& fleet_clock);
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  const ServingConfig& config() const noexcept { return cfg_; }

  /// Attach a lifecycle event log (not owned; may be null). While its
  /// stream is open, every request emits causally-linked records —
  /// admitted, dispatched, retry, hedge, completed, ... — keyed by a
  /// trace id: the request's id, shared across its retries and hedges
  /// and, for a protocol request, across its ops. An op's records also
  /// carry "op", its index in the compiled DAG, and its dispatched
  /// record names the node's class and fan-out group.
  void set_event_log(obs::EventLog* log) noexcept { event_log_ = log; }

  /// Run the full simulation: prime arrivals, loop the event queue to
  /// empty (arrival horizon + drain), return the sealed report.
  /// Deterministic for a fixed config. Throws std::invalid_argument for
  /// an unknown policy name or an empty degree mix.
  ServingReport run();

  // -- stepping API -----------------------------------------------------------
  // run() == prime(); while (has_events()) step(); seal(). A fleet drives
  // its chips on its own clock instead: it primes each chip, pops every
  // event itself and hands a chip's events to that chip's handle() — the
  // chip-namespaced seq makes the one timeline a strict total order, so
  // fleet runs are bit-deterministic.

  /// Everything run() does before the event loop. A fleet chip builds no
  /// workload generator: the fleet injects its arrivals.
  void prime();
  bool has_events() const noexcept { return !clock_.events.empty(); }
  /// Cross the durability boundary, then pop and handle exactly one
  /// event (single chip).
  void step();
  /// Handle one event of this chip's namespace.
  void handle(const Event& e);
  /// Everything run() does after the loop; returns the final report.
  ServingReport seal();

  /// Fleet mode: schedule an externally routed arrival at `cycle`
  /// (>= the chip's current cycle). The request keeps its original
  /// arrival_cycle so latency spans cross-chip retries and migrations.
  void inject(Request r, std::uint64_t cycle);
  /// Terminal-outcome callback (not owned; may be null). Fired once per
  /// submission the chip gives up on or completes.
  using OutcomeSink =
      std::function<void(const Request&, Outcome, std::uint64_t cycle)>;
  void set_outcome_sink(OutcomeSink sink) { outcome_sink_ = std::move(sink); }

  /// Drain support: remove and return every queued (admitted, not yet
  /// dispatched) request so the fleet can migrate it to another chip;
  /// none on a protocol chip, where every DAG ran its op 0 at admission.
  std::vector<Request> extract_pending();
  /// Whole-chip crash: every lane is torn down and every in-flight and
  /// queued request is lost — returned (deduplicated) for the fleet to
  /// re-dispatch. The chip goes dark (no usable banks) until revive().
  std::vector<Request> crash_chip();
  /// Rejoin after the fleet's scrub period: the bank pool is whole again
  /// (lanes re-carve on demand) and a wake-up scan at `cycle` dispatches
  /// anything that strayed into the queue while dark.
  void revive(std::uint64_t cycle);
  /// Brownout episode: dispatches until `until_cycle` run
  /// kBrownoutSlowFactor (serving.cc) times slow.
  void slow_down(std::uint64_t until_cycle);
  /// Corruption-storm episode: results dispatched before `until_cycle`
  /// are corrupt; the layered checks detect them on completion and the
  /// chip surrenders them (Outcome::kFailed) unless its own resilience
  /// retries succeed. Never delivered as good.
  void corrupt_window(std::uint64_t until_cycle);

  /// Live (mid-run) state, for fleet routing and health decisions.
  const ServingReport& live() const noexcept { return report_; }
  std::size_t pending_count() const noexcept { return pending_.size(); }
  std::size_t in_flight_count() const noexcept { return in_flight_.size(); }

  // -- durability (runtime/journal.h; inert unless enabled) -------------------
  /// Open (or recover) this chip's journal — `opts.dir`/journal.log for a
  /// single chip, `opts.dir`/chip-<id>.log for a fleet chip — indexed by
  /// the clock's global event index. Call before prime()/run(). A single
  /// chip's step() then honours opts.snapshot_every and
  /// opts.kill_at_event; a fleet crosses the boundary in its own loop.
  void enable_durability(const DurabilityOptions& opts);
  /// Full determinism-relevant state dump whose CRC a snapshot journals:
  /// lane geometry and breaker/wear state, bank pool, WFQ ledgers, RNG
  /// position digests, queue and in-flight occupancy, counters.
  obs::Json snapshot_state() const;

 private:
  struct Lane;
  struct InFlight;
  using InFlightMap = std::map<std::uint64_t, InFlight>;

  /// Admission of one request as a whole DAG (a raw polymul is one op).
  void handle_arrival(const Event& e);
  void handle_completion(const Event& e);
  void handle_bank_failure(const Event& e);
  void try_dispatch();

  /// This chip's geometry for a degree class, from its own
  /// plan_for_degree; prime() builds the table for the workload's
  /// degrees, so a class no superbank of this chip fits throws there.
  const model::LaneTiming& geometry(std::uint32_t degree);
  /// A lane of r's degree class that can accept r *now*, carving a new
  /// one from free banks if needed; nullptr when r must wait (a wake-up
  /// scan is scheduled whenever one is known). A fan-out op avoids lanes
  /// running an in-flight sibling of its group. With `straggler` set the
  /// lane is for a hedge of that entry: any lane but the straggler's
  /// own, free right now, with no carve and no wake-up scan.
  Lane* acquire_lane(const Request& r, const InFlight* straggler = nullptr);
  Lane* carve_lane(std::uint32_t degree);
  /// Returns banks of idle lanes (no in-flight work, nothing pending in
  /// their class) to the free pool until `needed` banks are available.
  void reclaim_idle_lanes(unsigned needed, std::uint32_t for_degree);
  /// Start one op: on `lane`, or laneless (a host op) when it is null.
  /// A nonzero `hedge_of` makes it the duplicate of that dispatch.
  /// Returns the new dispatch id.
  std::uint64_t launch(Request r, Lane* lane, std::uint64_t hedge_of = 0);
  void verify_result(const Request& r);
  unsigned usable_banks() const noexcept {
    return cfg_.chip.usable_banks(failed_banks_);
  }
  void schedule_scan(std::uint64_t cycle);
  /// Schedule an event in this chip's namespace on the clock.
  void push_event(EventKind kind, std::uint64_t cycle,
                  std::uint64_t dispatch_id = 0, Request r = {}) {
    clock_.push(cfg_.chip_id, kind, cycle, dispatch_id, std::move(r));
  }

  // -- observability -----------------------------------------------------------
  bool elog_on() const noexcept {
    return event_log_ != nullptr && event_log_->enabled();
  }
  /// Report a terminal fate to the fleet's outcome sink (no-op when the
  /// sink is unset, i.e. in the classic single-chip path).
  void emit_outcome(const Request& r, Outcome o);
  /// Settlement, the one place that turns an op's fate into a request's:
  /// a one-op DAG reports `o` for itself; an op of a larger DAG advances
  /// the frontier when it completed (the last op joins and reports the
  /// DAG) and tears the whole DAG down exactly once otherwise.
  void settle(const Request& r, Outcome o, std::uint64_t dispatched_at = 0);
  /// A bad terminal fate (shed / timed out / failed): bump `counter` and
  /// the windowed counter, log it, then settle.
  void fail(const Request& r, Outcome o, std::uint64_t& counter);
  /// A request (a DAG's origin) reached its fate, rejection included:
  /// report it, then let a closed-loop client re-issue.
  void finish(const Request& origin, Outcome o);
  /// Base trace track id for this chip's lane spans.
  std::uint32_t runtime_track_base() const noexcept {
    return kRuntimeTrackBase + cfg_.chip_id * kRuntimeTracksPerChip;
  }

  // -- resilience -------------------------------------------------------------
  void handle_timeout(const Event& e);
  void handle_retry_enqueue(const Event& e);
  void handle_hedge(const Event& e);
  void handle_health(const Event& e);
  void handle_chaos(const Event& e);
  /// A request's result was detected bad (or its lane was torn down):
  /// retry within budget/attempt caps, else fail it. Returns true when a
  /// retry was scheduled.
  bool schedule_retry(Request r, bool count_as_bank_retry);
  /// Record a request outcome on its lane's breaker + health state.
  void record_lane_outcome(Lane& lane, bool ok);
  /// Cancel a hedged pair's loser: log and count it, then drop it.
  void cancel_in_flight(std::uint64_t dispatch_id);
  /// Drop an in-flight entry that ends without an outcome (hedge loser,
  /// protocol or bank-failure teardown); returns the next entry. Its
  /// lane loses one request, a cancelled half-open probe re-opens the
  /// breaker, and a draining lane left empty remaps now.
  InFlightMap::iterator drop_in_flight(InFlightMap::iterator it);
  /// Remap a live draining lane with nothing in flight onto fresh banks;
  /// returns whether it did.
  bool remap_if_drained(Lane& lane);
  void arm_health_tick(std::uint64_t cycle);
  void arm_chaos_episode();

  // -- DAGs of more than one op (empty when cfg_.protocol is disabled) --------
  /// Live state of one admitted protocol request: its origin (what the
  /// fleet re-dispatches whole) and the dependency frontier's done mask.
  struct ProtoState {
    Request origin;
    std::uint64_t done_mask = 0;
  };
  /// Every queued and in-flight Request is an op of a protocol request.
  bool protocol_chip() const noexcept { return cfg_.protocol.enabled(); }
  /// An op's node in the compiled DAG (kRawOp for a raw request).
  const ProtoOp& node(const Request& op) const {
    return protocol_chip() ? dag_.ops[op_index_of(op.id)] : kRawOp;
  }
  /// ev_base for a record of queued or in-flight `r` on this chip now.
  obs::EventRecord op_event(const char* name, const Request& r) const {
    return ev_base(name, now_, cfg_.chip_id, &r, protocol_chip());
  }
  /// Frontier check: all of the op's parents completed.
  bool proto_ready(const Request& r) const;
  /// Mark one op done; on the last op, run the functional join and emit
  /// the protocol request's single good outcome.
  void on_op_complete(const Request& r, std::uint64_t dispatched_at);
  /// Exactly-once teardown of `request`: cancel its queued and in-flight
  /// ops and emit its origin's single bad outcome. Idempotent (keyed on
  /// protos_ erase), so straggler op failures are no-ops.
  void fail_protocol(std::uint64_t request, Outcome o);

  ServingConfig cfg_;
  Policy policy_ = Policy::kFifo;
  std::unique_ptr<ExecutionBackend> backend_;
  std::unique_ptr<WorkloadGenerator> workload_;

  /// The timeline this chip's events live on: its own, or a fleet's —
  /// which is what makes the chip fleet-driven.
  std::unique_ptr<Clock> own_clock_;
  Clock& clock_;
  bool fleet_driven() const noexcept { return own_clock_ == nullptr; }
  /// Events this chip handled (its snapshot's event_index).
  std::uint64_t handled_events_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t horizon_ = 0;
  std::vector<Request> pending_;  ///< admitted, waiting for a lane
  std::map<std::uint32_t, model::LaneTiming> geometry_;  ///< by degree class
  std::vector<Lane> lanes_;
  InFlightMap in_flight_;
  std::uint64_t next_dispatch_id_ = 1;

  // -- protocol state (empty when cfg_.protocol is disabled) -------------------
  ProtoDag dag_;
  std::map<std::uint64_t, ProtoState> protos_;  ///< by request id
  std::unique_ptr<ProtocolHarness> proto_harness_;

  // -- resilience state (each part inert while its knob is off) ---------------
  std::unique_ptr<RetryBudget> retry_budget_;  ///< max_retries > 0
  CoDelShedder shedder_;
  bool health_ = false;  ///< health ticks run: wear_limit > 0 or chaos
  Xoshiro256 chaos_rng_{1};
  bool health_tick_armed_ = false;
  obs::Histogram service_hist_;  ///< dispatch -> completion, for hedge p99

  unsigned allocated_banks_ = 0;
  unsigned failed_banks_ = 0;
  /// Cycles with a wake-up scan already queued: every blocked dispatch
  /// wants a scan at the next lane-free boundary, and without dedup
  /// those scans accumulate one self-re-arming chain per arrival
  /// (quadratic event count under saturation).
  std::set<std::uint64_t> scan_cycles_;

  std::vector<double> tenant_usage_;  ///< bank-cycles per tenant, for wfq

  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
  OutcomeSink outcome_sink_;            ///< fleet callback; may be empty

  // -- durability (inert when no journal is open) -----------------------------
  DurabilityOptions durab_;
  std::unique_ptr<Journal> journal_;

  // -- whole-chip episode state (set only by a fleet's chip chaos) ------------
  std::uint64_t chip_slow_until_ = 0;
  std::uint64_t chip_corrupt_until_ = 0;

  ServingReport report_;
};

}  // namespace cryptopim::runtime
