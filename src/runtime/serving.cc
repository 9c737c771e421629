#include "runtime/serving.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>
#include <stdexcept>
#include <utility>

#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "obs/trace.h"
#include "reliability/verifier.h"
#include "runtime/backend.h"
#include "runtime/protocol_ops.h"

namespace cryptopim::runtime {

using obs::SeriesCounter;
using obs::SeriesHistogram;

namespace {

/// Lane index of a laneless protocol host op (sampling / aggregation):
/// InFlight entries carrying it never touch lanes_.
constexpr std::size_t kHostLane = ~std::size_t{0};

}  // namespace

// -- report -------------------------------------------------------------------

double ServingReport::latency_us(double quantile) const {
  return static_cast<double>(latency_cycles.quantile(quantile)) /
         cycles_per_us;
}

namespace {

/// Derived per-window rates: the rolling throughput / latency / shed /
/// retry series the windowed counters exist to support. Rates are per
/// second of simulated time; ratios are against the window's submitted.
obs::Json rolling_rates(const obs::WindowedSeries& series, double cycle_ns) {
  obs::Json rows = obs::Json::array();
  const double window_s =
      static_cast<double>(series.window_cycles()) * cycle_ns * 1e-9;
  for (std::size_t w = 0; w < series.window_count(); ++w) {
    obs::Json row = obs::Json::object();
    row.set("start", series.window_start(w));
    const std::uint64_t completed =
        series.counter_at(w, SeriesCounter::kCompleted);
    const std::uint64_t submitted =
        series.counter_at(w, SeriesCounter::kSubmitted);
    row.set("throughput_per_s",
            window_s > 0 ? static_cast<double>(completed) / window_s : 0.0);
    const obs::Histogram& lat =
        series.histogram_at(w, SeriesHistogram::kLatencyCycles);
    if (lat.count() != 0) {
      row.set("p50_latency_us",
              static_cast<double>(lat.quantile(0.50)) * cycle_ns * 1e-3);
      row.set("p99_latency_us",
              static_cast<double>(lat.quantile(0.99)) * cycle_ns * 1e-3);
    }
    const double denom = submitted ? static_cast<double>(submitted) : 1.0;
    const auto rate = [&](SeriesCounter c) {
      return static_cast<double>(series.counter_at(w, c)) / denom;
    };
    row.set("shed_rate", rate(SeriesCounter::kShed));
    row.set("retry_rate", rate(SeriesCounter::kRetries));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

obs::Json ServingReport::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("schema", "serving/3");
  j.set("policy", policy);
  j.set("backend", backend);
  j.set("duration_cycles", duration_cycles);
  j.set("drain_cycle", drain_cycle);
  j.set("submitted", submitted);
  j.set("admitted", admitted);
  j.set("rejected", rejected);
  j.set("rejected_unservable", rejected_unservable);
  j.set("completed", completed);
  j.set("in_flight", in_flight);
  j.set("queued", queued);
  j.set("repartitions", repartitions);
  j.set("bank_failures", bank_failures);
  j.set("retried", retried);
  j.set("deadline_misses", deadline_misses);
  j.set("verified", verified);
  j.set("verify_failures", verify_failures);
  j.set("resilience", resilience.to_json());
  j.set("chip", std::uint64_t{chip_id});
  j.set("migrated", migrated);
  j.set("lost_in_flight", lost_in_flight);
  j.set("chip_corruptions", chip_corruptions);
  j.set("chip_failed", chip_failed);
  j.set("protocol", protocol.to_json());
  j.set("busy_bank_cycles", busy_bank_cycles);
  j.set("utilization", utilization);
  j.set("throughput_per_s", throughput_per_s);
  j.set("offered_per_s", offered_per_s);
  obs::Json lat = obs::Json::object();
  lat.set("count", latency_cycles.count());
  lat.set("mean_cycles", latency_cycles.mean());
  lat.set("p50_cycles", latency_cycles.quantile(0.50));
  lat.set("p99_cycles", latency_cycles.quantile(0.99));
  lat.set("p999_cycles", latency_cycles.quantile(0.999));
  lat.set("p50_us", latency_us(0.50));
  lat.set("p99_us", latency_us(0.99));
  lat.set("p999_us", latency_us(0.999));
  lat.set("max_cycles", latency_cycles.max());
  j.set("latency", std::move(lat));
  obs::Json qd = obs::Json::object();
  qd.set("mean", queue_depth.mean());
  qd.set("p99", queue_depth.quantile(0.99));
  qd.set("max", queue_depth.max());
  j.set("queue_depth", std::move(qd));
  obs::Json ts = obs::Json::array();
  for (const auto& [id, t] : tenants) {
    obs::Json tj = obs::Json::object();
    tj.set("tenant", std::uint64_t{id});
    tj.set("submitted", t.submitted);
    tj.set("admitted", t.admitted);
    tj.set("rejected", t.rejected);
    tj.set("rejected_deadline", t.rejected_deadline);
    tj.set("completed", t.completed);
    tj.set("deadline_misses", t.deadline_misses);
    tj.set("bank_cycles", t.bank_cycles);
    tj.set("p50_cycles", t.latency_cycles.quantile(0.50));
    tj.set("p99_cycles", t.latency_cycles.quantile(0.99));
    tj.set("p999_cycles", t.latency_cycles.quantile(0.999));
    ts.push_back(std::move(tj));
  }
  j.set("tenants", std::move(ts));
  j.set("series", series.to_json());
  j.set("rolling", rolling_rates(series, 1e3 / cycles_per_us));
  if (slo.enabled()) j.set("slo", obs::slo_to_json(slo, series));
  return j;
}

// -- runtime ------------------------------------------------------------------

/// A chaos/wear corruption window that never closes on its own (wear
/// faults persist until the lane is remapped onto fresh banks).
constexpr std::uint64_t kForever = ~std::uint64_t{0};

/// Cycles a newly carved (or remapped) lane takes to become ready: the
/// superbank reconfiguration cost.
constexpr std::uint64_t kRepartitionCycles = 4096;
/// Banks one injected bank-failure event takes out.
constexpr unsigned kBanksPerFailure = 1;
/// First retry backoff; doubles per attempt up to the cap.
constexpr std::uint64_t kRetryBackoffCycles = 2048;
constexpr std::uint64_t kRetryBackoffCapCycles = 1 << 16;
/// Chaos episodes: mean gap and mean duration (both exponential), in
/// simulated us, and the share that are slowdowns (the rest corrupt).
constexpr double kChaosMeanIntervalUs = 150.0;
constexpr double kChaosMeanDurationUs = 60.0;
constexpr double kChaosSlowFraction = 0.5;
/// Completion-latency multiplier while a chaos slowdown episode is active.
constexpr double kChaosSlowFactor = 4.0;
/// Observed completions before a p99-derived hedge delay is trusted.
constexpr std::uint64_t kHedgeMinSamples = 32;
/// Health-monitor tick period (the monitor runs with wear or chaos on).
constexpr std::uint64_t kHealthPeriodCycles = 1 << 15;
/// Cycles a background scrub keeps an unhealthy idle lane out of service.
constexpr std::uint64_t kScrubCycles = 4096;
/// Cycle cost charged for a laneless host op (sampling / aggregation).
constexpr std::uint64_t kHostOpCycles = 256;

struct ServingRuntime::Lane {
  std::uint32_t degree = 0;
  unsigned banks = 0;
  std::uint64_t free_at = 0;  ///< earliest cycle the next request may enter
  unsigned in_flight = 0;
  bool dead = false;
  std::uint32_t track = 0;

  // -- resilience (inert defaults when the layer is off) ---------------------
  CircuitBreaker breaker;
  LaneHealth health;
  std::uint64_t slow_until = 0;     ///< chaos slowdown episode end
  std::uint64_t corrupt_until = 0;  ///< chaos/wear corruption end (kForever
                                    ///< for wear: only a remap clears it)
  bool draining = false;            ///< worn: no new work, remap when empty

  /// Fresh banks (a carve or a remap): a closed breaker, no wear and no
  /// failure history.
  void reset_resilience(const ResilienceConfig& res) {
    breaker = CircuitBreaker(res.breaker_k);
    health = LaneHealth(res.wear_limit);
  }
};

struct ServingRuntime::InFlight {
  Request request;
  std::size_t lane = kHostLane;
  std::uint64_t dispatched_at = 0;
  bool corrupt = false;      ///< dispatched into a corrupting window
  bool chip_corrupt = false; ///< dispatched during a corruption storm
  bool is_probe = false;     ///< the lane breaker's half-open probe
  bool is_hedge = false;     ///< the duplicate of a hedged pair
  std::uint64_t hedge_partner = 0;  ///< other dispatch id, 0 = unhedged
};

ServingRuntime::ServingRuntime(ServingConfig cfg)
    : cfg_(std::move(cfg)),
      own_clock_(std::make_unique<Clock>()),
      clock_(*own_clock_) {}
ServingRuntime::ServingRuntime(ServingConfig cfg, Clock& fleet_clock)
    : cfg_(std::move(cfg)), clock_(fleet_clock) {}
ServingRuntime::~ServingRuntime() = default;

const model::LaneTiming& ServingRuntime::geometry(std::uint32_t degree) {
  if (const auto it = geometry_.find(degree); it != geometry_.end()) {
    return it->second;
  }
  // Banks per superbank and segments are degree-intrinsic for this chip;
  // failed banks only shrink how many lanes fit, which the runtime's own
  // bank pool accounts for. Throws when no superbank of the class fits.
  return geometry_.emplace(degree, model::lane_timing(cfg_.chip, degree))
      .first->second;
}

void ServingRuntime::schedule_scan(std::uint64_t cycle) {
  // The armed-cycle set is cleared as each scan fires, so a wake-up at
  // or before the current cycle would pop and re-arm itself in an
  // infinite same-cycle loop; the earliest useful re-scan is next cycle.
  if (cycle <= now_) cycle = now_ + 1;
  if (!scan_cycles_.insert(cycle).second) return;  // already armed
  push_event(EventKind::kQueueScan, cycle);
}

ServingReport ServingRuntime::run() {
  prime();
  while (has_events()) step();
  return seal();
}

void ServingRuntime::prime() {
  const std::optional<Policy> policy = parse_policy(cfg_.policy);
  if (!policy) {
    throw std::invalid_argument("unknown scheduling policy: " + cfg_.policy);
  }
  policy_ = *policy;
  backend_ = make_backend(cfg_.backend);
  if (!backend_) {
    throw std::invalid_argument("unknown execution backend: " + cfg_.backend);
  }
  if (cfg_.workload.mix.empty()) {
    throw std::invalid_argument("degree mix must not be empty");
  }
  // A fault past the arrival horizon would stretch the drain clock to it.
  if (cfg_.fail_bank_at_us > cfg_.duration_us) {
    throw std::invalid_argument("fail_bank_at_us is past the arrival horizon");
  }
  // This chip's lane geometry table: throws on a degree it cannot host.
  geometry_.clear();
  for (const auto& share : cfg_.workload.mix) geometry(share.degree);
  if (cfg_.protocol.enabled()) {
    dag_ = compile_protocol(cfg_.protocol);  // throws on bad shares
    geometry(dag_.lane_degree);
  }
  protos_.clear();
  waiting_.clear();
  proto_harness_.reset();

  const double cyc_per_us = cfg_.cycles_per_us();
  const auto horizon =
      static_cast<std::uint64_t>(cfg_.duration_us * cyc_per_us);
  horizon_ = horizon;
  report_ = ServingReport();
  report_.policy = cfg_.policy;
  report_.backend = cfg_.backend;
  report_.duration_cycles = horizon;
  report_.cycles_per_us = cyc_per_us;
  report_.chip_id = cfg_.chip_id;

  // Auto window width: ~64 windows across the arrival horizon, never
  // finer than 1024 cycles. Pure integer arithmetic — deterministic.
  const std::uint64_t window =
      cfg_.window_cycles > 0
          ? cfg_.window_cycles
          : std::max<std::uint64_t>(1024, horizon / 64);
  report_.series = obs::WindowedSeries(window);
  report_.slo = cfg_.slo;
  report_.protocol.kind = protocol_name(cfg_.protocol.kind);
  if (cfg_.protocol.enabled()) {
    if (cfg_.protocol.kind == ProtocolKind::kThreshold) {
      report_.protocol.shares = cfg_.protocol.shares;
    }
    report_.protocol.ops_per_request =
        static_cast<std::uint32_t>(dag_.ops.size());
    proto_harness_ =
        std::make_unique<ProtocolHarness>(cfg_.protocol, backend_.get());
  }

  const std::uint32_t tenants = std::max<std::uint32_t>(cfg_.workload.tenants, 1);
  tenant_usage_.assign(tenants, 0.0);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    report_.tenants.emplace(t, TenantStats{});
  }

  // Fleet drive: no internal generator — the front-end injects arrivals.
  if (!fleet_driven()) {
    if (cfg_.closed_loop_clients > 0) {
      const auto think =
          static_cast<std::uint64_t>(cfg_.think_time_us * cyc_per_us);
      workload_ = std::make_unique<ClosedLoop>(cfg_.workload,
                                               cfg_.closed_loop_clients, think,
                                               horizon);
    } else {
      const double rate_per_cycle =
          cfg_.arrival_rate_per_s / (1e9 / cfg_.cycle_ns);
      if (rate_per_cycle <= 0) {
        throw std::invalid_argument("arrival rate must be positive");
      }
      workload_ =
          std::make_unique<OpenLoopPoisson>(cfg_.workload, rate_per_cycle,
                                            horizon);
    }
    for (const auto& a : workload_->initial()) {
      push_event(EventKind::kArrival, a.cycle, 0, a.request);
    }
  }
  if (cfg_.fail_bank_at_us > 0) {
    push_event(EventKind::kBankFailure,
               static_cast<std::uint64_t>(cfg_.fail_bank_at_us * cyc_per_us));
  }

  // Each resilience mechanism keys on its own knob; see resilience.h.
  const auto& res = cfg_.resilience;
  retry_budget_ =
      res.max_retries > 0
          ? std::make_unique<RetryBudget>(tenants, res.retry_budget_ratio)
          : nullptr;
  shedder_ = CoDelShedder(duration_cycles(res.codel_target_us, cyc_per_us),
                          duration_cycles(res.codel_interval_us, cyc_per_us));
  health_ = res.wear_limit > 0 || res.chaos.enabled;
  chaos_rng_ = Xoshiro256(res.chaos.seed);
  service_hist_ = obs::Histogram{};
  health_tick_armed_ = false;
  if (res.chaos.enabled) arm_chaos_episode();
  if (health_) arm_health_tick(kHealthPeriodCycles);
}

void ServingRuntime::step() {
  if (journal_) {
    durability_boundary(durab_, clock_.event_index, *journal_,
                        [this] { return snapshot_state(); });
  }
  handle(clock_.events.pop());
  clock_.event_index += 1;
}

void ServingRuntime::handle(const Event& e) {
  now_ = e.cycle;
  report_.drain_cycle = std::max(report_.drain_cycle, now_);
  switch (e.kind) {
    case EventKind::kArrival: handle_arrival(e); break;
    case EventKind::kQueueScan:
      scan_cycles_.erase(e.cycle);
      try_dispatch();
      break;
    case EventKind::kCompletion: handle_completion(e); break;
    case EventKind::kBankFailure: handle_bank_failure(e); break;
    case EventKind::kTimeout: handle_timeout(e); break;
    case EventKind::kRetryEnqueue: handle_retry_enqueue(e); break;
    case EventKind::kHedge: handle_hedge(e); break;
    case EventKind::kHealth: handle_health(e); break;
    case EventKind::kChaos: handle_chaos(e); break;
    default: break;  // fleet kinds live in the fleet's namespace
  }
  handled_events_ += 1;
}

ServingReport ServingRuntime::seal() {
  // Anything still queued is starved: the chip degraded below its class's
  // bank requirement mid-stream. Surface it rather than hanging.
  report_.queued = pending_count();
  report_.in_flight = in_flight_.size();
  pending_.clear();
  waiting_.clear();

  if (report_.drain_cycle > 0) {
    const double drain_s = static_cast<double>(report_.drain_cycle) *
                           cfg_.cycle_ns * 1e-9;
    report_.throughput_per_s = static_cast<double>(report_.completed) / drain_s;
    report_.utilization =
        static_cast<double>(report_.busy_bank_cycles) /
        (static_cast<double>(cfg_.chip.total_banks) *
         static_cast<double>(report_.drain_cycle));
  }
  if (horizon_ > 0) {
    report_.offered_per_s = static_cast<double>(report_.submitted) /
                            (static_cast<double>(horizon_) * cfg_.cycle_ns *
                             1e-9);
  }
  // Clean end of run: the seal pins the final conservation counters, so
  // a validator can check the whole ledger without the serving report
  // and --recover can tell "finished" from "interrupted".
  if (journal_) {
    journal_->record(Journal::seal_payload(
        clock_.event_index, now_,
        {{"sub", report_.submitted},
         {"adm", report_.admitted},
         {"cmp", report_.completed},
         {"rej", report_.rejected + report_.rejected_unservable +
                     report_.resilience.rejected_deadline},
         {"shd", report_.resilience.shed},
         {"tmo", report_.resilience.timed_out},
         {"fld", report_.resilience.failed},
         {"que", report_.queued},
         {"inf", report_.in_flight},
         // Ops cancelled by exactly-once protocol teardown: the gap
         // between admitted and individually-fated ops in protocol mode
         // (0 for raw requests), closing the op-granularity ledger.
         {"cnl", report_.protocol.ops_cancelled},
         {"wra", report_.resilience.wrong_accepted}}));
  }
  return report_;
}

// -- fleet drive --------------------------------------------------------------

void ServingRuntime::inject(Request r, std::uint64_t cycle) {
  push_event(EventKind::kArrival, std::max(cycle, now_), 0, std::move(r));
}

void ServingRuntime::emit_outcome(const Request& r, Outcome o) {
  // Journal the terminal commitment *before* handing it to the fleet:
  // if the process dies between the two, recovery re-delivers (the fleet
  // replays deterministically too), never loses, the outcome.
  if (journal_) {
    journal_->record(
        Journal::outcome_payload(clock_.event_index, now_, r.id, o));
  }
  if (outcome_sink_) outcome_sink_(r, o, now_);
}

// -- durability ---------------------------------------------------------------

void ServingRuntime::enable_durability(const DurabilityOptions& opts) {
  durab_ = opts;
  if (!durab_.enabled()) return;
  const bool chip = fleet_driven();
  journal_ = open_journal(
      durab_,
      chip ? "chip-" + std::to_string(cfg_.chip_id) + ".log" : "journal.log",
      chip ? "chip" : "single", cfg_.chip_id, cfg_.workload.seed,
      serving_config_to_json(cfg_));
}

obs::Json ServingRuntime::snapshot_state() const {
  obs::Json s = obs::Json::object();
  s.set("cycle", now_);
  s.set("event_index", handled_events_);
  s.set("next_dispatch_id", next_dispatch_id_);
  s.set("pending", std::uint64_t{pending_count()});
  s.set("in_flight", std::uint64_t{in_flight_.size()});
  s.set("protos", std::uint64_t{protos_.size()});

  obs::Json counters = obs::Json::object();
  counters.set("submitted", report_.submitted);
  counters.set("admitted", report_.admitted);
  counters.set("completed", report_.completed);
  counters.set("rejected", report_.rejected);
  counters.set("rejected_unservable", report_.rejected_unservable);
  counters.set("retried", report_.retried);
  counters.set("repartitions", report_.repartitions);
  counters.set("bank_failures", report_.bank_failures);
  counters.set("shed", report_.resilience.shed);
  counters.set("timed_out", report_.resilience.timed_out);
  counters.set("failed", report_.resilience.failed);
  counters.set("retries", report_.resilience.retries);
  counters.set("chaos_episodes", report_.resilience.chaos_episodes);
  s.set("counters", std::move(counters));

  // Lane geometry + per-lane resilience machinery (breaker, wear, chaos
  // windows): the state whose drift under replay would change dispatch
  // decisions.
  obs::Json lanes = obs::Json::array();
  for (const Lane& lane : lanes_) {
    obs::Json lj = obs::Json::object();
    lj.set("degree", std::uint64_t{lane.degree});
    lj.set("banks", std::uint64_t{lane.banks});
    lj.set("free_at", lane.free_at);
    lj.set("in_flight", std::uint64_t{lane.in_flight});
    lj.set("dead", lane.dead);
    lj.set("draining", lane.draining);
    lj.set("slow_until", lane.slow_until);
    lj.set("corrupt_until", lane.corrupt_until);
    lj.set("breaker_state",
           std::uint64_t{static_cast<unsigned>(lane.breaker.state())});
    lj.set("breaker_failures",
           std::uint64_t{lane.breaker.consecutive_failures()});
    lj.set("breaker_open_until", lane.breaker.open_until());
    lj.set("wear_writes", lane.health.wear());
    lanes.push_back(std::move(lj));
  }
  s.set("lanes", std::move(lanes));

  obs::Json banks = obs::Json::object();
  banks.set("allocated", std::uint64_t{allocated_banks_});
  banks.set("failed", std::uint64_t{failed_banks_});
  banks.set("usable", std::uint64_t{usable_banks()});
  s.set("banks", std::move(banks));

  // WFQ fairness ledgers (bank-cycles per tenant).
  obs::Json usage = obs::Json::array();
  for (const double u : tenant_usage_) usage.push_back(obs::Json(u));
  s.set("tenant_usage", std::move(usage));

  // RNG cursors as non-advancing state digests.
  obs::Json rngs = obs::Json::object();
  if (workload_) rngs.set("workload", workload_->rng_digest());
  rngs.set("chaos", chaos_rng_.digest());
  s.set("rng", std::move(rngs));

  s.set("chip_slow_until", chip_slow_until_);
  s.set("chip_corrupt_until", chip_corrupt_until_);
  return s;
}

std::vector<Request> ServingRuntime::extract_pending() {
  // A protocol DAG never migrates: its host op 0 dispatched at admission,
  // so it joins on this chip. Pending timeouts of migrated requests
  // no-op: handle_timeout scans pending_ by id and finds nothing.
  if (protocol_chip()) return {};
  report_.migrated += pending_.size();
  return std::exchange(pending_, {});
}

std::vector<Request> ServingRuntime::crash_chip() {
  // Every lane dies first, so no drop below remaps one.
  for (Lane& lane : lanes_) lane.dead = true;
  // Every dispatch ends through drop_in_flight. Deduplicate by request
  // id: a hedged pair is two in-flight entries but one request, and the
  // fleet must re-dispatch it exactly once.
  std::vector<Request> out;
  std::set<std::uint64_t> seen;
  const bool raw = !protocol_chip();
  report_.lost_in_flight += in_flight_.size();
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const Request& r = it->second.request;
    if (raw && seen.insert(r.id).second) out.push_back(r);
    it = drop_in_flight(it);
  }
  for (Request& r : pending_) {
    if (raw && seen.insert(r.id).second) out.push_back(std::move(r));
  }
  report_.migrated += pending_count();
  pending_.clear();
  waiting_.clear();
  // Protocol requests collapse to their origin: the crash loses every op
  // (even ones in retry backoff — their re-enqueue finds no proto state)
  // and the fleet re-dispatches the whole DAG exactly once.
  for (auto& [id, st] : protos_) out.push_back(std::move(st.origin));
  protos_.clear();
  // Dark until revive(): no usable banks, so nothing dispatches. Stray
  // internal-retry events still in the air re-enter the queue and wait;
  // completion/hedge/scan events for the dead lanes fire as no-ops.
  allocated_banks_ = 0;
  failed_banks_ = cfg_.chip.total_banks + cfg_.chip.spare_banks;
  chip_slow_until_ = 0;
  chip_corrupt_until_ = 0;
  return out;
}

void ServingRuntime::revive(std::uint64_t cycle) {
  failed_banks_ = 0;
  schedule_scan(std::max(cycle, now_) + 1);
  if (health_) arm_health_tick(kHealthPeriodCycles);
}

void ServingRuntime::slow_down(std::uint64_t until_cycle) {
  chip_slow_until_ = std::max(chip_slow_until_, until_cycle);
}

void ServingRuntime::corrupt_window(std::uint64_t until_cycle) {
  chip_corrupt_until_ = std::max(chip_corrupt_until_, until_cycle);
}

obs::EventRecord ev_base(const char* name, std::uint64_t cycle,
                         std::uint32_t chip, const Request* r, bool op) {
  obs::EventRecord rec;
  rec.str("ev", name).u64("cycle", cycle).u64("chip", chip);
  if (r != nullptr) rec.u64("trace", op ? request_of(r->id) : r->id);
  if (op) rec.u64("op", op_index_of(r->id));
  if (r != nullptr) rec.u64("tenant", r->tenant);
  rec.control = r == nullptr;
  return rec;
}

void ServingRuntime::handle_arrival(const Event& e) {
  // Every arrival (generated or fleet-injected) is admitted whole, as a
  // DAG: a protocol request compiles to dag_'s ops, a raw polymul is its
  // own single op. Op retries re-enter through kRetryEnqueue, never here.
  Request origin = e.request;
  const bool dag = protocol_chip();
  const std::size_t n_ops = dag ? dag_.ops.size() : 1;
  const std::uint32_t degree = dag ? dag_.lane_degree : origin.degree;
  TenantStats& ts = report_.tenants.at(origin.tenant);
  // The ledger stays at op granularity, so the conservation identities
  // hold with primitive ops as the unit of work; the protocol block
  // counts whole requests.
  report_.submitted += n_ops;
  ts.submitted += n_ops;
  if (dag) report_.protocol.requests += 1;
  report_.queue_depth.add(pending_count());
  report_.series.count(SeriesCounter::kSubmitted, now_, n_ops);
  report_.series.observe(SeriesHistogram::kQueueDepth, now_, pending_count());

  // Chain the next open-loop arrival before any admission decision so
  // backpressure never throttles the *offered* load. (Fleet drive has no
  // generator: the front-end injects every arrival itself.)
  if (workload_) {
    if (auto next = workload_->next_after_arrival({e.cycle, origin})) {
      push_event(EventKind::kArrival, next->cycle, 0, std::move(next->request));
    }
  }

  // All-or-nothing admission at the DAG's lane degree.
  const model::LaneTiming& g = geometry(degree);
  const auto reject = [&](const char* reason, std::uint64_t& counter,
                          std::uint64_t& tenant_counter) {
    counter += n_ops;
    tenant_counter += n_ops;
    if (dag) report_.protocol.rejected += 1;
    report_.series.count(SeriesCounter::kRejected, now_, n_ops);
    if (elog_on()) {
      obs::EventRecord rec = ev_base("rejected", now_, cfg_.chip_id, &origin);
      rec.str("reason", reason);
      event_log_->write(rec);
    }
    finish(origin, Outcome::kRejected);
  };
  if (g.banks > usable_banks()) {
    reject("unservable", report_.rejected_unservable, ts.rejected);
    return;
  }
  if (pending_count() + n_ops > cfg_.queue_capacity) {
    reject("queue_full", report_.rejected, ts.rejected);
    return;
  }
  const bool hard_deadline = cfg_.resilience.deadline_us > 0;
  const std::uint64_t deadline =
      hard_deadline
          ? origin.arrival_cycle +
                static_cast<std::uint64_t>(cfg_.resilience.deadline_us *
                                           cfg_.cycles_per_us())
          : 0;
  // Stamp an op's service time and deadline (slack-derived, or the hard
  // deadline, which wins). A raw request is its own op, stamped before
  // it is journaled so replay matches the exact field set it is served
  // with; a larger DAG journals its unstamped origin.
  const auto stamp = [&](Request& r, std::uint64_t service) {
    r.service_cycles = service;
    if (cfg_.deadline_slack > 0) {
      r.deadline_cycle =
          r.arrival_cycle +
          static_cast<std::uint64_t>(cfg_.deadline_slack *
                                     static_cast<double>(service));
    }
    if (hard_deadline) r.deadline_cycle = deadline;
  };
  if (!dag) stamp(origin, g.service());
  if (hard_deadline) {
    // Deadline propagation into admission: the class backlog ahead of
    // this request, served at the class's live lane count, must still
    // leave room for one service before the deadline. Rejecting here is
    // kinder than admitting work that can only miss. One op's service
    // is a lower bound on a DAG's, so no DAG that could finish is
    // rejected.
    std::uint64_t backlog = 0;
    for (const Request& p : pending_) backlog += p.degree == degree;
    for (const auto& [id, w] : waiting_) backlog += w.degree == degree;
    unsigned lanes_alive = 0;
    for (const Lane& lane : lanes_) {
      lanes_alive += !lane.dead && !lane.draining && lane.degree == degree;
    }
    // No lane yet: one will be carved, so the backlog drains at 1 lane.
    const std::uint64_t wait =
        backlog * g.occupancy() / std::max(1u, lanes_alive);
    if (now_ + wait + g.service() > deadline) {
      reject("deadline_infeasible", report_.resilience.rejected_deadline,
             ts.rejected_deadline);
      return;
    }
  }
  report_.admitted += n_ops;
  ts.admitted += n_ops;
  report_.series.count(SeriesCounter::kAdmitted, now_, n_ops);
  // One admission commitment per request: a DAG's op expansion below is
  // a pure function of its origin, so replay re-derives every op.
  if (journal_) {
    journal_->record(Journal::admit_payload(clock_.event_index, now_, origin));
  }
  if (elog_on()) {
    obs::EventRecord rec = ev_base("admitted", now_, cfg_.chip_id, &origin);
    rec.u64("degree", degree);
    if (origin.deadline_cycle > 0) rec.u64("deadline", origin.deadline_cycle);
    if (dag) rec.str("protocol", report_.protocol.kind).u64("ops", n_ops);
    event_log_->write(rec);
  }
  if (retry_budget_) retry_budget_->on_admitted(origin.tenant);

  if (dag) protos_[origin.id] = ProtoState{.origin = origin};
  for (std::size_t i = 0; i < n_ops; ++i) {
    Request r = origin;
    if (dag) {
      r.id = op_id(origin.id, i);
      r.degree = dag_.ops[i].degree;
      stamp(r, node(r).host() ? kHostOpCycles : geometry(r.degree).service());
    }
    if (hard_deadline) push_event(EventKind::kTimeout, r.deadline_cycle, r.id);
    // Only a root op can run now; the rest wait for their last parent.
    if (node(r).parent_mask == 0) {
      pending_.push_back(std::move(r));
    } else {
      waiting_.emplace(r.id, r);
    }
  }
  try_dispatch();
}

// -- DAG steps ----------------------------------------------------------------

void ServingRuntime::try_dispatch() {
  std::set<std::uint32_t> blocked;
  std::set<std::uint64_t> skipped;  // fan-out ops boxed out by siblings
  while (!pending_.empty()) {
    // The policy's first eligible request. One that does not run before
    // the current pick cannot replace it, so its eligibility is moot.
    const std::size_t none = pending_.size();
    std::size_t idx = none;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Request& p = pending_[i];
      if (idx != none &&
          !runs_before(policy_, p, pending_[idx], tenant_usage_)) {
        continue;
      }
      // Every queued op's parents are done (the rest wait in waiting_).
      // Host ops never touch lanes, so a blocked class does not gate them.
      if ((node(p).host() || !blocked.contains(p.degree)) &&
          !skipped.contains(p.id)) {
        idx = i;
      }
    }
    if (idx == none) break;
    Lane* lane = nullptr;
    if (!node(pending_[idx]).host()) {
      lane = acquire_lane(pending_[idx]);
      if (!lane) {
        // A fan-out op may be boxed out only by its in-flight siblings;
        // other work in the class can still run, so skip just this op (a
        // sibling's completion re-runs dispatch with a smaller exclusion).
        if (node(pending_[idx]).fanout_group != 0) {
          skipped.insert(pending_[idx].id);
        } else {
          blocked.insert(pending_[idx].degree);
        }
        continue;
      }
    }
    // CoDel-style shedding at dequeue: when the minimum queueing sojourn
    // has stayed above target for a full interval, drop instead of
    // serving (and tighten the drop cadence) until the queue recovers.
    // Shedding one op of a larger DAG sheds the whole DAG.
    Request r = std::move(pending_[idx]);
    const bool shed = shedder_.enabled() &&
                      shedder_.should_drop(now_ - r.arrival_cycle, now_);
    pending_.erase(pending_.begin() + static_cast<long>(idx));
    if (shed) {
      fail(r, Outcome::kShed, report_.resilience.shed);
    } else {
      launch(std::move(r), lane);
    }
  }
}

ServingRuntime::Lane* ServingRuntime::acquire_lane(const Request& r,
                                                   const InFlight* straggler) {
  // Lanes this op may not take. A hedge needs a *second* lane. A fan-out
  // op never shares a lane with an in-flight sibling of its group — the
  // point of the fan-out is limb/share parallelism across lanes. No
  // deadlock risk: a sibling's completion re-runs dispatch with a
  // smaller exclusion set (worst case the group serializes).
  std::set<std::size_t> exclude;
  if (straggler != nullptr) {
    exclude.insert(straggler->lane);
  } else if (const std::uint32_t group = node(r).fanout_group; group != 0) {
    for (const auto& [id, inf] : in_flight_) {
      if (inf.lane != kHostLane &&
          request_of(inf.request.id) == request_of(r.id) &&
          node(inf.request).fanout_group == group) {
        exclude.insert(inf.lane);
      }
    }
  }
  const std::uint32_t degree = r.degree;
  Lane* free_now = nullptr;
  std::uint64_t soonest = ~std::uint64_t{0};
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (lane.dead || lane.degree != degree || exclude.contains(i)) continue;
    if (lane.draining) continue;  // worn: finishing up, remap pending
    if (!lane.breaker.can_accept(now_)) {
      // Open: re-scan when the open period elapses. Half-open with the
      // probe in flight (open_until already passed): the probe's
      // completion runs try_dispatch, so no wake-up is needed — and a
      // past-cycle scan would re-arm itself forever.
      if (lane.breaker.open_until() > now_)
        soonest = std::min(soonest, lane.breaker.open_until());
      continue;
    }
    if (lane.free_at <= now_) {
      if (!free_now || lane.free_at < free_now->free_at) free_now = &lane;
    } else {
      soonest = std::min(soonest, lane.free_at);
    }
  }
  if (free_now) return free_now;
  if (straggler) return nullptr;  // hedges only use lanes free right now

  const model::LaneTiming& g = geometry(degree);
  const unsigned usable = usable_banks();
  unsigned free_banks = usable > allocated_banks_ ? usable - allocated_banks_
                                                  : 0;
  if (free_banks < g.banks) {
    reclaim_idle_lanes(g.banks, degree);
    free_banks = usable > allocated_banks_ ? usable - allocated_banks_ : 0;
  }
  if (free_banks >= g.banks) {
    Lane* lane = carve_lane(degree);
    if (lane->free_at <= now_) return lane;
    schedule_scan(lane->free_at);
    return nullptr;
  }
  if (soonest != ~std::uint64_t{0}) schedule_scan(soonest);
  return nullptr;
}

ServingRuntime::Lane* ServingRuntime::carve_lane(std::uint32_t degree) {
  const model::LaneTiming& g = geometry(degree);
  Lane lane;
  lane.degree = degree;
  lane.banks = g.banks;
  lane.free_at = now_ + kRepartitionCycles;
  lane.track =
      runtime_track_base() + 1 + static_cast<std::uint32_t>(lanes_.size());
  lane.reset_resilience(cfg_.resilience);
  allocated_banks_ += g.banks;
  report_.repartitions += 1;
  report_.series.count(SeriesCounter::kRepartitions, now_);
  auto& tr = obs::tracer();
  if (tr.enabled()) {
    tr.set_track_name(lane.track, "runtime lane " +
                                      std::to_string(lanes_.size()) + " (n=" +
                                      std::to_string(degree) + ")");
    tr.emit(runtime_track_base(), "repartition n=" + std::to_string(degree),
            "runtime", now_, kRepartitionCycles);
  }
  if (elog_on()) {
    obs::EventRecord rec = ev_base("carve", now_, cfg_.chip_id);
    rec.u64("lane", lanes_.size()).u64("degree", degree);
    rec.u64("ready", lane.free_at);
    event_log_->write(rec);
  }
  lanes_.push_back(lane);
  return &lanes_.back();
}

void ServingRuntime::reclaim_idle_lanes(unsigned needed,
                                        std::uint32_t for_degree) {
  for (Lane& lane : lanes_) {
    const unsigned usable = usable_banks();
    const unsigned free_banks =
        usable > allocated_banks_ ? usable - allocated_banks_ : 0;
    if (free_banks >= needed) return;
    if (lane.dead || lane.in_flight > 0 || lane.free_at > now_) continue;
    if (lane.degree == for_degree) continue;
    // Asked only here, for an idle lane of another class: nothing in
    // this loop changes the queue.
    const auto in_class = [&lane](const Request& r) {
      return r.degree == lane.degree;
    };
    if (any_queued(in_class)) continue;
    lane.dead = true;
    allocated_banks_ -= lane.banks;
  }
}

/// Service-time multiplier while a whole-chip brownout is active.
constexpr double kBrownoutSlowFactor = 3.0;

std::uint64_t ServingRuntime::launch(Request r, Lane* lane,
                                     std::uint64_t hedge_of) {
  const std::uint64_t t0 = now_;
  InFlight inf;
  inf.dispatched_at = t0;
  inf.is_hedge = hedge_of != 0;
  inf.hedge_partner = hedge_of;
  // Stamped at admission: the lane's unloaded service time, or
  // kHostOpCycles for a laneless host op (sampling / aggregation). A
  // host op has no bank accounting, fairness charge, hedging or chaos —
  // the host is outside the crossbar fault domain.
  std::uint64_t service = std::max<std::uint64_t>(r.service_cycles, 1);
  if (lane != nullptr) {
    const model::LaneTiming& g = geometry(r.degree);
    inf.lane = static_cast<std::size_t>(lane - lanes_.data());
    inf.is_probe = lane->breaker.note_dispatch(t0);
    if (inf.is_probe) report_.resilience.breaker_probes += 1;
    if (lane->health.note_dispatch()) {
      // The lane crossed its wear limit on this very write: it corrupts
      // from here on and only a remap onto fresh banks clears it. This
      // is the failure mode the proactive drain exists to prevent.
      lane->corrupt_until = kForever;
      report_.resilience.wear_corruptions += 1;
    }
    if (lane->health.wants_drain()) lane->draining = true;
    // Chaos episodes: a slowed lane stretches service, a corrupting one
    // (or a worn one) spoils the result.
    if (lane->slow_until > t0) {
      service = static_cast<std::uint64_t>(static_cast<double>(service) *
                                           kChaosSlowFactor);
    }
    inf.corrupt = t0 < lane->corrupt_until;
    // Whole-chip brownout: every dispatch in the episode runs slow.
    if (t0 < chip_slow_until_) {
      service = static_cast<std::uint64_t>(
          static_cast<double>(service) * kBrownoutSlowFactor);
    }
    inf.chip_corrupt = t0 < chip_corrupt_until_;
    lane->free_at = t0 + g.occupancy();
    lane->in_flight += 1;
    const std::uint64_t bank_cycles =
        static_cast<std::uint64_t>(lane->banks) * g.occupancy();
    report_.busy_bank_cycles += bank_cycles;
    // A hedge burns real bank-cycles but is not charged to the tenant's
    // fairness ledger — the duplicate is the runtime's choice, not theirs.
    if (hedge_of == 0) {
      report_.tenants.at(r.tenant).bank_cycles += bank_cycles;
      tenant_usage_[r.tenant] += static_cast<double>(bank_cycles);
    }
  }

  const std::uint64_t id = next_dispatch_id_++;
  if (hedge_of != 0) {
    report_.resilience.hedges += 1;
    report_.series.count(SeriesCounter::kHedges, t0);
  } else {
    if (lane == nullptr) report_.protocol.host_ops += 1;
    report_.series.count(SeriesCounter::kDispatched, t0);
    report_.series.observe(SeriesHistogram::kQueueWaitCycles, t0,
                           t0 - r.arrival_cycle);
  }
  if (elog_on()) {
    obs::EventRecord rec =
        op_event(hedge_of != 0 ? "hedge" : "dispatched", r);
    rec.u64("dispatch", id);
    if (hedge_of != 0) rec.u64("parent", hedge_of);
    if (lane != nullptr) {
      rec.u64("lane", inf.lane);
    } else {
      rec.flag("host", true);
    }
    if (hedge_of == 0) {
      rec.u64("wait", t0 - r.arrival_cycle);
      if (r.attempts > 0) rec.u64("attempt", r.attempts);
    }
    if (inf.is_probe) rec.flag("probe", true);
    if (hedge_of == 0 && protocol_chip()) {
      // The op's DAG node: the fan-out tests read these to check that
      // sibling limb ops landed on distinct lanes.
      const ProtoOp& op = node(r);
      rec.str("cls", op_class_name(op.cls));
      if (op.fanout_group != 0) rec.u64("group", op.fanout_group);
    }
    event_log_->write(rec);
  }
  auto& tr = obs::tracer();
  if (lane != nullptr && tr.enabled()) {
    // Flow chain anchor: first dispatch starts the request's arrow
    // chain; re-dispatches (retries) and hedges continue it.
    tr.flow(hedge_of == 0 && r.attempts == 0 ? 's' : 't', r.id, lane->track,
            "req " + std::to_string(r.id), "flow", t0);
  }
  inf.request = std::move(r);
  in_flight_.emplace(id, std::move(inf));
  push_event(EventKind::kCompletion, t0 + service, id);

  if (lane != nullptr && hedge_of == 0 && cfg_.resilience.hedge) {
    // Straggler check: if the request is still running after the hedge
    // delay, duplicate it onto a second lane (first result wins). The
    // check lands after the nominal completion only when the lane is
    // chaos-slowed — exactly the straggler case hedging targets.
    const std::uint64_t delay =
        hedge_delay(cfg_.resilience.hedge_delay_us, cfg_.cycles_per_us(),
                    service_hist_, kHedgeMinSamples);
    if (delay > 0) push_event(EventKind::kHedge, t0 + delay, id);
  }
  return id;
}

void ServingRuntime::on_op_complete(const Request& r,
                                    std::uint64_t dispatched_at) {
  const auto it = protos_.find(request_of(r.id));
  if (it == protos_.end()) return;  // request already failed: straggler op
  ProtoState& st = it->second;
  const std::uint64_t op = op_index_of(r.id);
  const std::uint64_t bit = std::uint64_t{1} << op;
  if (st.done_mask & bit) return;  // hedge twin already delivered this op
  st.done_mask |= bit;
  report_.protocol.ops_completed += 1;
  report_.protocol.op_cycles[static_cast<unsigned>(node(r).cls)].add(
      now_ - dispatched_at);
  if (std::popcount(st.done_mask) < std::ssize(dag_.ops)) {
    // Release each child whose last parent this was (children follow
    // their parents in the DAG's order); the caller's try_dispatch runs
    // them. Order in pending_ is moot: runs_before is a total order.
    for (std::size_t c = op + 1; c < dag_.ops.size(); ++c) {
      const std::uint64_t parents = dag_.ops[c].parent_mask;
      if ((parents & bit) == 0 || (st.done_mask & parents) != parents) {
        continue;
      }
      auto child = waiting_.extract(op_id(it->first, c));
      assert(!child.empty());
      pending_.push_back(std::move(child.mapped()));
    }
    return;
  }

  // Final op: the DAG joins and the protocol request completes exactly
  // once. Verified requests run the whole flow through the backend here
  // and compare against the pure-host reference.
  const ProtoState done = std::move(st);
  protos_.erase(it);
  const std::uint64_t latency = now_ - done.origin.arrival_cycle;
  report_.protocol.completed += 1;
  report_.protocol.latency_cycles.add(latency);
  bool ok = true;
  if (done.origin.verify) {
    report_.protocol.joins += 1;
    ok = proto_harness_->verify(done.origin.data_seed);
    if (ok) {
      report_.verified += 1;
    } else {
      report_.protocol.join_mismatches += 1;
      report_.verify_failures += 1;
    }
  }
  if (elog_on()) {
    obs::EventRecord rec = ev_base("join", now_, cfg_.chip_id, &done.origin);
    rec.u64("ops", dag_.ops.size());
    rec.u64("latency", latency).flag("ok", ok);
    event_log_->write(rec);
  }
  finish(done.origin, Outcome::kCompleted);
}

void ServingRuntime::fail_protocol(std::uint64_t request, Outcome o) {
  const auto it = protos_.find(request);
  if (it == protos_.end()) return;  // already terminal: exactly-once guard
  const ProtoState st = std::move(it->second);
  protos_.erase(it);
  // Every op neither done nor the one that died (which recorded its own
  // bad outcome) is cancelled once, wherever it is: queued, waiting, in
  // flight (a hedged op's two dispatches are one op) or backing off
  // before a retry, whose re-enqueue then finds no request.
  const auto cancelled = static_cast<std::uint64_t>(
      std::ssize(dag_.ops) - std::popcount(st.done_mask) - 1);
  const auto sibling = [request](const Request& op) {
    return request_of(op.id) == request;
  };
  std::erase_if(pending_, sibling);
  waiting_.erase(waiting_.lower_bound(op_id(request, 0)),
                 waiting_.lower_bound(op_id(request + 1, 0)));
  for (auto f = in_flight_.begin(); f != in_flight_.end();) {
    f = sibling(f->second.request) ? drop_in_flight(f) : std::next(f);
  }
  report_.protocol.ops_cancelled += cancelled;
  report_.protocol.failed += 1;
  if (elog_on()) {
    obs::EventRecord rec =
        ev_base("proto_failed", now_, cfg_.chip_id, &st.origin);
    rec.u64("ops_cancelled", cancelled);
    event_log_->write(rec);
  }
  finish(st.origin, o);
}

// -- settlement ---------------------------------------------------------------

void ServingRuntime::settle(const Request& r, Outcome o,
                            std::uint64_t dispatched_at) {
  if (!protocol_chip()) {
    finish(r, o);
  } else if (o == Outcome::kCompleted) {
    on_op_complete(r, dispatched_at);
  } else {
    fail_protocol(request_of(r.id), o);  // one dead op dooms its siblings
  }
}

void ServingRuntime::fail(const Request& r, Outcome o,
                          std::uint64_t& counter) {
  counter += 1;
  report_.series.count(o == Outcome::kShed       ? SeriesCounter::kShed
                       : o == Outcome::kTimedOut ? SeriesCounter::kTimedOut
                                                 : SeriesCounter::kFailed,
                       now_);
  if (elog_on()) {
    obs::EventRecord rec = op_event(outcome_name(o), r);
    if (o == Outcome::kShed) rec.u64("sojourn", now_ - r.arrival_cycle);
    event_log_->write(rec);
  }
  settle(r, o);
}

void ServingRuntime::finish(const Request& origin, Outcome o) {
  emit_outcome(origin, o);
  // Failed and rejected requests complete the closed-loop cycle too: the
  // client sees the result (or the error) and re-issues after thinking.
  // (Fleet drive has no generator: the front-end owns the loop.)
  if (workload_) {
    if (auto next = workload_->next_after_completion(origin, now_)) {
      push_event(EventKind::kArrival, next->cycle, 0, std::move(next->request));
    }
  }
}

void ServingRuntime::handle_completion(const Event& e) {
  const auto it = in_flight_.find(e.dispatch_id);
  if (it == in_flight_.end()) return;  // cancelled (bank failure / hedge)
  const InFlight inf = std::move(it->second);
  in_flight_.erase(it);
  const Request& r = inf.request;
  Lane* lane = inf.lane == kHostLane ? nullptr : &lanes_[inf.lane];

  if (lane != nullptr) {
    lane->in_flight -= 1;
    if (cfg_.resilience.hedge) service_hist_.add(now_ - inf.dispatched_at);
    // Hedged pair: first result wins, the loser is cancelled.
    if (inf.hedge_partner != 0) {
      cancel_in_flight(inf.hedge_partner);
      if (inf.is_hedge) report_.resilience.hedge_wins += 1;
    }
    // A corrupt result caught on completion is never delivered as good.
    // A whole-chip storm is always caught; a lane's chaos/wear window by
    // the layered checks of the reliability stack (write-verify, parity,
    // Freivalds) unless chaos_detect is off. The chip's own retries get a
    // shot; once they are exhausted (or with none configured) the request
    // fails — a storm result is surrendered to the fleet for a cross-chip
    // retry.
    const bool storm = inf.chip_corrupt;
    if (storm || (inf.corrupt && cfg_.resilience.chaos_detect)) {
      (storm ? report_.chip_corruptions
             : report_.resilience.detected_corruptions) += 1;
      if (elog_on()) {
        obs::EventRecord rec = op_event(
            storm ? "chip_corruption_detected" : "corruption_detected", r);
        rec.u64("dispatch", e.dispatch_id).u64("lane", inf.lane);
        event_log_->write(rec);
      }
      record_lane_outcome(*lane, false);
      remap_if_drained(*lane);
      if (!schedule_retry(r, /*count_as_bank_retry=*/false)) {
        fail(r, Outcome::kFailed,
             storm ? report_.chip_failed : report_.resilience.failed);
      }
      try_dispatch();
      return;
    }
    // Detection disabled: the corrupt result sails through as if good
    // (this counter existing at zero is what proves the checks work).
    if (inf.corrupt) report_.resilience.wrong_accepted += 1;
    record_lane_outcome(*lane, /*ok=*/true);
  }

  const std::uint64_t latency = now_ - r.arrival_cycle;
  report_.completed += 1;
  report_.latency_cycles.add(latency);
  report_.series.count(SeriesCounter::kCompleted, now_);
  report_.series.observe(SeriesHistogram::kLatencyCycles, now_, latency);
  if (cfg_.slo.latency_violated(latency, cfg_.cycles_per_us())) {
    report_.series.count(SeriesCounter::kLatencyViolations, now_);
  }
  TenantStats& ts = report_.tenants.at(r.tenant);
  ts.completed += 1;
  ts.latency_cycles.add(latency);
  if (r.deadline_cycle > 0 && now_ > r.deadline_cycle) {
    report_.deadline_misses += 1;
    ts.deadline_misses += 1;
  }
  if (elog_on()) {
    obs::EventRecord rec = op_event("completed", r);
    rec.u64("dispatch", e.dispatch_id);
    if (lane != nullptr) {
      rec.u64("lane", inf.lane);
    } else {
      rec.flag("host", true);
    }
    rec.u64("latency", latency);
    if (inf.is_hedge) rec.flag("hedge", true);
    event_log_->write(rec);
  }
  auto& tr = obs::tracer();
  if (lane != nullptr && tr.enabled()) {
    tr.emit(lane->track,
            "req " + std::to_string(r.id) + " t" + std::to_string(r.tenant),
            "runtime", inf.dispatched_at, now_ - inf.dispatched_at);
    // Terminal point of the request's flow-arrow chain.
    tr.flow('f', r.id, lane->track, "req " + std::to_string(r.id), "flow",
            now_);
  }
  // DAG ops verify at the protocol join (the whole flow through the
  // backend), not per-op with Freivalds.
  if (r.verify && !protocol_chip()) verify_result(r);

  if (lane != nullptr) remap_if_drained(*lane);
  settle(r, Outcome::kCompleted, inf.dispatched_at);
  try_dispatch();
}

void ServingRuntime::handle_bank_failure(const Event&) {
  report_.bank_failures += kBanksPerFailure;
  failed_banks_ += kBanksPerFailure;
  report_.series.count(SeriesCounter::kBankFailures, now_, kBanksPerFailure);
  if (elog_on()) {
    obs::EventRecord rec = ev_base("bank_failure", now_, cfg_.chip_id);
    rec.u64("banks", kBanksPerFailure);
    event_log_->write(rec);
  }

  // Deterministic victim: the failure strikes the busiest live lane (most
  // in-flight work, lowest index on ties) — its in-flight requests retry
  // from the queue and the lane pays a repartition to remap onto a spare
  // (or is torn down once the chip shrank below its footprint).
  auto pick_victim = [this]() -> Lane* {
    Lane* victim = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.dead) continue;
      if (!victim || lane.in_flight > victim->in_flight) victim = &lane;
    }
    return victim;
  };

  // Requeue one torn-down in-flight request. Under the resilience layer
  // a victim with a live hedged twin is simply dropped (the twin still
  // delivers), and teardown retries flow through the backoff + budget
  // path so repeated failures cannot amplify into a storm.
  auto requeue_victim = [this](const InFlight& inf) {
    if (protocol_chip() && !protos_.contains(request_of(inf.request.id))) {
      return;  // its protocol was already torn down whole this failure
    }
    if (elog_on()) {
      obs::EventRecord rec = op_event("torn_down", inf.request);
      rec.u64("lane", inf.lane);
      event_log_->write(rec);
    }
    if (inf.hedge_partner != 0 && in_flight_.count(inf.hedge_partner) != 0) {
      return;
    }
    if (cfg_.resilience.max_retries > 0) {
      if (!schedule_retry(inf.request, /*count_as_bank_retry=*/true)) {
        fail(inf.request, Outcome::kFailed, report_.resilience.failed);
      }
      return;
    }
    pending_.push_back(inf.request);
    report_.retried += 1;
    report_.series.count(SeriesCounter::kRetries, now_);
  };

  // One victim is enough: a failure takes kBanksPerFailure (1) bank, and
  // every lane holds at least 2, so tearing one lane down brings what is
  // allocated back within the shrunken pool.
  if (Lane* victim = pick_victim()) {
    auto& tr = obs::tracer();
    if (tr.enabled()) {
      tr.emit(runtime_track_base(), "bank failure", "runtime", now_,
              kRepartitionCycles);
    }
    // Beyond the spare pool the lane's banks are gone for good; it dies
    // before its dispatches end, so their drops cannot remap it.
    const bool lost = allocated_banks_ > usable_banks();
    if (lost) {
      report_.repartitions += 1;
      victim->dead = true;
      allocated_banks_ -= victim->banks;
    }
    // A draining lane always has work in flight, so a surviving draining
    // victim takes its wear remap on its last drop, on the spare.
    assert(!victim->draining || victim->in_flight > 0);
    const bool remapped = !lost && victim->draining;
    // Every dispatch on the lane ends through drop_in_flight *before* any
    // requeue runs: a protocol-op requeue that exhausts its retries tears
    // the whole protocol down (fail_protocol drops sibling in_flight_
    // entries), which would invalidate this sweep's iterator. Hedged
    // twins always sit on distinct lanes, so a same-sweep pair is
    // impossible and the first-wins drop logic is unaffected.
    const auto lane_idx = static_cast<std::size_t>(victim - lanes_.data());
    std::vector<InFlight> torn;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (it->second.lane == lane_idx) {
        torn.push_back(it->second);
        it = drop_in_flight(it);
      } else {
        ++it;
      }
    }
    for (const InFlight& inf : torn) requeue_victim(inf);
    if (!lost && !remapped) {
      // A spare absorbed the failure; the lane re-forms after the remap.
      report_.repartitions += 1;
      victim->free_at = std::max(victim->free_at, now_) +
                        kRepartitionCycles;
      schedule_scan(victim->free_at);
    }
  }
  assert(allocated_banks_ <= usable_banks());
  try_dispatch();
}

void ServingRuntime::verify_result(const Request& r) {
  // Materialise the operands from the request's seed, produce the result
  // through the configured execution backend, and Freivalds-check it.
  // A degree without a paper parameter set (above 32k: segmented
  // execution) is skipped. Parameter sets are cached per degree class;
  // the backend caches its engines/simulators internally.
  thread_local std::map<std::uint32_t, std::unique_ptr<ntt::NttParams>> cache;
  auto it = cache.find(r.degree);
  if (it == cache.end()) {
    try {
      it = cache.emplace(r.degree, std::make_unique<ntt::NttParams>(
                                       ntt::NttParams::for_degree(r.degree)))
               .first;
    } catch (const std::exception&) {
      cache.emplace(r.degree, nullptr);
      return;
    }
  }
  if (!it->second) return;
  const ntt::NttParams& params = *it->second;

  Xoshiro256 rng(r.data_seed);
  const auto a = ntt::sample_uniform(params.n, params.q, rng);
  const auto b = ntt::sample_uniform(params.n, params.q, rng);
  const auto res = backend_->execute(params, a, b);
  reliability::VerifyConfig vc;
  vc.points = cfg_.verify_points;
  vc.seed = r.data_seed ^ 0x5eed5eedULL;
  reliability::ResultVerifier verifier(params, vc);
  if (verifier.check(a, b, res.product)) {
    report_.verified += 1;
  } else {
    report_.verify_failures += 1;
  }
}

// -- resilience ---------------------------------------------------------------

void ServingRuntime::handle_timeout(const Event& e) {
  // Queued-timeout cancellation: the deadline passed while the request
  // sat in the admission queue (one op past it times its whole DAG out).
  // A dispatched request is past saving by cancellation (the lane slot is
  // spent either way) so it is left to complete and count a deadline miss.
  // An op waiting for a parent is queued too.
  Request r;
  if (auto w = waiting_.extract(e.dispatch_id)) {
    r = w.mapped();
  } else if (const auto it = std::ranges::find(pending_, e.dispatch_id,
                                               &Request::id);
             it != pending_.end()) {
    r = *it;
    pending_.erase(it);
  } else {
    return;
  }
  fail(r, Outcome::kTimedOut, report_.resilience.timed_out);
}

void ServingRuntime::handle_retry_enqueue(const Event& e) {
  // Retries re-enter the queue past the capacity check: the request was
  // already admitted (and counted) once; capacity governs new work.
  if (protocol_chip() && !protos_.contains(request_of(e.request.id))) {
    return;  // its protocol was torn down while the retry backed off
  }
  pending_.push_back(e.request);
  try_dispatch();
}

void ServingRuntime::handle_hedge(const Event& e) {
  const auto it = in_flight_.find(e.dispatch_id);
  if (it == in_flight_.end()) return;        // finished before the check
  if (it->second.is_hedge) return;           // never hedge a hedge
  if (it->second.hedge_partner != 0) return;  // already hedged
  // Only a lane that is free *right now* and distinct from the
  // straggler's own: a hedge that would queue is worthless.
  Lane* lane = acquire_lane(it->second.request, &it->second);
  if (!lane) return;
  it->second.hedge_partner = launch(it->second.request, lane, e.dispatch_id);
}

void ServingRuntime::handle_health(const Event&) {
  health_tick_armed_ = false;
  for (Lane& lane : lanes_) {
    if (lane.dead) continue;
    // launch() sets draining on the dispatch that reaches the drain share,
    // and every path that empties a draining lane remaps it at once.
    assert(lane.draining ? lane.in_flight > 0 : !lane.health.wants_drain());
    // Background scrub: an unhealthy lane with nothing in flight and no
    // imminent work re-programs its cells during the idle window. Scrubs
    // forgive transient failure history; they cannot un-wear a column.
    if (lane.health.wants_scrub() && lane.in_flight == 0 &&
        lane.free_at <= now_) {
      lane.free_at = now_ + kScrubCycles;
      lane.health.scrub();
      report_.resilience.scrubs += 1;
      auto& tr = obs::tracer();
      if (tr.enabled()) {
        tr.emit(lane.track, "scrub", "resilience", now_, kScrubCycles);
      }
    }
  }
  // Keep ticking while the simulation is live; stop once arrivals are
  // done and the pipes have drained so the event loop can terminate. A
  // backlog alone is not liveness: requests stranded by degradation
  // (their class's footprint exceeds the surviving banks) can never
  // dispatch, and ticking for them would spin forever — run() surfaces
  // them as `queued` instead.
  const bool pending_servable = any_queued([this](const Request& r) {
    return geometry(r.degree).banks <= usable_banks();
  });
  if (now_ < horizon_ || !in_flight_.empty() || pending_servable) {
    arm_health_tick(kHealthPeriodCycles);
  }
}

void ServingRuntime::handle_chaos(const Event&) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].dead) live.push_back(i);
  }
  if (!live.empty()) {
    const std::size_t idx =
        live[chaos_rng_.next_below(live.size())];
    Lane& lane = lanes_[idx];
    const std::uint64_t dur = exponential_cycles(
        chaos_rng_, kChaosMeanDurationUs * cfg_.cycles_per_us());
    const bool slow = uniform_unit(chaos_rng_) < kChaosSlowFraction;
    if (slow) {
      lane.slow_until = std::max(lane.slow_until, now_ + dur);
    } else if (lane.corrupt_until != kForever) {
      lane.corrupt_until = std::max(lane.corrupt_until, now_ + dur);
    }
    report_.resilience.chaos_episodes += 1;
    auto& tr = obs::tracer();
    if (tr.enabled()) {
      tr.emit(lane.track, slow ? "chaos: slow" : "chaos: corrupt",
              "resilience", now_, dur);
    }
  }
  arm_chaos_episode();
}

bool ServingRuntime::schedule_retry(Request r, bool count_as_bank_retry) {
  const ResilienceConfig& res = cfg_.resilience;
  if (r.attempts >= res.max_retries) return false;
  const std::uint64_t backoff = retry_backoff(
      kRetryBackoffCycles, kRetryBackoffCapCycles, r.attempts + 1);
  // A retry that cannot finish by the deadline is not worth a token.
  if (r.deadline_cycle > 0 &&
      now_ + backoff + r.service_cycles > r.deadline_cycle) {
    return false;
  }
  if (retry_budget_ && !retry_budget_->try_spend(r.tenant)) {
    report_.resilience.retry_budget_denied += 1;
    return false;
  }
  r.attempts += 1;
  report_.resilience.retries += 1;
  report_.series.count(SeriesCounter::kRetries, now_);
  if (count_as_bank_retry) report_.retried += 1;
  if (elog_on()) {
    obs::EventRecord rec = op_event("retry", r);
    rec.u64("attempt", r.attempts).u64("backoff", backoff);
    event_log_->write(rec);
  }
  push_event(EventKind::kRetryEnqueue, now_ + backoff, 0, std::move(r));
  return true;
}

void ServingRuntime::record_lane_outcome(Lane& lane, bool ok) {
  lane.health.record(ok);
  if (!lane.breaker.enabled()) return;
  const auto prev = lane.breaker.state();
  if (lane.breaker.record(ok, now_)) report_.resilience.breaker_opens += 1;
  if (ok && prev == CircuitBreaker::State::kHalfOpen) {
    report_.resilience.breaker_closes += 1;
  }
  if (lane.breaker.state() == CircuitBreaker::State::kOpen) {
    // Re-scan when the open period elapses so queued work in this class
    // is not stranded if this was its only lane.
    schedule_scan(lane.breaker.open_until());
  }
}

void ServingRuntime::cancel_in_flight(std::uint64_t dispatch_id) {
  const auto it = in_flight_.find(dispatch_id);
  if (it == in_flight_.end()) return;  // already gone
  if (elog_on()) {
    obs::EventRecord rec = op_event("cancelled", it->second.request);
    rec.u64("dispatch", dispatch_id).u64("lane", it->second.lane);
    event_log_->write(rec);
  }
  report_.resilience.hedge_cancelled += 1;
  drop_in_flight(it);
}

ServingRuntime::InFlightMap::iterator ServingRuntime::drop_in_flight(
    InFlightMap::iterator it) {
  const InFlight& inf = it->second;
  if (inf.lane != kHostLane) {
    Lane& lane = lanes_[inf.lane];
    lane.in_flight -= 1;
    if (inf.is_probe) {
      // A cancelled half-open probe reports no outcome; without this the
      // breaker waits for it forever and the lane never accepts again.
      lane.breaker.note_cancelled(now_);
      if (!lane.breaker.can_accept(now_)) {
        schedule_scan(lane.breaker.open_until());
      }
    }
    remap_if_drained(lane);
  }
  return in_flight_.erase(it);  // its kCompletion event will find nothing
}

bool ServingRuntime::remap_if_drained(Lane& lane) {
  if (lane.dead || !lane.draining || lane.in_flight > 0) return false;
  lane.draining = false;
  lane.slow_until = 0;
  lane.corrupt_until = 0;
  lane.free_at = std::max(lane.free_at, now_) + kRepartitionCycles;
  lane.reset_resilience(cfg_.resilience);
  report_.resilience.proactive_remaps += 1;
  report_.repartitions += 1;
  schedule_scan(lane.free_at);
  auto& tr = obs::tracer();
  if (tr.enabled()) {
    tr.emit(runtime_track_base(),
            "wear remap lane " + std::to_string(&lane - lanes_.data()),
            "resilience", now_, kRepartitionCycles);
  }
  return true;
}

void ServingRuntime::arm_health_tick(std::uint64_t delay) {
  if (health_tick_armed_) return;
  health_tick_armed_ = true;
  // A zero period would pop and re-arm in an infinite same-cycle loop
  // (the livelock schedule_scan guards against); tick next cycle at the
  // earliest.
  push_event(EventKind::kHealth, now_ + std::max<std::uint64_t>(delay, 1));
}

void ServingRuntime::arm_chaos_episode() {
  // Episodes strike only within the arrival horizon; the drain phase
  // runs fault-free so the event loop terminates.
  const std::uint64_t gap = exponential_cycles(
      chaos_rng_, kChaosMeanIntervalUs * cfg_.cycles_per_us());
  const std::uint64_t at = now_ + gap;
  if (at > horizon_) return;
  push_event(EventKind::kChaos, at);
}

}  // namespace cryptopim::runtime
