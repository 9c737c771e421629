#include "runtime/fleet.h"

#include <algorithm>
#include <stdexcept>

namespace cryptopim::runtime {

namespace {

/// Cross-chip retry backoff: doubled per attempt up to the cap.
constexpr std::uint64_t kRetryBackoffCycles = 2048;
constexpr std::uint64_t kRetryBackoffCapCycles = 1 << 20;
/// Chip health tick period, simulated us.
constexpr double kHealthPeriodUs = 100.0;
/// Drain a chip when its terminal-failure ratio over one health tick
/// exceeds this, with at least kHealthMinSamples outcomes observed.
constexpr double kDrainFailRate = 0.5;
constexpr std::uint64_t kHealthMinSamples = 16;
/// Drain/crash -> rejoin delay: a chip scrubs this long, simulated us.
constexpr double kScrubUs = 500.0;
/// Chip chaos episode mix: P(crash), then P(brownout); the rest are
/// corruption storms.
constexpr double kCrashFraction = 0.25;
constexpr double kBrownoutFraction = 0.4;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Consistent hashing over the candidate set: each chip projects
/// kVnodes virtual nodes onto the hash circle and a request's tenant
/// key lands on the next vnode clockwise. A chip leaving only remaps
/// the keys that landed on its own vnodes — tenants stick to "their"
/// replica across unrelated membership churn.
class HashRouter final : public Router {
 public:
  static constexpr unsigned kVnodes = 16;
  std::uint32_t pick(const Request& r,
                     const std::vector<ChipView>& c) override {
    const std::uint64_t key = splitmix64(r.tenant * 0x9e3779b9ULL + 1);
    std::uint32_t best = c.front().id;
    std::uint64_t best_h = 0;
    bool wrapped = true;  // until a vnode >= key is found, track the min
    std::uint64_t min_h = ~std::uint64_t{0};
    std::uint32_t min_id = c.front().id;
    for (const ChipView& v : c) {
      for (unsigned k = 0; k < kVnodes; ++k) {
        const std::uint64_t h =
            splitmix64((std::uint64_t{v.id} << 8) * 131 + k * 1009 + 7);
        if (h < min_h) {
          min_h = h;
          min_id = v.id;
        }
        if (h >= key && (wrapped || h < best_h)) {
          wrapped = false;
          best_h = h;
          best = v.id;
        }
      }
    }
    return wrapped ? min_id : best;
  }
};

/// Least-loaded: fewest queued + in-flight requests, lowest id on ties.
class LeastLoadedRouter final : public Router {
 public:
  std::uint32_t pick(const Request&,
                     const std::vector<ChipView>& c) override {
    const ChipView* best = &c.front();
    for (const ChipView& v : c) {
      const std::size_t load = v.queue_depth + v.in_flight;
      const std::size_t best_load = best->queue_depth + best->in_flight;
      if (load < best_load || (load == best_load && v.id < best->id)) {
        best = &v;
      }
    }
    return best->id;
  }
};

/// Degree affinity: always the class's first live placement (the
/// primary while it is up), so each degree class concentrates on few
/// chips and lane carving churn stays minimal.
class AffinityRouter final : public Router {
 public:
  std::uint32_t pick(const Request&,
                     const std::vector<ChipView>& c) override {
    return c.front().id;
  }
};

}  // namespace

std::unique_ptr<Router> make_router(const std::string& name) {
  if (name == "hash") return std::make_unique<HashRouter>();
  if (name == "least") return std::make_unique<LeastLoadedRouter>();
  if (name == "affinity") return std::make_unique<AffinityRouter>();
  return nullptr;
}

// -- report -------------------------------------------------------------------

obs::Json FleetReport::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("schema", "fleet/1");
  j.set("fleet", std::uint64_t{chips});
  j.set("router", router);
  j.set("replicas", std::uint64_t{replicas});
  j.set("duration_cycles", duration_cycles);
  j.set("drain_cycle", drain_cycle);
  j.set("submitted", submitted);
  j.set("completed", completed);
  j.set("rejected", rejected);
  j.set("shed", shed);
  j.set("timed_out", timed_out);
  j.set("failed", failed);
  j.set("queued", queued);
  j.set("routed", routed);
  j.set("reshards", reshards);
  j.set("parked", parked);
  j.set("cross_retries", cross_retries);
  j.set("retry_budget_denied", retry_budget_denied);
  j.set("drains", drains);
  j.set("crashes", crashes);
  j.set("brownouts", brownouts);
  j.set("corruption_storms", corruption_storms);
  j.set("rejoins", rejoins);
  j.set("migrated", migrated);
  j.set("redispatched", redispatched);
  obs::Json lat = obs::Json::object();
  lat.set("count", latency_cycles.count());
  lat.set("mean_cycles", latency_cycles.mean());
  lat.set("p50_cycles", latency_cycles.quantile(0.50));
  lat.set("p99_cycles", latency_cycles.quantile(0.99));
  lat.set("p999_cycles", latency_cycles.quantile(0.999));
  lat.set("p50_us",
          static_cast<double>(latency_cycles.quantile(0.50)) / cycles_per_us);
  lat.set("p99_us",
          static_cast<double>(latency_cycles.quantile(0.99)) / cycles_per_us);
  lat.set("max_cycles", latency_cycles.max());
  j.set("latency", std::move(lat));
  j.set("throughput_per_s", throughput_per_s);
  j.set("offered_per_s", offered_per_s);
  obs::Json per_chip = obs::Json::array();
  for (const ServingReport& r : chip_reports) per_chip.push_back(r.to_json());
  j.set("chips", std::move(per_chip));
  return j;
}

// -- runtime ------------------------------------------------------------------

struct FleetRuntime::ChipState {
  enum class State : std::uint8_t { kUp, kScrubbing, kDown };
  State state = State::kUp;
  // Health window: terminal outcomes since the last health tick.
  std::uint64_t outcomes = 0;
  std::uint64_t failures = 0;
};

/// One fleet-visible request from arrival to its final fate. At most
/// one chip holds it at a time: it is queued or running there, in a
/// cross-chip retry's backoff, or parked. The entry is erased when a
/// chip's outcome settles it.
struct FleetRuntime::Outstanding {
  Request original;
  unsigned attempts = 0;  ///< cross-chip re-dispatches consumed
  std::uint32_t last_chip = 0;
};

FleetRuntime::FleetRuntime(FleetConfig cfg) : cfg_(std::move(cfg)) {}
FleetRuntime::~FleetRuntime() = default;

void FleetRuntime::set_event_log(obs::EventLog* log) noexcept {
  event_log_ = log;
}

std::size_t FleetRuntime::class_index(std::uint32_t degree) const {
  const auto& mix = cfg_.chip.workload.mix;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].degree == degree) return i;
  }
  return 0;  // unreachable: requests are sampled from the mix
}

void FleetRuntime::prime() {
  if (cfg_.chips == 0) throw std::invalid_argument("fleet needs >= 1 chip");
  if (cfg_.chip.closed_loop_clients > 0) {
    throw std::invalid_argument("fleet serving is open-loop only");
  }
  router_ = make_router(cfg_.router);
  if (!router_) throw std::invalid_argument("unknown router: " + cfg_.router);
  if (cfg_.kill_chip >= cfg_.chips) {
    throw std::invalid_argument("kill_chip is not a chip of the fleet");
  }
  // A kill past the arrival horizon would stretch the drain clock to it.
  if (cfg_.kill_chip_at_us > cfg_.chip.duration_us) {
    throw std::invalid_argument("kill_chip_at_us is past the arrival horizon");
  }
  cfg_.replicas = std::max<std::uint32_t>(
      1, std::min(cfg_.replicas, cfg_.chips));

  const double cyc_per_us = cfg_.chip.cycles_per_us();
  horizon_ = static_cast<std::uint64_t>(cfg_.chip.duration_us * cyc_per_us);

  report_ = FleetReport{};
  report_.chips = cfg_.chips;
  report_.router = cfg_.router;
  report_.replicas = cfg_.replicas;
  report_.duration_cycles = horizon_;
  report_.cycles_per_us = cyc_per_us;

  if (durab_.enabled()) {
    fleet_journal_ = open_journal(durab_, "fleet.log", "fleet", 0,
                                  cfg_.chip.workload.seed,
                                  fleet_config_to_json(cfg_));
  }

  chips_.clear();
  states_.assign(cfg_.chips, ChipState{});
  for (std::uint32_t i = 0; i < cfg_.chips; ++i) {
    ServingConfig cc = cfg_.chip;
    cc.chip_id = i;
    // De-correlate per-lane chaos across chips: with one shared seed every
    // chip would strike in lockstep, defeating replication.
    if (cc.resilience.chaos.enabled) cc.resilience.chaos.seed += i;
    auto chip = std::make_unique<ServingRuntime>(std::move(cc), clock_);
    chip->set_event_log(event_log_);
    chip->set_outcome_sink(
        [this, i](const Request& r, Outcome o, std::uint64_t cycle) {
          on_outcome(i, r, o, cycle);
        });
    // The chip journal's header fingerprints the chip's *effective*
    // config (post chip_id / chaos-seed rewrite).
    chip->enable_durability(durab_);
    chip->prime();
    chips_.push_back(std::move(chip));
  }

  shard_map_.assign(cfg_.chip.workload.mix.size(), {});
  rebuild_shard_map(/*trigger_chip=*/0);
  report_.reshards = 0;  // the initial build is placement, not a re-shard

  const std::uint32_t tenants =
      std::max<std::uint32_t>(cfg_.chip.workload.tenants, 1);
  retry_budget_ =
      std::make_unique<RetryBudget>(tenants, cfg_.retry_budget_ratio);
  chaos_rng_ = Xoshiro256(cfg_.chaos.seed);

  const double rate_per_cycle =
      cfg_.chip.arrival_rate_per_s / (1e9 / cfg_.chip.cycle_ns);
  if (rate_per_cycle <= 0) {
    throw std::invalid_argument("arrival rate must be positive");
  }
  workload_ = std::make_unique<OpenLoopPoisson>(cfg_.chip.workload,
                                                rate_per_cycle, horizon_);
  for (const auto& a : workload_->initial()) {
    push_event(EventKind::kFleetArrival, a.cycle, 0, a.request);
  }

  if (cfg_.chaos.enabled) arm_chaos_episode();
  if (cfg_.kill_chip_at_us > 0) {
    push_event(EventKind::kFleetChaos,
               static_cast<std::uint64_t>(cfg_.kill_chip_at_us * cyc_per_us),
               std::uint64_t{cfg_.kill_chip} + 1);  // forced crash marker
  }
  arm_health_tick();
}

void FleetRuntime::main_loop() {
  // One timeline: pop the earliest (cycle, namespaced seq) event and hand
  // it to the chip whose namespace it carries, or to the fleet's own
  // handler. The order is strict and total, so the interleaving — and
  // therefore every counter and record — is deterministic.
  while (!clock_.events.empty()) {
    if (fleet_journal_) {
      durability_boundary(durab_, clock_.event_index, *fleet_journal_,
                          [this] { return snapshot_state(); });
    }
    const Event e = clock_.events.pop();
    now_ = std::max(now_, e.cycle);
    report_.drain_cycle = std::max(report_.drain_cycle, e.cycle);
    const std::uint32_t ns = EventQueue::ns(e);
    if (ns == cfg_.chips) {
      handle_fleet_event(e);
    } else {
      chips_[ns]->handle(e);
    }
    clock_.event_index += 1;
  }
}

FleetReport FleetRuntime::run() {
  prime();
  main_loop();
  return seal();
}

FleetReport FleetRuntime::seal() {
  // Unresolved requests (parked with every candidate down, or stranded
  // in a starved chip queue) surface as fleet `queued`.
  report_.queued = outstanding_.size();
  outstanding_.clear();
  parked_.clear();
  for (auto& chip : chips_) report_.chip_reports.push_back(chip->seal());
  if (report_.drain_cycle > 0) {
    const double drain_s = static_cast<double>(report_.drain_cycle) *
                           cfg_.chip.cycle_ns * 1e-9;
    report_.throughput_per_s =
        static_cast<double>(report_.completed) / drain_s;
  }
  if (horizon_ > 0) {
    report_.offered_per_s =
        static_cast<double>(report_.submitted) /
        (static_cast<double>(horizon_) * cfg_.chip.cycle_ns * 1e-9);
  }
  if (fleet_journal_) {
    fleet_journal_->record(Journal::seal_payload(
        clock_.event_index, now_,
        {{"sub", report_.submitted},
         {"cmp", report_.completed},
         {"rej", report_.rejected},
         {"shd", report_.shed},
         {"tmo", report_.timed_out},
         {"fld", report_.failed},
         {"que", report_.queued},
         {"rtd", report_.routed},
         {"xrt", report_.cross_retries}}));
  }
  return report_;
}

obs::Json FleetRuntime::snapshot_state() const {
  obs::Json s = obs::Json::object();
  s.set("cycle", now_);
  s.set("event_index", clock_.event_index);

  obs::Json counters = obs::Json::object();
  counters.set("submitted", report_.submitted);
  counters.set("completed", report_.completed);
  counters.set("rejected", report_.rejected);
  counters.set("shed", report_.shed);
  counters.set("timed_out", report_.timed_out);
  counters.set("failed", report_.failed);
  counters.set("routed", report_.routed);
  counters.set("cross_retries", report_.cross_retries);
  counters.set("reshards", report_.reshards);
  counters.set("drains", report_.drains);
  counters.set("crashes", report_.crashes);
  counters.set("rejoins", report_.rejoins);
  s.set("counters", std::move(counters));

  obs::Json chip_states = obs::Json::array();
  for (const ChipState& cs : states_) {
    obs::Json cj = obs::Json::object();
    cj.set("state", std::uint64_t{static_cast<unsigned>(cs.state)});
    cj.set("outcomes", cs.outcomes);
    cj.set("failures", cs.failures);
    chip_states.push_back(std::move(cj));
  }
  s.set("chip_states", std::move(chip_states));

  obs::Json shard = obs::Json::array();
  for (const auto& placement : shard_map_) {
    obs::Json row = obs::Json::array();
    for (const std::uint32_t id : placement) {
      row.push_back(std::uint64_t{id});
    }
    shard.push_back(std::move(row));
  }
  s.set("shard_map", std::move(shard));

  s.set("outstanding", std::uint64_t{outstanding_.size()});
  s.set("parked", std::uint64_t{parked_.size()});

  obs::Json rngs = obs::Json::object();
  rngs.set("workload", workload_->rng_digest());
  rngs.set("chaos", chaos_rng_.digest());
  s.set("rng", std::move(rngs));

  // Every chip's own state dump: one fleet snapshot captures the whole
  // machine (lanes, breakers, wear, WFQ ledgers, per-chip RNG cursors).
  obs::Json chips = obs::Json::array();
  for (const auto& chip : chips_) chips.push_back(chip->snapshot_state());
  s.set("chips", std::move(chips));
  return s;
}

void FleetRuntime::handle_fleet_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kFleetArrival: handle_fleet_arrival(e); break;
    case EventKind::kFleetRetry: handle_fleet_retry(e); break;
    case EventKind::kFleetHealth: handle_fleet_health(); break;
    case EventKind::kFleetChaos: handle_fleet_chaos(e); break;
    case EventKind::kFleetChipUp: handle_chip_up(e); break;
    default: break;  // chip kinds live in the chips' namespaces
  }
}

void FleetRuntime::handle_fleet_arrival(const Event& e) {
  report_.submitted += 1;
  // Chain the next arrival before routing: backpressure anywhere in the
  // fleet never throttles the offered stream.
  Arrival this_arrival{e.cycle, e.request};
  if (auto next = workload_->next_after_arrival(this_arrival)) {
    push_event(EventKind::kFleetArrival, next->cycle, 0, next->request);
  }
  retry_budget_->on_admitted(e.request.tenant);
  Outstanding ent;
  ent.original = e.request;
  outstanding_.emplace(e.request.id, std::move(ent));
  // Fleet admission commitment: the request is now the fleet's to settle
  // (exactly one terminal fate), journaled before any chip sees it.
  if (fleet_journal_) {
    fleet_journal_->record(
        Journal::admit_payload(clock_.event_index, now_, e.request));
  }
  dispatch_to_fleet(e.request, /*first=*/true);
}

std::vector<ChipView> FleetRuntime::candidates_for(
    std::uint32_t degree) const {
  std::vector<ChipView> out;
  for (const std::uint32_t id : shard_map_[class_index(degree)]) {
    if (states_[id].state != ChipState::State::kUp) continue;
    out.push_back(ChipView{id, chips_[id]->pending_count(),
                           chips_[id]->in_flight_count()});
  }
  return out;
}

bool FleetRuntime::dispatch_to_fleet(const Request& r, bool first) {
  const auto candidates = candidates_for(r.degree);
  if (candidates.empty()) {
    parked_.push_back(r);
    report_.parked += 1;
    return false;
  }
  const std::uint32_t target = router_->pick(r, candidates);
  outstanding_.at(r.id).last_chip = target;
  chips_[target]->inject(r, now_);
  if (first) report_.routed += 1;
  return true;
}

void FleetRuntime::on_outcome(std::uint32_t chip, const Request& r, Outcome o,
                              std::uint64_t cycle) {
  // The one chip holding the request reports it once; nothing else
  // settles an entry.
  Outstanding& ent = outstanding_.at(r.id);
  ChipState& cs = states_[chip];
  cs.outcomes += 1;
  cs.failures += o != Outcome::kCompleted;

  // Cross-chip retry: re-dispatch the original through the router under
  // the fleet budget, backing off exponentially per attempt.
  if (o != Outcome::kCompleted && ent.attempts < cfg_.max_retries) {
    if (retry_budget_->try_spend(r.tenant)) {
      ent.attempts += 1;
      push_event(EventKind::kFleetRetry,
                 cycle + retry_backoff(kRetryBackoffCycles,
                                       kRetryBackoffCapCycles, ent.attempts),
                 0, ent.original);
      return;
    }
    report_.retry_budget_denied += 1;
  }
  // Final fate: this outcome.
  switch (o) {
    case Outcome::kCompleted:
      report_.completed += 1;
      report_.latency_cycles.add(cycle - ent.original.arrival_cycle);
      break;
    case Outcome::kRejected: report_.rejected += 1; break;
    case Outcome::kShed: report_.shed += 1; break;
    case Outcome::kTimedOut: report_.timed_out += 1; break;
    case Outcome::kFailed: report_.failed += 1; break;
  }
  // Final-fate settlement: exactly one out record per fleet request.
  if (fleet_journal_) {
    fleet_journal_->record(
        Journal::outcome_payload(clock_.event_index, cycle, r.id, o));
  }
  outstanding_.erase(r.id);
}

void FleetRuntime::handle_fleet_retry(const Event& e) {
  // Counted when the retry lands on a chip: one that finds every
  // candidate down parks, and the rejoin that routes it counts it as
  // redispatched.
  if (!dispatch_to_fleet(e.request, /*first=*/false)) return;
  report_.cross_retries += 1;
  if (elog_on()) {
    const Outstanding& ent = outstanding_.at(e.request.id);
    obs::EventRecord rec =
        ev_base("fleet_retry", now_, ent.last_chip, &e.request);
    rec.u64("attempt", ent.attempts);
    event_log_->write(rec);
  }
}

void FleetRuntime::handle_fleet_health() {
  health_armed_ = false;
  for (std::uint32_t i = 0; i < cfg_.chips; ++i) {
    ChipState& cs = states_[i];
    if (cs.state != ChipState::State::kUp) continue;
    if (cs.outcomes >= kHealthMinSamples &&
        static_cast<double>(cs.failures) >
            kDrainFailRate * static_cast<double>(cs.outcomes)) {
      drain_chip(i);
    }
    cs.outcomes = 0;
    cs.failures = 0;
  }
  // Keep ticking while anything can still change: arrivals due, work in
  // flight, or a chip still out of the fleet (its rejoin re-shards).
  // Queued-but-starved work alone is not liveness — ticking for it would
  // spin forever; seal() surfaces it as fleet `queued` instead.
  bool any_out = false;
  for (const ChipState& cs : states_) {
    any_out = any_out || cs.state != ChipState::State::kUp;
  }
  std::size_t busy = 0;
  for (const auto& chip : chips_) busy += chip->in_flight_count();
  if (now_ < horizon_ || any_out || busy > 0) arm_health_tick();
}

void FleetRuntime::handle_fleet_chaos(const Event& e) {
  if (e.dispatch_id > 0) {
    // The deterministic kill hook: forced crash, no RNG involved.
    const auto chip = static_cast<std::uint32_t>(e.dispatch_id - 1);
    if (states_[chip].state == ChipState::State::kUp) crash_chip(chip);
    return;
  }
  // Draw the episode shape unconditionally so the RNG stream is stable
  // regardless of how many chips happen to be up.
  const double which = uniform_unit(chaos_rng_);
  const double kind = uniform_unit(chaos_rng_);
  const std::uint64_t dur = exponential_cycles(
      chaos_rng_, cfg_.chaos.mean_duration_us * cfg_.chip.cycles_per_us());
  std::vector<std::uint32_t> up;
  for (std::uint32_t i = 0; i < cfg_.chips; ++i) {
    if (states_[i].state == ChipState::State::kUp) up.push_back(i);
  }
  if (!up.empty()) {
    const std::uint32_t chip =
        up[static_cast<std::size_t>(which * static_cast<double>(up.size())) %
           up.size()];
    if (kind < kCrashFraction) {
      crash_chip(chip);
    } else if (kind < kCrashFraction + kBrownoutFraction) {
      chips_[chip]->slow_down(now_ + dur);
      report_.brownouts += 1;
      log_control("chip_brownout", chip);
    } else {
      chips_[chip]->corrupt_window(now_ + dur);
      report_.corruption_storms += 1;
      log_control("chip_corruption_storm", chip);
    }
  }
  arm_chaos_episode();
}

void FleetRuntime::drain_chip(std::uint32_t chip) {
  states_[chip].state = ChipState::State::kScrubbing;
  report_.drains += 1;
  log_control("chip_drain", chip);
  std::vector<Request> work = chips_[chip]->extract_pending();
  report_.migrated += work.size();
  rebuild_shard_map(chip);
  redispatch_all(std::move(work));
  schedule_rejoin(chip);
}

void FleetRuntime::crash_chip(std::uint32_t chip) {
  states_[chip].state = ChipState::State::kDown;
  report_.crashes += 1;
  log_control("chip_crash", chip);
  std::vector<Request> work = chips_[chip]->crash_chip();
  rebuild_shard_map(chip);
  redispatch_all(std::move(work));
  schedule_rejoin(chip);
}

void FleetRuntime::redispatch_all(std::vector<Request> work) {
  // Reclaimed submissions report no outcome; re-route each (budget-free:
  // migration is the fleet's fault, not the request's).
  for (const Request& r : work) {
    if (dispatch_to_fleet(r, /*first=*/false)) {
      report_.redispatched += 1;
      if (elog_on()) {
        event_log_->write(
            ev_base("migrate", now_, outstanding_.at(r.id).last_chip, &r));
      }
    }
  }
}

void FleetRuntime::schedule_rejoin(std::uint32_t chip) {
  push_event(EventKind::kFleetChipUp,
             now_ + std::max<std::uint64_t>(
                        1, static_cast<std::uint64_t>(
                               kScrubUs * cfg_.chip.cycles_per_us())),
             chip);
}

void FleetRuntime::handle_chip_up(const Event& e) {
  const auto chip = static_cast<std::uint32_t>(e.dispatch_id);
  if (states_[chip].state == ChipState::State::kDown) {
    chips_[chip]->revive(now_);
  }
  states_[chip].state = ChipState::State::kUp;
  states_[chip].outcomes = 0;
  states_[chip].failures = 0;
  report_.rejoins += 1;
  log_control("chip_rejoin", chip);
  rebuild_shard_map(chip);
  // Anything parked while every candidate was out gets another chance.
  std::vector<Request> stranded;
  stranded.swap(parked_);
  for (const Request& r : stranded) {
    if (dispatch_to_fleet(r, /*first=*/false)) report_.redispatched += 1;
  }
}

void FleetRuntime::rebuild_shard_map(std::uint32_t trigger_chip) {
  std::vector<std::uint32_t> up;
  for (std::uint32_t i = 0; i < cfg_.chips; ++i) {
    if (states_[i].state == ChipState::State::kUp) up.push_back(i);
  }
  for (std::size_t c = 0; c < shard_map_.size(); ++c) {
    shard_map_[c].clear();
    if (up.empty()) continue;
    const std::size_t width =
        std::min<std::size_t>(cfg_.replicas, up.size());
    // Class-staggered placement: primaries rotate across the fleet so no
    // chip is primary for every class; replicas are the next chips round
    // the ring.
    const std::size_t start = c % up.size();
    for (std::size_t k = 0; k < width; ++k) {
      shard_map_[c].push_back(up[(start + k) % up.size()]);
    }
  }
  report_.reshards += 1;
  log_control("reshard", trigger_chip);
}

void FleetRuntime::arm_health_tick() {
  if (health_armed_) return;
  health_armed_ = true;
  push_event(EventKind::kFleetHealth,
             now_ + std::max<std::uint64_t>(
                        1, static_cast<std::uint64_t>(
                               kHealthPeriodUs * cfg_.chip.cycles_per_us())));
}

void FleetRuntime::arm_chaos_episode() {
  // Like the per-lane chaos process: episodes strike only inside the
  // arrival horizon so the drain phase terminates fault-free.
  const std::uint64_t gap = exponential_cycles(
      chaos_rng_, cfg_.chaos.mean_interval_us * cfg_.chip.cycles_per_us());
  const std::uint64_t at = now_ + gap;
  if (at > horizon_) return;
  push_event(EventKind::kFleetChaos, at);
}

void FleetRuntime::log_control(const char* ev, std::uint32_t chip) {
  if (elog_on()) event_log_->write(ev_base(ev, now_, chip));
}

}  // namespace cryptopim::runtime
