// Fleet serving: N independent serving chips behind one front-end.
//
// A FleetRuntime drives N ServingRuntime instances — each a full chip
// with its own lanes, admission queue and resilience stack — on one
// deterministic clock that the fleet owns. Chips never see each other;
// the fleet owns everything between them:
//
//   * routing — a front-end Router (consistent-hash / least-loaded /
//     degree-affinity, behind one interface) picks a chip for every
//     arrival from the degree class's placement (primary + replicas);
//   * placement — each degree class is assigned `replicas` chips by a
//     shard map that is rebuilt (a *re-shard*) whenever fleet
//     membership changes;
//   * cross-chip retry — a request a chip gives up on (rejected / shed
//     / timed out / failed) is re-dispatched through the router under a
//     fleet-level retry budget and capped backoff. At most one chip
//     works on a request at a time; stragglers are hedged inside each
//     chip, onto a second lane (ServingConfig::resilience);
//   * failure domains — per-chip health (terminal-outcome failure ratio
//     over a sliding window) folds into whole-chip *drain*: queued work
//     migrates to siblings, the shard map is rebuilt, and the chip
//     rejoins after a scrub period. Whole-chip chaos episodes (seeded:
//     crash, brownout, corruption-storm) exercise the same machinery.
//
// Determinism: every chip schedules its events on the fleet's clock in
// its own namespace, the fleet schedules its own one past the last chip,
// and (cycle, namespaced seq) is a strict total order — see
// runtime/event_queue.h. The fleet loop pops one event at a time and
// hands it to that chip's handle() or to its own handler, so a fixed
// (config, seed) yields byte-identical fleet/1 reports, chaos and all.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/json.h"
#include "runtime/serving.h"

namespace cryptopim::runtime {

/// Whole-chip fault episodes, seeded and deterministic. Episode type is
/// drawn per strike (fleet.cc's fixed mix: a quarter crashes, then 40%
/// brownouts, the rest storms): crash (lose everything, scrub, rejoin),
/// brownout (every dispatch in the window runs slow), corruption storm
/// (every result dispatched in the window is detected bad on completion).
struct FleetChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 42;
  double mean_interval_us = 1200.0;  ///< between episodes (exponential)
  double mean_duration_us = 300.0;   ///< brownout / storm length
};

struct FleetConfig {
  std::uint32_t chips = 4;
  /// Front-end policy: "hash" (consistent, virtual nodes, keyed by
  /// tenant), "least" (least queued+in-flight), "affinity" (degree-class
  /// primary first).
  std::string router = "hash";
  /// Placement width: chips per degree class (primary + replicas-1).
  /// Clamped to the fleet size.
  std::uint32_t replicas = 2;

  /// Per-chip template: policy / backend / chip geometry / per-lane
  /// resilience (hedging included). Its workload, arrival_rate_per_s and
  /// duration_us are FLEET-wide (the front-end generates one stream and
  /// routes it); chip_id is overwritten per chip.
  ServingConfig chip;

  // -- cross-chip retry (fleet granularity) -----------------------------------
  unsigned max_retries = 2;          ///< re-dispatches per request
  double retry_budget_ratio = 0.1;   ///< fleet retry tokens per admitted

  // -- chip health -> drain -> scrub (kScrubUs, fleet.cc) -> rejoin ----------
  FleetChaosConfig chaos;

  /// Deterministic test hook: crash chip `kill_chip` at this simulated
  /// microsecond (0 = off). Independent of the chaos process. prime()
  /// throws std::invalid_argument when `kill_chip` >= `chips`.
  double kill_chip_at_us = 0.0;
  std::uint32_t kill_chip = 0;
};

/// What a Router sees of one candidate chip (always Up when offered).
struct ChipView {
  std::uint32_t id = 0;
  std::size_t queue_depth = 0;  ///< admitted, waiting
  std::size_t in_flight = 0;
};

/// Front-end routing policy. pick() chooses among `candidates` (the
/// degree class's live placement, never empty) for request `r`.
class Router {
 public:
  virtual ~Router() = default;
  virtual std::uint32_t pick(const Request& r,
                             const std::vector<ChipView>& candidates) = 0;
};

/// Factory: "hash" | "least" | "affinity"; nullptr for unknown names.
std::unique_ptr<Router> make_router(const std::string& name);

/// Aggregate fleet ledger (schema "fleet/1"): request fates are counted
/// once, by final outcome, so
///   submitted == completed + rejected + shed + timed_out + failed + queued
/// holds exactly, while Σ per-chip submitted (protocol.requests on a
/// protocol chip) == routed + cross_retries + redispatched
/// ties the per-chip serving/3 reports to the fleet counters: each counts
/// a request when it lands on a chip.
struct FleetReport {
  std::uint32_t chips = 0;
  std::string router;
  std::uint32_t replicas = 0;
  std::uint64_t duration_cycles = 0;
  std::uint64_t drain_cycle = 0;

  // Final request fates (each request exactly once).
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;
  std::uint64_t queued = 0;  ///< unresolved at drain (parked or stranded)

  // Router / placement.
  std::uint64_t routed = 0;  ///< first dispatches
  std::uint64_t reshards = 0;
  std::uint64_t parked = 0;  ///< arrivals with no live candidate chip

  // Cross-chip resilience.
  std::uint64_t cross_retries = 0;  ///< retries dispatched onto a chip
  std::uint64_t retry_budget_denied = 0;

  // Failure domains.
  std::uint64_t drains = 0;
  std::uint64_t crashes = 0;
  std::uint64_t brownouts = 0;
  std::uint64_t corruption_storms = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t migrated = 0;       ///< queued requests moved off a chip
  std::uint64_t redispatched = 0;   ///< migrated/lost/parked work re-routed

  obs::Histogram latency_cycles;  ///< arrival -> completion
  double throughput_per_s = 0;
  double offered_per_s = 0;
  double cycles_per_us = 1.0;

  std::vector<ServingReport> chip_reports;

  /// Deterministic "fleet/1" document: fleet totals + counters, latency
  /// quantiles, and the per-chip serving/3 reports under "chips".
  obs::Json to_json() const;
};

class FleetRuntime {
 public:
  explicit FleetRuntime(FleetConfig cfg);
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  const FleetConfig& config() const noexcept { return cfg_; }

  /// Shared lifecycle log (serve-events/2): chips stamp their own chip
  /// id, the fleet stamps the target chip on route/migrate/fleet_retry
  /// records, so one log interleaves the whole fleet's streams.
  void set_event_log(obs::EventLog* log) noexcept;

  /// Run to completion. Throws std::invalid_argument for an unknown
  /// router name or an invalid config (0 chips, closed-loop template).
  FleetReport run();

  /// Durability (runtime/journal.h): one fleet-level journal
  /// (`dir`/fleet.log) plus one journal per chip (`dir`/chip-<i>.log),
  /// all indexed by the clock's global event index so a recovery replays
  /// every stream under the same total order. The fleet loop crosses the
  /// durability boundary (snapshot cadence, crash-campaign kill hook)
  /// before every event. Call before run().
  void enable_durability(const DurabilityOptions& opts) { durab_ = opts; }

 private:
  struct ChipState;
  struct Outstanding;

  void prime();
  void main_loop();
  FleetReport seal();

  void handle_fleet_event(const Event& e);
  void handle_fleet_arrival(const Event& e);
  void handle_fleet_retry(const Event& e);
  void handle_fleet_health();
  void handle_fleet_chaos(const Event& e);
  void handle_chip_up(const Event& e);

  /// React to one chip's terminal outcome for a request (the sink).
  void on_outcome(std::uint32_t chip, const Request& r, Outcome o,
                  std::uint64_t cycle);

  /// Route and inject; parks the request when no candidate chip is up.
  /// `first` distinguishes initial routes from re-dispatches in the
  /// counters. Returns true when dispatched.
  bool dispatch_to_fleet(const Request& r, bool first);
  std::vector<ChipView> candidates_for(std::uint32_t degree) const;
  std::size_t class_index(std::uint32_t degree) const;
  void rebuild_shard_map(std::uint32_t trigger_chip);
  void drain_chip(std::uint32_t chip);
  void crash_chip(std::uint32_t chip);
  void schedule_rejoin(std::uint32_t chip);
  void redispatch_all(std::vector<Request> work);
  void arm_health_tick();
  void arm_chaos_episode();
  /// Schedule an event in the fleet's namespace (one past the last chip).
  void push_event(EventKind kind, std::uint64_t cycle,
                  std::uint64_t dispatch_id = 0, Request r = {}) {
    clock_.push(cfg_.chips, kind, cycle, dispatch_id, std::move(r));
  }
  /// Fleet-level snapshot state: chip membership + shard map + cross-chip
  /// retry bookkeeping + RNG digests + every chip's own state dump.
  obs::Json snapshot_state() const;
  void log_control(const char* ev, std::uint32_t chip);
  bool elog_on() const noexcept {
    return event_log_ != nullptr && event_log_->enabled();
  }

  FleetConfig cfg_;
  Clock clock_;  ///< every chip's events and the fleet's own
  std::vector<std::unique_ptr<ServingRuntime>> chips_;
  std::vector<ChipState> states_;
  /// chip -> ordered placement per degree class (class-major).
  std::vector<std::vector<std::uint32_t>> shard_map_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<WorkloadGenerator> workload_;
  std::unique_ptr<RetryBudget> retry_budget_;
  std::uint64_t now_ = 0;
  std::uint64_t horizon_ = 0;
  bool health_armed_ = false;
  Xoshiro256 chaos_rng_{1};
  std::map<std::uint64_t, Outstanding> outstanding_;
  std::vector<Request> parked_;  ///< unroutable until a chip rejoins
  obs::EventLog* event_log_ = nullptr;

  // -- durability (inert when durab_.dir is empty; chips own theirs) ----------
  DurabilityOptions durab_;
  std::unique_ptr<Journal> fleet_journal_;

  FleetReport report_;
};

}  // namespace cryptopim::runtime
