// Overload- and wear-resilience primitives for the serving runtime.
//
// PR 4's runtime fails ungracefully at the edges: a saturated lane
// queues forever, a slow or corrupting lane stalls its requests with no
// timeout, and endurance wear only surfaces *after* a multiply has
// already produced a wrong result. This module supplies the control
// loops a production service needs on a wearing ReRAM substrate:
//
//   * RetryBudget — a per-tenant token bucket (tokens accrue per
//     admitted request, one token per retry) so detected-bad results and
//     lane teardowns are retried with capped exponential backoff but can
//     never amplify into a retry storm;
//   * CircuitBreaker — a per-lane closed -> open -> half-open machine:
//     K consecutive failures stop dispatch to the lane, a timed probe
//     re-admits it (success closes, failure re-opens);
//   * CoDelShedder — CoDel-style load shedding on the admission queue:
//     when the *minimum* queueing sojourn stays above target for a full
//     interval, the head request is dropped and the drop cadence
//     tightens by the 1/sqrt(count) control law, keeping queue delay
//     bounded instead of letting the backlog run away;
//   * LaneHealth — a lane's wear (dispatches since it last moved onto
//     fresh banks) and decayed verification-failure score: a lane
//     approaching its wear limit is drained and remapped *before* it
//     starts corrupting traffic, and an unhealthy idle lane is scrubbed;
//   * ChaosConfig — a seeded generator of lane fault episodes (slowdowns
//     and corrupting windows) composed with live traffic, so the whole
//     stack can be exercised and asserted on deterministically
//     (`serve --chaos`, bench_chaos_serving).
//
// Everything is deterministic: chaos randomness flows from one seeded
// Xoshiro256, every threshold decision is pure arithmetic on the event
// clock, and the hedge delay is derived from the pow2 service histogram.
// All features default off, and each keys on its own knob (deadline_us,
// max_retries, hedge, codel_target_us, breaker_k, wear_limit,
// chaos.enabled): a mechanism whose knob is off schedules no event and
// changes no dispatch decision.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace cryptopim::runtime {

/// Seeded lane fault-episode injection composed with live traffic.
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Mean interval between episodes (exponential), simulated us.
  double mean_interval_us = 150.0;
  /// Mean episode duration (exponential), simulated us.
  double mean_duration_us = 60.0;
  /// Fraction of episodes that are slowdowns (service stretched by
  /// kChaosSlowFactor, serving.cc); the rest corrupt results.
  double slow_fraction = 0.5;
};

struct ResilienceConfig {
  // -- deadlines --------------------------------------------------------------
  /// Fixed per-request deadline: arrival + deadline_us (overrides the
  /// slack-derived deadline when > 0). Enables admission feasibility
  /// rejection and queued-timeout cancellation.
  double deadline_us = 0.0;

  // -- retries ----------------------------------------------------------------
  /// Detected-bad results are re-queued up to this many times (0 = off).
  unsigned max_retries = 0;
  /// Tokens a tenant earns per admitted request; one retry costs 1.0.
  double retry_budget_ratio = 0.1;
  /// First retry backoff; doubles per attempt, capped below.
  std::uint64_t retry_backoff_cycles = 2048;
  std::uint64_t retry_backoff_cap_cycles = 1 << 16;

  // -- hedging ----------------------------------------------------------------
  /// Duplicate a straggler onto a second lane, first result wins.
  bool hedge = false;
  /// Hedge delay in us; 0 derives it from the p99 of observed service.
  double hedge_delay_us = 0.0;

  // -- load shedding ----------------------------------------------------------
  /// CoDel target queueing sojourn in us (0 = shedding off).
  double codel_target_us = 0.0;
  double codel_interval_us = 100.0;

  // -- circuit breaker --------------------------------------------------------
  /// Open a lane's breaker after K consecutive failures (0 = off).
  unsigned breaker_k = 0;
  /// Cycles a breaker stays open before the half-open probe.
  std::uint64_t breaker_open_cycles = 1 << 16;

  // -- health / wear ----------------------------------------------------------
  /// Dispatches a lane survives before wearing out (0 = wear off).
  std::uint64_t wear_limit = 0;
  /// Drain and remap at this fraction of the wear limit.
  double drain_fraction = 0.9;
  /// Health score below which an idle lane is scrubbed.
  double scrub_threshold = 0.7;

  // -- chaos ------------------------------------------------------------------
  ChaosConfig chaos;
  /// Model the layered detection of §10 (write-verify / parity /
  /// Freivalds) as catching every chaos-corrupted result. Turning this
  /// off delivers corrupt results unverified (wrong_accepted counts
  /// them) — it exists to prove the checks are load-bearing.
  bool chaos_detect = true;

  /// The `serve --chaos` preset: fault episodes plus the full mitigation
  /// stack (retries, breaker, hedging, health monitoring, wear budget).
  static ResilienceConfig chaos_preset(std::uint64_t seed);
};

/// Per-tenant retry token bucket: `ratio` tokens accrue per admitted
/// request (capped), a retry spends 1.0. A tenant that keeps failing
/// exhausts its bucket and its retries are dropped instead of amplified.
/// Buckets start with a small cold-start reserve so the first failures
/// of a run can retry before any accrual.
class RetryBudget {
 public:
  RetryBudget(std::uint32_t tenants, double ratio, double cap = 64.0);

  void on_admitted(std::uint32_t tenant);
  /// Spend one retry token; false when the bucket is dry.
  bool try_spend(std::uint32_t tenant);
  double tokens(std::uint32_t tenant) const;

 private:
  std::vector<double> tokens_;
  double ratio_;
  double cap_;
};

/// Capped exponential backoff before retry number `attempt` (1-based):
/// `base` doubled per earlier attempt, never above `cap`. The chip's
/// retries and the fleet's cross-chip retries both back off by it.
std::uint64_t retry_backoff(std::uint64_t base, std::uint64_t cap,
                            unsigned attempt);

/// Delay before a straggler is hedged, in cycles: `fixed_us` when one is
/// configured (> 0), otherwise the p99 of the observed `service` times
/// once it holds `min_samples` — until then 0, and stragglers run
/// unhedged. The chip hedges onto a second lane, the fleet onto a
/// replica chip; both derive the delay here.
std::uint64_t hedge_delay(double fixed_us, double cycles_per_us,
                          const obs::Histogram& service,
                          std::uint64_t min_samples);

/// Per-lane circuit breaker: closed -> (K consecutive failures) -> open
/// -> (open period elapses) -> half-open probe -> closed on success,
/// re-open on failure.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  CircuitBreaker(unsigned k, std::uint64_t open_cycles)
      : k_(k), open_cycles_(open_cycles) {}

  /// May the lane accept a request at `now`? Side-effect free so lane
  /// selection can filter on it; the open -> half-open transition
  /// happens in note_dispatch on the lane actually chosen.
  bool can_accept(std::uint64_t now) const;
  /// The chosen lane is being dispatched to. Returns true when this
  /// dispatch is the half-open probe (for stats).
  bool note_dispatch(std::uint64_t now);
  /// Record a request outcome. Returns true when the breaker *opened*
  /// on this failure (for stats/tracing).
  bool record(bool success, std::uint64_t now);
  /// The in-flight dispatch was cancelled without an outcome (hedge
  /// loser, lane teardown). If it was the half-open probe the breaker
  /// reverts to open with a fresh window — otherwise the lane would
  /// wedge half-open with a probe that never reports, refusing work
  /// forever.
  void note_cancelled(std::uint64_t now);

  State state() const noexcept { return state_; }
  unsigned consecutive_failures() const noexcept { return failures_; }
  bool enabled() const noexcept { return k_ > 0; }
  /// While open: when the half-open probe becomes possible.
  std::uint64_t open_until() const noexcept { return open_until_; }

 private:
  unsigned k_ = 0;  ///< 0 = breaker disabled, always allows
  std::uint64_t open_cycles_ = 0;
  State state_ = State::kClosed;
  unsigned failures_ = 0;
  std::uint64_t open_until_ = 0;
  bool probe_in_flight_ = false;
};

/// CoDel-style shedder on the admission queue. Fed the queueing sojourn
/// of every dequeued request; answers "drop this one?" per the CoDel
/// control law (min-sojourn above target for a full interval opens a
/// dropping phase whose cadence tightens by 1/sqrt(drop count)).
class CoDelShedder {
 public:
  CoDelShedder() = default;
  CoDelShedder(std::uint64_t target_cycles, std::uint64_t interval_cycles)
      : target_(target_cycles), interval_(interval_cycles) {}

  bool enabled() const noexcept { return target_ > 0; }
  /// `sojourn` = now - arrival of the request about to dispatch.
  bool should_drop(std::uint64_t sojourn, std::uint64_t now);

 private:
  std::uint64_t next_drop_interval() const;

  std::uint64_t target_ = 0;
  std::uint64_t interval_ = 0;
  std::uint64_t first_above_ = 0;  ///< 0 = sojourn currently below target
  bool dropping_ = false;
  std::uint64_t drop_next_ = 0;
  std::uint32_t drop_count_ = 0;
};

/// One lane's health, held by the lane beside its CircuitBreaker. Each
/// multiplication writes the lane's superbank crossbars end to end once
/// (§III-D), so wear is the number of dispatches since the lane last
/// moved onto fresh banks; a remap starts a fresh LaneHealth. A lane
/// that reaches `wear_limit` corrupts from then on, so the runtime drains
/// and remaps it at `drain_fraction` of the limit, before that happens.
/// Outcomes feed an exponentially decayed failure score; a scrub
/// forgives it.
class LaneHealth {
 public:
  LaneHealth() = default;
  LaneHealth(std::uint64_t wear_limit, double drain_fraction,
             double scrub_threshold)
      : wear_limit_(wear_limit),
        drain_fraction_(drain_fraction),
        scrub_threshold_(scrub_threshold) {}

  /// Account one dispatch (nothing counts while wear is off). Returns
  /// true on exactly the write that reaches the wear limit: the lane
  /// corrupts from here on. Counting goes on past the limit.
  bool note_dispatch();
  /// Record a request outcome on the decayed failure score.
  void record(bool ok);
  /// Wear has reached `drain_fraction` of the limit.
  bool wants_drain() const;
  /// The decayed failures outweigh the scrub threshold. Scrubbing
  /// re-programs cells: it forgives failures but cannot un-wear a
  /// column, so wear alone never asks for one.
  bool wants_scrub() const;
  void scrub() noexcept { failure_score_ = 0.0; }
  /// Dispatches since the last remap (0 while wear is off).
  std::uint64_t wear() const noexcept { return wear_; }

 private:
  std::uint64_t wear_limit_ = 0;  ///< 0 = wear off
  double drain_fraction_ = 0.0;
  double scrub_threshold_ = 0.0;
  std::uint64_t wear_ = 0;
  double failure_score_ = 0.0;  ///< decayed count of recent failures
};

/// Resilience ledger, embedded in every ServingReport.
struct ResilienceStats {
  std::uint64_t rejected_deadline = 0;  ///< infeasible at admission
  std::uint64_t timed_out = 0;          ///< cancelled in queue past deadline
  std::uint64_t shed = 0;               ///< CoDel drops at dispatch

  std::uint64_t retries = 0;             ///< re-queued after a bad result
  std::uint64_t retry_budget_denied = 0; ///< bucket dry: retry dropped
  std::uint64_t failed = 0;              ///< delivered as error, not wrong

  std::uint64_t hedges = 0;          ///< duplicates launched
  std::uint64_t hedge_wins = 0;      ///< hedge finished before the original
  std::uint64_t hedge_cancelled = 0; ///< losers cancelled

  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_closes = 0;

  std::uint64_t scrubs = 0;
  std::uint64_t proactive_remaps = 0;  ///< wear drains that beat the limit
  std::uint64_t wear_corruptions = 0;  ///< lanes that wore out in service

  std::uint64_t chaos_episodes = 0;
  std::uint64_t detected_corruptions = 0;  ///< caught by the layered checks
  std::uint64_t wrong_accepted = 0;        ///< corrupt result delivered (!)

  obs::Json to_json() const;
};

}  // namespace cryptopim::runtime
