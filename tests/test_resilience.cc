// Resilience layer: deadlines, retry budgets, hedging, load shedding,
// circuit breakers, wear-driven health management and chaos composition
// (src/runtime/resilience.*, wired through src/runtime/serving.cc).
//
// The serving-level tests drive real ServingRuntime runs: the resilience
// machinery only counts if it holds up with arrivals, lane carving and
// bank accounting all live. Primitives (budget, breaker, shedder, lane
// health) also get direct state-machine tests.

#include "runtime/resilience.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "model/scheduler.h"
#include "runtime/serving.h"

namespace cryptopim::runtime {
namespace {

ServingConfig chaos_config(std::uint64_t seed, double duration_us = 12000.0) {
  ServingConfig cfg;
  cfg.workload.mix = {{256, 2.0}, {1024, 1.0}};
  cfg.workload.tenants = 4;
  cfg.workload.seed = seed;
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = duration_us;
  cfg.resilience = ResilienceConfig::chaos_preset(seed);
  return cfg;
}

/// Work conservation under the resilience layer: every submitted request
/// is rejected at one of the three admission gates or admitted; every
/// admitted request ends exactly one way.
void expect_resilient_work_conserved(const ServingReport& r) {
  EXPECT_EQ(r.submitted, r.admitted + r.rejected + r.rejected_unservable +
                             r.resilience.rejected_deadline);
  EXPECT_EQ(r.admitted, r.completed + r.queued + r.resilience.timed_out +
                            r.resilience.shed + r.resilience.failed);
  // Global counters sum the per-tenant ledgers field-for-field: deadline
  // rejects live in their own tenant column, not in `rejected`.
  std::uint64_t tenant_rejected = 0;
  std::uint64_t tenant_rejected_deadline = 0;
  for (const auto& [id, t] : r.tenants) {
    tenant_rejected += t.rejected;
    tenant_rejected_deadline += t.rejected_deadline;
  }
  EXPECT_EQ(tenant_rejected, r.rejected + r.rejected_unservable);
  EXPECT_EQ(tenant_rejected_deadline, r.resilience.rejected_deadline);
}

std::string json_text(const ServingReport& r) {
  std::ostringstream os;
  r.to_json().write(os);
  return os.str();
}

// ------------------------------------------------------------ RetryBudget --

TEST(RetryBudget, AccruesPerAdmissionAndDeniesWhenDry) {
  RetryBudget b(/*tenants=*/2, /*ratio=*/0.5);
  // Cold-start reserve: a fresh bucket can pay for a couple of retries.
  EXPECT_TRUE(b.try_spend(0));
  EXPECT_TRUE(b.try_spend(0));
  EXPECT_FALSE(b.try_spend(0));  // dry
  // Two admissions earn one token at ratio 0.5.
  b.on_admitted(0);
  EXPECT_FALSE(b.try_spend(0));
  b.on_admitted(0);
  EXPECT_TRUE(b.try_spend(0));
  // Tenant buckets are independent.
  EXPECT_TRUE(b.try_spend(1));
}

TEST(RetryBudget, CapBoundsAccrual) {
  ASSERT_EQ(RetryBudget::kCap, 64.0);
  RetryBudget b(1, /*ratio=*/1.0);
  for (int i = 0; i < 100; ++i) b.on_admitted(0);
  EXPECT_DOUBLE_EQ(b.tokens(0), RetryBudget::kCap);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(b.try_spend(0)) << i;
  EXPECT_FALSE(b.try_spend(0));
}

// --------------------------------------------------------- CircuitBreaker --

// The breaker stays open for kOpenCycles.
constexpr std::uint64_t kOpen = CircuitBreaker::kOpenCycles;

TEST(CircuitBreaker, OpensAfterKConsecutiveFailures) {
  CircuitBreaker cb(/*k=*/3);
  EXPECT_TRUE(cb.can_accept(0));
  EXPECT_FALSE(cb.record(false, 10));
  EXPECT_FALSE(cb.record(false, 20));
  // A success resets the consecutive count.
  cb.record(true, 25);
  EXPECT_FALSE(cb.record(false, 30));
  EXPECT_FALSE(cb.record(false, 40));
  EXPECT_TRUE(cb.record(false, 50));  // third consecutive: opened
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.can_accept(60));
  EXPECT_EQ(cb.open_until(), 50 + kOpen);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  CircuitBreaker cb(2);
  cb.record(false, 0);
  cb.record(false, 0);  // open until kOpen
  EXPECT_FALSE(cb.can_accept(kOpen - 1));
  EXPECT_TRUE(cb.can_accept(kOpen));  // probe possible, state untouched
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(cb.note_dispatch(kOpen));  // this dispatch is the probe
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.can_accept(kOpen + 10));  // one probe at a time
  cb.record(true, kOpen + 20);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.can_accept(kOpen + 21));
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens) {
  CircuitBreaker cb(2);
  cb.record(false, 0);
  cb.record(false, 0);
  cb.note_dispatch(kOpen);
  EXPECT_TRUE(cb.record(false, kOpen + 30));  // probe failed: re-opened
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.open_until(), 2 * kOpen + 30);
}

TEST(CircuitBreaker, CancelledProbeRevertsToOpenInsteadOfWedging) {
  CircuitBreaker cb(2);
  cb.record(false, 0);
  cb.record(false, 0);  // open until kOpen
  cb.note_dispatch(kOpen);
  EXPECT_FALSE(cb.can_accept(kOpen + 10));  // probe out
  // The probe is cancelled without an outcome (hedge loser, lane
  // teardown): the breaker must re-open with a fresh window — a probe
  // that never reports would otherwise wedge the lane half-open forever.
  cb.note_cancelled(kOpen + 10);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  const std::uint64_t reopened = 2 * kOpen + 10;
  EXPECT_EQ(cb.open_until(), reopened);
  EXPECT_FALSE(cb.can_accept(reopened - 1));
  EXPECT_TRUE(cb.can_accept(reopened));  // probes again after the window
  // Cancelling when no probe is in flight is a no-op.
  cb.note_dispatch(reopened);
  cb.record(true, reopened + 10);
  cb.note_cancelled(reopened + 20);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.can_accept(reopened + 21));
}

TEST(CircuitBreaker, DisabledAlwaysAccepts) {
  CircuitBreaker cb;  // k = 0
  for (int i = 0; i < 10; ++i) cb.record(false, i);
  EXPECT_TRUE(cb.can_accept(100));
  EXPECT_FALSE(cb.note_dispatch(100));
}

// ----------------------------------------------------------- CoDelShedder --

TEST(CoDelShedder, DropsOnlyAfterAFullIntervalAboveTarget) {
  CoDelShedder s(/*target=*/100, /*interval=*/1000);
  EXPECT_TRUE(s.enabled());
  EXPECT_FALSE(s.should_drop(50, 0));     // below target
  EXPECT_FALSE(s.should_drop(200, 10));   // first above: arm, no drop
  EXPECT_FALSE(s.should_drop(200, 500));  // interval not elapsed
  EXPECT_TRUE(s.should_drop(200, 1010));  // above for a full interval
  // Dropping phase: cadence tightens as interval / sqrt(count) — the
  // second drop lands a full interval later, the third ~interval/sqrt(2)
  // after that.
  EXPECT_FALSE(s.should_drop(200, 1200));
  EXPECT_TRUE(s.should_drop(200, 2010));   // 1010 + 1000/sqrt(1)
  EXPECT_FALSE(s.should_drop(200, 2500));
  EXPECT_TRUE(s.should_drop(200, 2717));   // 2010 + 1000/sqrt(2) ~ 2717
}

TEST(CoDelShedder, RecoveryBelowTargetResetsThePhase) {
  CoDelShedder s(100, 1000);
  s.should_drop(200, 0);
  EXPECT_TRUE(s.should_drop(200, 1000));
  EXPECT_FALSE(s.should_drop(50, 1100));   // recovered: phase exits
  EXPECT_FALSE(s.should_drop(200, 1200));  // must re-arm a full interval
  EXPECT_FALSE(s.should_drop(200, 2100));
  EXPECT_TRUE(s.should_drop(200, 2200));
}

TEST(CoDelShedder, DisabledNeverDrops) {
  CoDelShedder s;
  EXPECT_FALSE(s.enabled());
  EXPECT_FALSE(s.should_drop(1u << 30, 1u << 30));
}

// ------------------------------------------------------------ LaneHealth --

TEST(LaneHealth, WearCrossesLimitExactlyOnce) {
  LaneHealth h(/*wear_limit=*/10);
  bool crossed = false;
  for (int i = 0; i < 10; ++i) crossed = h.note_dispatch();
  EXPECT_TRUE(crossed);  // the 10th write crossed
  EXPECT_FALSE(h.note_dispatch());  // already past: no second crossing
  EXPECT_EQ(h.wear(), 11u);
}

TEST(LaneHealth, DrainThresholdLeadsTheLimit) {
  ASSERT_EQ(LaneHealth::kDrainFraction, 0.9);
  LaneHealth h(/*wear_limit=*/100);
  for (int i = 0; i < 89; ++i) EXPECT_FALSE(h.note_dispatch());
  EXPECT_FALSE(h.wants_drain());
  h.note_dispatch();  // 90th write
  EXPECT_TRUE(h.wants_drain());
  EXPECT_EQ(h.wear(), 90u);
  // A remap onto fresh banks starts a fresh LaneHealth: wear from zero.
  h = LaneHealth(100);
  EXPECT_EQ(h.wear(), 0u);
  EXPECT_FALSE(h.wants_drain());
  // With wear off nothing counts and nothing drains.
  LaneHealth off(/*wear_limit=*/0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(off.note_dispatch());
  EXPECT_EQ(off.wear(), 0u);
  EXPECT_FALSE(off.wants_drain());
}

TEST(LaneHealth, FailuresRequestAScrubAndScrubForgivesThem) {
  ASSERT_EQ(LaneHealth::kScrubThreshold, 0.7);
  LaneHealth h(/*wear_limit=*/0);
  EXPECT_FALSE(h.wants_scrub());
  h.record(false);  // one failure weighs 0.25: below the 0.3 slack
  EXPECT_FALSE(h.wants_scrub());
  for (int i = 0; i < 7; ++i) h.record(false);
  EXPECT_TRUE(h.wants_scrub());
  h.scrub();
  EXPECT_FALSE(h.wants_scrub());
  // Successes decay the score back under the threshold without a scrub.
  for (int i = 0; i < 8; ++i) h.record(false);
  for (int i = 0; i < 20; ++i) h.record(true);
  EXPECT_FALSE(h.wants_scrub());
}

// ------------------------------------------------- serving: deadlines ------

TEST(ResilientServing, InfeasibleArrivalsRejectedAtAdmission) {
  // Offer several times one lane's capacity with a deadline only a bit
  // above the unloaded service time: the backlog-aware admission check
  // must reject what cannot make it instead of queueing doomed work.
  ServingConfig cfg;
  cfg.workload.mix = {{4096, 1.0}};
  cfg.workload.seed = 3;
  cfg.arrival_rate_per_s =
      4.0 * model::class_capacity_per_s(cfg.chip, 4096, 0, cfg.cycle_ns);
  cfg.duration_us = 4000.0;
  // Unloaded 4096 service is ~400 us: 600 leaves room for a short queue
  // only, so the saturating tail must be rejected up front.
  cfg.resilience.deadline_us = 600.0;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.rejected_deadline, 0u);
  EXPECT_GT(r.completed, 0u);
  expect_resilient_work_conserved(r);
  // Admission control means almost nothing admitted then times out.
  EXPECT_LE(r.resilience.timed_out, r.admitted / 10);
}

TEST(ResilientServing, QueuedRequestsTimeOutAtTheDeadline) {
  // Admission's feasibility estimate assumes lanes keep serving; a lane
  // that wear sets draining goes dark *after* requests were admitted: it
  // takes no new work until its in-flight requests finish and it remaps,
  // and the queue behind it passes its deadline — the case the timeout
  // cancellation exists for. A 16-bank chip holds exactly one 4096 lane,
  // so the drain strands the whole class with no sibling lane to absorb
  // the work. Chaos corruption trips the breaker on top of it.
  ServingConfig cfg;
  cfg.chip.total_banks = 16;
  cfg.chip.spare_banks = 0;
  cfg.workload.mix = {{4096, 1.0}};
  cfg.workload.seed = 5;
  cfg.arrival_rate_per_s =
      0.8 * model::class_capacity_per_s(cfg.chip, 4096, 0, cfg.cycle_ns);
  cfg.duration_us = 2500.0;
  cfg.queue_capacity = 1u << 20;  // no backpressure: timeouts must act
  auto& res = cfg.resilience;
  // Unloaded service is ~400 us, so admission tolerates ~100 us of
  // estimated wait; a lane that drains every 9 dispatches stalls the
  // queue for a whole pipeline's worth of in-flight work each time.
  res.deadline_us = 500.0;
  res.wear_limit = 10;
  res.breaker_k = 2;
  res.max_retries = 2;
  res.retry_budget_ratio = 1.0;
  res.chaos.enabled = true;
  res.chaos.seed = 5;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.timed_out, 0u);
  EXPECT_GT(r.resilience.breaker_opens, 0u);
  expect_resilient_work_conserved(r);
}

// ------------------------------------------------- serving: hedging --------

TEST(ResilientServing, HedgesLaunchAndConserveWork) {
  ServingConfig cfg;
  cfg.workload.mix = {{256, 1.0}};
  cfg.workload.tenants = 2;
  cfg.workload.seed = 7;
  cfg.arrival_rate_per_s =
      0.5 * model::class_capacity_per_s(cfg.chip, 256, 0, cfg.cycle_ns);
  cfg.duration_us = 4000.0;
  cfg.resilience.hedge = true;
  cfg.resilience.hedge_delay_us = 1.0;  // hedge nearly everything
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.hedges, 0u);
  // Every hedged pair resolves: one side completes, the other cancels.
  EXPECT_EQ(r.resilience.hedge_cancelled, r.resilience.hedges);
  EXPECT_EQ(r.completed, r.admitted);  // each request delivered once
  expect_resilient_work_conserved(r);
}

TEST(DurationCycles, APositiveDurationTakesAtLeastOneCycle) {
  const double cpu = ServingConfig::cycles_per_us();
  EXPECT_EQ(duration_cycles(0.0, cpu), 0u);
  EXPECT_EQ(duration_cycles(0.0005, cpu), 1u);  // 0.45 cycles
  EXPECT_EQ(duration_cycles(0.002, cpu), 1u);   // 1.8 cycles
  EXPECT_EQ(duration_cycles(100.0, cpu), 90909u);
}

TEST(ResilientServing, SubCycleHedgeDelayStillHedges) {
  // 0.0005 us is under one 1.1 ns cycle. The delay takes one cycle, as
  // 0.002 us does, instead of truncating to 0, which arms no hedge.
  const auto hedges = [](double delay_us) {
    ServingConfig cfg;
    cfg.workload.mix = {{256, 1.0}};
    cfg.workload.seed = 3;
    cfg.arrival_rate_per_s = 2e6;
    cfg.duration_us = 300.0;
    cfg.resilience.hedge = true;
    cfg.resilience.hedge_delay_us = delay_us;
    return ServingRuntime(cfg).run().resilience.hedges;
  };
  EXPECT_GT(hedges(0.002), 0u);
  EXPECT_EQ(hedges(0.0005), hedges(0.002));
}

// ------------------------------------------------- serving: shedding -------

TEST(ResilientServing, CoDelShedsUnderSustainedOverload) {
  ServingConfig cfg;
  cfg.workload.mix = {{4096, 1.0}};
  cfg.workload.seed = 9;
  cfg.arrival_rate_per_s =
      3.0 * model::class_capacity_per_s(cfg.chip, 4096, 0, cfg.cycle_ns);
  cfg.duration_us = 2500.0;
  cfg.queue_capacity = 1u << 20;  // shedding, not backpressure, must act
  cfg.resilience.codel_target_us = 100.0;
  cfg.resilience.codel_interval_us = 100.0;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.shed, 0u);
  EXPECT_GT(r.completed, 0u);
  expect_resilient_work_conserved(r);
}

TEST(ResilientServing, SubCycleCoDelTargetStillSheds) {
  // A 0-cycle target means shedding off, so a target under one cycle
  // takes one cycle and sheds like 0.002 us does.
  const auto shed = [](double target_us) {
    ServingConfig cfg;
    cfg.workload.mix = {{4096, 1.0}};
    cfg.workload.seed = 3;
    cfg.arrival_rate_per_s = 8e6;
    cfg.duration_us = 300.0;
    cfg.queue_capacity = 32;
    cfg.resilience.codel_target_us = target_us;
    return ServingRuntime(cfg).run().resilience.shed;
  };
  EXPECT_GT(shed(0.002), 0u);
  EXPECT_EQ(shed(0.0005), shed(0.002));
}

// ------------------------------------------------- serving: wear -----------

TEST(ResilientServing, ProactiveDrainBeatsWearCorruption) {
  // With the monitor draining at 90% of the wear limit, lanes remap
  // before ever corrupting: the whole point of health-driven draining.
  ServingConfig cfg;
  cfg.workload.mix = {{256, 1.0}};
  cfg.workload.seed = 4;
  // Low absolute load: one lane carries everything, so its wear counter
  // climbs fast and the drain threshold trips repeatedly.
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = 8000.0;
  cfg.resilience.wear_limit = 64;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.proactive_remaps, 0u);
  EXPECT_EQ(r.resilience.wear_corruptions, 0u);
  EXPECT_EQ(r.resilience.wrong_accepted, 0u);
  expect_resilient_work_conserved(r);
}

TEST(ResilientServing, DisablingTheDrainLetsLanesWearOut) {
  // Control experiment: take away the drain's lead on the limit and the
  // same traffic wears lanes into corruption — proving the drain in the
  // test above is load-bearing, not incidental. With a limit of 9,
  // 8/9 < kDrainFraction <= 9/9: the drain starts on the very dispatch
  // that reaches the limit, one too late.
  ASSERT_LT(8.0 / 9.0, LaneHealth::kDrainFraction);
  ServingConfig cfg;
  cfg.workload.mix = {{256, 1.0}};
  cfg.workload.seed = 4;
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = 8000.0;
  cfg.resilience.wear_limit = 9;
  cfg.resilience.max_retries = 3;
  cfg.resilience.retry_budget_ratio = 1.0;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.wear_corruptions, 0u);
  EXPECT_GT(r.resilience.detected_corruptions, 0u);
  EXPECT_EQ(r.resilience.wrong_accepted, 0u);  // checks still catch all
  expect_resilient_work_conserved(r);
}

TEST(ResilientServing, HealthTickStopsWhenBacklogIsStranded) {
  // Losing a bank with no spare pool drops the chip below the 32k
  // class's 128-bank footprint: the stranded backlog is a terminal
  // state surfaced as `queued`. With the health monitor live, its tick
  // must detect no-progress and stop re-arming — this test returning at
  // all is the assertion (an unfixed tick loops forever).
  ServingConfig cfg;
  cfg.workload.mix = {{32768, 1.0}};
  cfg.workload.seed = 11;
  cfg.arrival_rate_per_s =
      2.0 * model::class_capacity_per_s(cfg.chip, 32768, 0, cfg.cycle_ns);
  cfg.duration_us = 1500.0;
  cfg.chip.spare_banks = 0;
  cfg.fail_bank_at_us = 1200.0;
  cfg.resilience.wear_limit = 1u << 20;  // monitor on; wear never trips
  const auto r = ServingRuntime(cfg).run();
  EXPECT_EQ(r.bank_failures, 1u);
  EXPECT_GT(r.completed, 0u);  // pre-failure work still finished
  EXPECT_GT(r.queued, 0u);     // stranded backlog surfaced, not spun on
  expect_resilient_work_conserved(r);
}

/// Primes `rt` and steps it to the end, counting the event boundaries
/// after which a live lane is draining with nothing in flight. Such a
/// lane takes no new work and sits idle until the next health tick
/// remaps it. `first` names the first one.
std::uint64_t count_stranded_draining_lanes(ServingRuntime& rt,
                                            std::string& first) {
  rt.prime();
  std::uint64_t stranded = 0;
  while (rt.has_events()) {
    rt.step();
    const obs::Json state = rt.snapshot_state();
    const auto& lanes = state.at("lanes").items();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (!lanes[i].at("dead").as_bool() &&
          lanes[i].at("draining").as_bool() &&
          lanes[i].at("in_flight").as_u64() == 0) {
        stranded += 1;
        if (first.empty()) {
          first = "lane " + std::to_string(i) + " at cycle " +
                  std::to_string(state.at("cycle").as_u64());
        }
      }
    }
  }
  return stranded;
}

TEST(ResilientServing, ProtocolTeardownRemapsTheDrainingLaneItEmpties) {
  // The config of `serve --protocol kem --chaos --retries 0
  // --arrival-rate 600000 --duration 1000 --seed 3 --wear-limit 100
  // --deadline 300 --breaker 1`: timed-out and failed ops tear their KEM
  // requests down while sibling ops still run on lanes that wear has set
  // draining. A teardown that empties such a lane must remap it at once,
  // as a completion or a hedge cancel does. So after every event no live
  // lane may be draining with nothing in flight.
  ServingConfig cfg;
  cfg.protocol.kind = ProtocolKind::kKem;
  cfg.workload.mix = {{kKemDegree, 1.0}};
  cfg.workload.tenants = 4;
  cfg.workload.seed = 3;
  cfg.workload.verify_every = 64;
  cfg.arrival_rate_per_s = 600000.0;
  cfg.duration_us = 1000.0;
  cfg.resilience = ResilienceConfig::chaos_preset(3);
  cfg.resilience.deadline_us = 300.0;
  cfg.resilience.max_retries = 0;
  cfg.resilience.breaker_k = 1;
  cfg.resilience.wear_limit = 100;

  ServingRuntime rt(cfg);
  std::string first;
  EXPECT_EQ(count_stranded_draining_lanes(rt, first), 0u) << "first: " << first;
  const ServingReport r = rt.seal();
  EXPECT_GT(r.protocol.ops_cancelled, 0u);  // teardown really ran
  EXPECT_GT(r.resilience.proactive_remaps, 0u);  // and wear drained lanes
}

TEST(ResilientServing, BankFailureRemapsADrainingVictim) {
  // The config of `serve --degrees 4096:1 --arrival-rate 2000000
  // --duration 600 --wear-limit 50 --fail-bank-at 400 --seed 1
  // --verify-every 0`: the bank failure strikes the busiest lane after
  // wear has set it draining. A spare absorbs the failure and the victim,
  // emptied by the teardown, must be remapped at once like any drained
  // lane. So after every event no live lane may be draining with nothing
  // in flight.
  ServingConfig cfg;
  cfg.workload.mix = {{4096, 1.0}};
  cfg.workload.tenants = 4;
  cfg.workload.seed = 1;
  cfg.arrival_rate_per_s = 2000000.0;
  cfg.duration_us = 600.0;
  cfg.fail_bank_at_us = 400.0;
  cfg.resilience.wear_limit = 50;

  ServingRuntime rt(cfg);
  std::string first;
  EXPECT_EQ(count_stranded_draining_lanes(rt, first), 0u) << "first: " << first;
  const ServingReport r = rt.seal();
  EXPECT_EQ(r.bank_failures, 1u);  // the failure really struck
  EXPECT_GT(r.resilience.proactive_remaps, 0u);  // and wear drained lanes
}

// ------------------------------------------------- serving: chaos ----------

TEST(ResilientServing, ChaosRunIsDeterministic) {
  const auto a = ServingRuntime(chaos_config(21)).run();
  const auto b = ServingRuntime(chaos_config(21)).run();
  EXPECT_EQ(json_text(a), json_text(b));  // byte-identical reports
  const auto c = ServingRuntime(chaos_config(22)).run();
  EXPECT_NE(json_text(a), json_text(c));  // the seed actually matters
}

TEST(ResilientServing, ChaosDeliversNothingWrong) {
  const auto r = ServingRuntime(chaos_config(33)).run();
  EXPECT_GT(r.resilience.chaos_episodes, 0u);
  EXPECT_EQ(r.resilience.wrong_accepted, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
  expect_resilient_work_conserved(r);
  // The mitigation stack keeps nearly everything completing.
  EXPECT_GE(static_cast<double>(r.completed),
            0.98 * static_cast<double>(r.admitted));
}

TEST(ResilientServing, DisablingDetectionAcceptsWrongResults) {
  // chaos_detect=false models a stack without the layered checks: the
  // same corrupting episodes now deliver wrong results, which is what
  // proves the detection path is doing real work everywhere else.
  auto cfg = chaos_config(33);
  cfg.resilience.chaos_detect = false;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.resilience.wrong_accepted, 0u);
  expect_resilient_work_conserved(r);
}

// ------------------------------------------ serving: one report shape --

TEST(ResilientServing, DefaultReportCarriesEveryBlockWithZeroCounters) {
  ServingConfig cfg;
  cfg.workload.mix = {{256, 1.0}};
  cfg.workload.seed = 13;
  cfg.duration_us = 1500.0;
  const auto a = ServingRuntime(cfg).run();
  const auto b = ServingRuntime(cfg).run();
  EXPECT_EQ(json_text(a), json_text(b));
  // A resilience-off run reports the same shape as any other: the
  // resilience block with every counter at zero, the fleet context and
  // the protocol block.
  const obs::Json j = a.to_json();
  ASSERT_TRUE(j.contains("resilience"));
  EXPECT_EQ(j.at("resilience").dump(), ResilienceStats{}.to_json().dump());
  for (const char* f :
       {"chip", "migrated", "lost_in_flight", "chip_corruptions",
        "chip_failed"}) {
    EXPECT_EQ(j.at(f).as_u64(), 0u) << f;
  }
  EXPECT_EQ(j.at("protocol").at("kind").as_string(), "none");
  for (const obs::Json& t : j.at("tenants").items()) {
    EXPECT_EQ(t.at("rejected_deadline").as_u64(), 0u);
  }
}

}  // namespace
}  // namespace cryptopim::runtime
