// Fleet serving: N chips behind one deterministic front-end
// (src/runtime/fleet.*), plus the chip-namespaced EventQueue ordering
// that makes the fleet's one timeline a strict total order.
//
// The integration tests drive real FleetRuntime runs — routing,
// placement, cross-chip retry, per-chip hedging and the drain/re-shard
// machinery only count if they hold up with N live ServingRuntime chips
// on the fleet's clock. Routers also get direct unit tests.

#include "runtime/fleet.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "runtime/event_queue.h"

namespace cryptopim::runtime {
namespace {

FleetConfig small_fleet(std::uint32_t chips, std::uint64_t seed = 1) {
  FleetConfig fc;
  fc.chips = chips;
  fc.replicas = 2;
  fc.chip.workload.mix = {{256, 2.0}, {1024, 1.0}};
  fc.chip.workload.tenants = 4;
  fc.chip.workload.seed = seed;
  fc.chip.workload.verify_every = 16;
  fc.chip.arrival_rate_per_s = 200000.0;
  fc.chip.duration_us = 1500.0;
  return fc;
}

std::string json_text(const FleetReport& r) {
  std::ostringstream os;
  r.to_json().write(os);
  return os.str();
}

/// Final-fate conservation: every submitted request is counted exactly
/// once by its terminal category, and the per-chip serving ledgers tie
/// to the fleet's dispatch counters.
void expect_fleet_conserved(const FleetReport& r) {
  EXPECT_EQ(r.submitted, r.completed + r.rejected + r.shed + r.timed_out +
                             r.failed + r.queued);
  std::uint64_t chip_submitted = 0;
  for (const auto& c : r.chip_reports) chip_submitted += c.submitted;
  EXPECT_EQ(chip_submitted, r.routed + r.cross_retries + r.redispatched);
}

std::uint64_t fleet_wrong_accepted(const FleetReport& r) {
  std::uint64_t wrong = 0;
  for (const auto& c : r.chip_reports) wrong += c.resilience.wrong_accepted;
  return wrong;
}

// ------------------------------------------------- EventQueue namespace --

TEST(EventQueueNamespace, SeqCarriesChipInHighBits) {
  EventQueue q;
  Event a;
  a.cycle = 10;
  q.push(a, /*ns=*/0);
  q.push(a, /*ns=*/1);
  const Event first = q.pop();
  const Event second = q.pop();
  EXPECT_EQ(first.seq >> EventQueue::kChipShift, 0u);
  EXPECT_EQ(second.seq >> EventQueue::kChipShift, 1u);
  EXPECT_EQ(EventQueue::ns(first), 0u);
  EXPECT_EQ(EventQueue::ns(second), 1u);
  // Below the namespace, one push counter serves every namespace.
  const std::uint64_t low = (std::uint64_t{1} << EventQueue::kChipShift) - 1;
  EXPECT_EQ(first.seq & low, 0u);
  EXPECT_EQ(second.seq & low, 1u);
}

TEST(EventQueueNamespace, InterleavedTwoChipMergeIsAStrictTotalOrder) {
  // Two chips schedule events at overlapping cycles on one queue, pushes
  // interleaved; the pop order must be the strict total order on
  // (cycle, seq), with same-cycle ties broken by the namespace first and
  // push order within a namespace second.
  EventQueue q;
  const auto push = [&q](std::uint64_t cycle, std::uint32_t chip) {
    Event e;
    e.cycle = cycle;
    e.dispatch_id = 100 * (chip + 1) + cycle;  // payload marker
    q.push(e, chip);
  };
  push(5, 1);
  push(5, 0);
  push(7, 1);
  push(5, 0);
  push(9, 1);
  push(9, 0);
  push(12, 0);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;  // cycle, seq
  std::vector<std::uint32_t> chips;
  std::set<std::uint64_t> seqs;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_TRUE(seqs.insert(e.seq).second) << "duplicate seq " << e.seq;
    EXPECT_EQ(e.dispatch_id, 100 * (EventQueue::ns(e) + 1) + e.cycle);
    order.emplace_back(e.cycle, e.seq);
    chips.push_back(EventQueue::ns(e));
  }
  ASSERT_EQ(order.size(), 7u);
  // Strict total order on (cycle, seq).
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_TRUE(order[i - 1] < order[i]);
  }
  // Chip 1 pushed at cycle 5 first, but chip 0's namespace sorts first:
  // the prefix is chip0, chip0, chip1 — not push order. Cycle 9 likewise.
  EXPECT_EQ(chips, (std::vector<std::uint32_t>{0, 0, 1, 1, 0, 1, 0}));
}

// ------------------------------------------------------------- Routers --

std::vector<ChipView> three_chips() {
  return {{0, /*queue=*/4, /*in_flight=*/2},
          {1, /*queue=*/0, /*in_flight=*/1},
          {2, /*queue=*/0, /*in_flight=*/1}};
}

TEST(RouterFactory, KnownNamesAndUnknownName) {
  // Each name's policy is pinned by its own test below.
  for (const char* name : {"hash", "least", "affinity"}) {
    EXPECT_NE(make_router(name), nullptr) << name;
  }
  EXPECT_EQ(make_router("roundrobin"), nullptr);
}

TEST(HashRouter, StickyPerTenantAndAlwaysInCandidates) {
  auto r = make_router("hash");
  const auto cands = three_chips();
  for (std::uint32_t tenant = 0; tenant < 16; ++tenant) {
    Request req;
    req.tenant = tenant;
    const auto first = r->pick(req, cands);
    EXPECT_TRUE(first == 0 || first == 1 || first == 2);
    // Consistent: the same tenant lands on the same chip every time.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(r->pick(req, cands), first);
  }
  // Not degenerate: 16 tenants over 3 chips should use more than one.
  std::set<std::uint32_t> used;
  for (std::uint32_t tenant = 0; tenant < 16; ++tenant) {
    Request req;
    req.tenant = tenant;
    used.insert(r->pick(req, cands));
  }
  EXPECT_GT(used.size(), 1u);
}

TEST(LeastLoadedRouter, PicksMinLoadLowestIdOnTies) {
  auto r = make_router("least");
  Request req;
  // Chips 1 and 2 tie at load 1; chip 1 wins by id.
  EXPECT_EQ(r->pick(req, three_chips()), 1u);
  std::vector<ChipView> cands = {{0, 0, 0}, {1, 5, 0}, {2, 1, 1}};
  EXPECT_EQ(r->pick(req, cands), 0u);
}

TEST(AffinityRouter, PicksThePlacementPrimary) {
  auto r = make_router("affinity");
  Request req;
  std::vector<ChipView> cands = {{2, 9, 9}, {0, 0, 0}};
  // The candidate list is the class placement in order; affinity takes
  // the primary regardless of load.
  EXPECT_EQ(r->pick(req, cands), 2u);
}

// ----------------------------------------------------- FleetRuntime runs --

TEST(FleetServing, HealthyFleetConservesAndSpreadsWork) {
  FleetRuntime fleet(small_fleet(4));
  const auto rep = fleet.run();
  EXPECT_GT(rep.submitted, 100u);
  EXPECT_GT(rep.completed, 0u);
  expect_fleet_conserved(rep);
  EXPECT_EQ(fleet_wrong_accepted(rep), 0u);
  EXPECT_EQ(rep.chip_reports.size(), 4u);
  std::uint64_t busy_chips = 0;
  for (std::size_t i = 0; i < rep.chip_reports.size(); ++i) {
    const auto& c = rep.chip_reports[i];
    EXPECT_EQ(c.chip_id, i);
    if (c.submitted > 0) ++busy_chips;
  }
  // replicas=2 over two degree classes must engage at least two chips.
  EXPECT_GE(busy_chips, 2u);
  EXPECT_EQ(rep.crashes, 0u);
  EXPECT_EQ(rep.reshards, 0u);
}

TEST(FleetServing, EveryRouterPolicyRunsConserved) {
  for (const char* router : {"hash", "least", "affinity"}) {
    auto fc = small_fleet(3);
    fc.router = router;
    FleetRuntime fleet(std::move(fc));
    const auto rep = fleet.run();
    EXPECT_EQ(rep.router, router);
    expect_fleet_conserved(rep);
    EXPECT_EQ(fleet_wrong_accepted(rep), 0u) << router;
  }
}

TEST(FleetServing, InvalidConfigsThrow) {
  auto fc = small_fleet(0);
  EXPECT_THROW(FleetRuntime(std::move(fc)).run(), std::invalid_argument);
  fc = small_fleet(2);
  fc.router = "bogus";
  EXPECT_THROW(FleetRuntime(std::move(fc)).run(), std::invalid_argument);
  fc = small_fleet(2);
  fc.chip.closed_loop_clients = 4;
  EXPECT_THROW(FleetRuntime(std::move(fc)).run(), std::invalid_argument);
}

TEST(FleetServing, OutOfRangeKillChipThrows) {
  // A kill_chip the fleet does not have would crash no chip, so the run
  // refuses it rather than report a kill that never happened.
  auto fc = small_fleet(3);
  fc.kill_chip_at_us = 400.0;
  fc.kill_chip = 5;
  EXPECT_THROW(FleetRuntime(std::move(fc)).run(), std::invalid_argument);
}

TEST(FleetServing, SameSeedIsByteIdentical) {
  auto cfg = small_fleet(4, /*seed=*/9);
  cfg.chaos.enabled = true;
  cfg.chaos.seed = 9;
  cfg.chip.resilience.hedge = true;
  const auto a = FleetRuntime(cfg).run();
  const auto b = FleetRuntime(cfg).run();
  EXPECT_EQ(json_text(a), json_text(b));
  const auto c = FleetRuntime(small_fleet(4, /*seed=*/10)).run();
  EXPECT_NE(json_text(a), json_text(c));
}

TEST(FleetServing, ChipKillMidBurstDrainsReshardsAndRecovers) {
  auto fc = small_fleet(4, /*seed=*/3);
  fc.chip.duration_us = 3000.0;
  fc.kill_chip_at_us = 700.0;
  fc.kill_chip = 1;
  FleetRuntime fleet(fc);
  const auto rep = fleet.run();

  EXPECT_EQ(rep.crashes, 1u);
  EXPECT_EQ(rep.rejoins, 1u);
  // The crash re-shards the map; the rejoin re-shards it back.
  EXPECT_GE(rep.reshards, 2u);
  const auto& victim = rep.chip_reports[fc.kill_chip];
  // The burst is hot enough that the victim had work to lose.
  EXPECT_GT(victim.migrated + victim.lost_in_flight, 0u);
  // Everything reclaimed from the victim was re-routed...
  EXPECT_GE(rep.redispatched, victim.migrated + victim.lost_in_flight);
  // ...and nothing corrupt slipped through anywhere.
  EXPECT_EQ(fleet_wrong_accepted(rep), 0u);
  // Migrated work completes or stays accounted: conservation holds with
  // the crash in the middle of the run.
  expect_fleet_conserved(rep);
  // The victim rejoined and served again after the scrub: it saw more
  // submissions than it lost.
  EXPECT_GT(victim.submitted, 0u);
}

TEST(FleetServing, KillingEveryChipParksArrivalsUntilRejoin) {
  // One chip, killed mid-run: arrivals during the outage have no live
  // candidate and park; the rejoin drains the park. Nothing is lost.
  auto fc = small_fleet(1, /*seed=*/5);
  fc.replicas = 1;
  fc.chip.duration_us = 3000.0;
  fc.chip.arrival_rate_per_s = 50000.0;
  fc.kill_chip_at_us = 600.0;
  fc.kill_chip = 0;
  FleetRuntime fleet(fc);
  const auto rep = fleet.run();
  EXPECT_EQ(rep.crashes, 1u);
  EXPECT_EQ(rep.rejoins, 1u);
  EXPECT_GT(rep.parked, 0u);
  expect_fleet_conserved(rep);
  EXPECT_EQ(fleet_wrong_accepted(rep), 0u);
  // The fleet kept serving after the rejoin.
  EXPECT_GT(rep.completed, 0u);
}

TEST(FleetServing, ParkedCrossRetryCountsOnceWhenItLands) {
  // One chip with a short queue: queue-full rejections go to cross-chip
  // retry. Retries whose backoff ends while the killed chip scrubs find
  // no candidate and park; the rejoin routes them. Each counts once, as
  // redispatched and not also as a cross-chip retry, so the chips'
  // submissions still tie to the ledger.
  auto fc = small_fleet(1, /*seed=*/1);
  fc.replicas = 1;
  fc.chip.arrival_rate_per_s = 3000000.0;
  fc.chip.duration_us = 2000.0;
  fc.chip.queue_capacity = 16;
  fc.kill_chip_at_us = 600.0;
  fc.kill_chip = 0;
  FleetRuntime fleet(fc);
  const auto rep = fleet.run();
  EXPECT_EQ(rep.crashes, 1u);
  EXPECT_GT(rep.parked, 0u);
  expect_fleet_conserved(rep);
}

TEST(FleetServing, ChipCrashEndsHedgedPairsAndMigratesEachRequestOnce) {
  // Chips hedge nearly every dispatch onto a second lane; the crash ends
  // every in-flight dispatch, twins included, and the fleet re-routes
  // each request once.
  auto fc = small_fleet(3, /*seed=*/3);
  fc.chip.duration_us = 2000.0;
  fc.chip.resilience.hedge = true;
  fc.chip.resilience.hedge_delay_us = 1.0;
  fc.kill_chip_at_us = 700.0;
  fc.kill_chip = 1;
  FleetRuntime fleet(fc);
  obs::EventLog log;
  log.open_stream(::testing::TempDir() + "/fleet_hedged_crash.jsonl",
                  /*line_buffered=*/false);
  fleet.set_event_log(&log);
  const auto rep = fleet.run();
  EXPECT_EQ(rep.crashes, 1u);
  std::uint64_t hedges = 0;
  for (const auto& c : rep.chip_reports) hedges += c.resilience.hedges;
  EXPECT_GT(hedges, 0u);
  expect_fleet_conserved(rep);
  EXPECT_EQ(fleet_wrong_accepted(rep), 0u);

  const auto& records = log.records();
  std::uint64_t crash_cycle = 0;
  for (const auto& rec : records) {
    if (rec.at("ev").as_string() == "chip_crash") {
      crash_cycle = rec.at("cycle").as_u64();
    }
  }
  ASSERT_GT(crash_cycle, 0u);
  std::set<std::uint64_t> traces;
  std::uint64_t migrates = 0;
  for (const auto& rec : records) {
    if (rec.at("ev").as_string() != "migrate" ||
        rec.at("cycle").as_u64() != crash_cycle) {
      continue;
    }
    migrates += 1;
    EXPECT_TRUE(traces.insert(rec.at("trace").as_u64()).second)
        << "trace " << rec.at("trace").as_u64() << " migrated twice";
  }
  EXPECT_GT(migrates, 0u);
  // Hedged pairs were in flight: with no drain, the victim's lost
  // dispatches and migrated queue come from the crash alone, and they
  // outnumber the requests it migrated.
  ASSERT_EQ(rep.drains, 0u);
  const auto& victim = rep.chip_reports[fc.kill_chip];
  EXPECT_LT(migrates, victim.lost_in_flight + victim.migrated);
}

TEST(FleetServing, FleetChaosEpisodesAreSurvivedWithoutWrongResults) {
  auto fc = small_fleet(4, /*seed=*/11);
  fc.chip.duration_us = 6000.0;
  fc.chaos.enabled = true;
  fc.chaos.seed = 11;
  fc.chaos.mean_interval_us = 600.0;
  fc.chaos.mean_duration_us = 250.0;
  fc.max_retries = 3;
  fc.retry_budget_ratio = 1.0;
  fc.chip.resilience.max_retries = 2;  // lane-level retries for storms
  FleetRuntime fleet(fc);
  const auto rep = fleet.run();

  EXPECT_GT(rep.crashes + rep.brownouts + rep.corruption_storms, 0u);
  EXPECT_EQ(rep.rejoins, rep.crashes + rep.drains);
  expect_fleet_conserved(rep);
  EXPECT_EQ(fleet_wrong_accepted(rep), 0u);
  // The fleet stays useful through the storm: the overwhelming majority
  // of non-rejected requests still complete.
  const std::uint64_t resolved = rep.submitted - rep.rejected - rep.shed;
  EXPECT_GT(resolved, 0u);
  EXPECT_GE(static_cast<double>(rep.completed),
            0.95 * static_cast<double>(resolved));
  // Corruption storms were detected, not silently accepted.
  std::uint64_t chip_corruptions = 0;
  for (const auto& c : rep.chip_reports) chip_corruptions += c.chip_corruptions;
  if (rep.corruption_storms > 0) {
    EXPECT_GT(chip_corruptions, 0u);
  }
}

TEST(FleetServing, CrossChipRetryRescuesWorkAChipGaveUpOn) {
  // A corruption storm with lane retries off forces terminal chip
  // failures; the fleet's cross-chip retry layer re-routes them.
  auto fc = small_fleet(3, /*seed=*/21);
  fc.chip.duration_us = 4000.0;
  fc.chip.resilience.max_retries = 0;  // chips give up immediately
  fc.max_retries = 3;
  fc.retry_budget_ratio = 4.0;
  fc.chaos.enabled = true;
  fc.chaos.seed = 21;
  fc.chaos.mean_interval_us = 500.0;
  fc.chaos.mean_duration_us = 300.0;
  FleetRuntime fleet(fc);
  const auto rep = fleet.run();
  EXPECT_GT(rep.corruption_storms, 0u);
  EXPECT_GT(rep.cross_retries, 0u);
  expect_fleet_conserved(rep);
  EXPECT_EQ(fleet_wrong_accepted(rep), 0u);
  // Retries rescued at least some of the storm's victims.
  EXPECT_LT(rep.failed, rep.cross_retries + rep.failed);
}

// -------------------------------------------------- shared event log --

TEST(FleetServing, SharedEventLogStampsChipOnEveryRecord) {
  auto fc = small_fleet(3, /*seed=*/13);
  fc.chip.duration_us = 2000.0;
  fc.kill_chip_at_us = 500.0;
  fc.kill_chip = 0;
  FleetRuntime fleet(fc);
  obs::EventLog log;
  log.open_stream(::testing::TempDir() + "/fleet_shared_events.jsonl",
                  /*line_buffered=*/false);
  fleet.set_event_log(&log);
  const auto rep = fleet.run();
  expect_fleet_conserved(rep);
  ASSERT_GT(log.size(), 0u);

  std::set<std::uint64_t> chips_seen;
  std::set<std::string> evs_seen;
  for (const auto& rec : log.records()) {
    // serve-events/2: every record carries ev, cycle and chip.
    ASSERT_TRUE(rec.contains("ev"));
    ASSERT_TRUE(rec.contains("cycle"));
    ASSERT_TRUE(rec.contains("chip")) << rec.at("ev").as_string();
    chips_seen.insert(rec.at("chip").as_u64());
    evs_seen.insert(rec.at("ev").as_string());
  }
  // More than one chip logged into the one stream, and the fleet's own
  // lifecycle records (route + crash machinery) interleave with the
  // chips' request records.
  EXPECT_GT(chips_seen.size(), 1u);
  EXPECT_TRUE(evs_seen.contains("route"));
  EXPECT_TRUE(evs_seen.contains("chip_crash"));
  EXPECT_TRUE(evs_seen.contains("chip_rejoin"));
  EXPECT_TRUE(evs_seen.contains("reshard"));
  EXPECT_TRUE(evs_seen.contains("admitted"));
}

TEST(FleetServing, TraceIdsAreStableAcrossChips) {
  // A request re-dispatched onto another chip keeps its trace id: the
  // causal chain for one request reads across chips in the shared log.
  auto fc = small_fleet(3, /*seed=*/17);
  fc.chip.duration_us = 3000.0;
  fc.chip.resilience.max_retries = 0;
  fc.max_retries = 3;
  fc.retry_budget_ratio = 4.0;
  fc.chaos.enabled = true;
  fc.chaos.seed = 17;
  fc.chaos.mean_interval_us = 500.0;
  fc.chaos.mean_duration_us = 300.0;
  FleetRuntime fleet(fc);
  obs::EventLog log;
  log.open_stream(::testing::TempDir() + "/fleet_trace_ids.jsonl",
                  /*line_buffered=*/false);
  fleet.set_event_log(&log);
  const auto rep = fleet.run();
  ASSERT_GT(rep.cross_retries, 0u);

  // Find a fleet_retry record and check its trace id was admitted on
  // more than one chip.
  bool found_cross_chip_trace = false;
  for (const auto& rec : log.records()) {
    if (rec.at("ev").as_string() != "fleet_retry") continue;
    const std::uint64_t trace = rec.at("trace").as_u64();
    std::set<std::uint64_t> chips;
    for (const auto& other : log.records()) {
      if (other.contains("trace") && other.at("trace").as_u64() == trace &&
          other.at("ev").as_string() == "admitted") {
        chips.insert(other.at("chip").as_u64());
      }
    }
    if (chips.size() > 1) {
      found_cross_chip_trace = true;
      break;
    }
  }
  EXPECT_TRUE(found_cross_chip_trace);
}

// ------------------------------------------------------------ report --

TEST(FleetReportJson, CarriesSchemaCountersAndPerChipReports) {
  auto fc = small_fleet(2, /*seed=*/19);
  FleetRuntime fleet(fc);
  const auto rep = fleet.run();
  const auto j = rep.to_json();
  EXPECT_EQ(j.at("schema").as_string(), "fleet/1");
  EXPECT_EQ(j.at("fleet").as_u64(), 2u);
  EXPECT_EQ(j.at("router").as_string(), "hash");
  EXPECT_EQ(j.at("replicas").as_u64(), 2u);
  ASSERT_EQ(j.at("chips").size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& c = j.at("chips")[i];
    EXPECT_EQ(c.at("schema").as_string(), "serving/3");
    EXPECT_EQ(c.at("chip").as_u64(), i);
  }
  EXPECT_EQ(j.at("submitted").as_u64(), rep.submitted);
  EXPECT_EQ(j.at("completed").as_u64(), rep.completed);
}

}  // namespace
}  // namespace cryptopim::runtime
