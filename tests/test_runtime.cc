// Tests for the online serving runtime (src/runtime/*): event queue
// ordering, scheduling policies, workload generators, and the
// acceptance-bar properties of full serving runs — determinism, work
// conservation, backpressure, saturation at the model-predicted bound,
// fairness, and mid-stream bank-failure recovery with verified results.
#include "runtime/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>

#include "model/performance.h"
#include "model/scheduler.h"
#include "runtime/event_queue.h"
#include "runtime/policy.h"
#include "runtime/workload.h"

namespace cryptopim::runtime {
namespace {

// ----------------------------------------------------------- EventQueue --

TEST(EventQueue, PopsByCycleThenPushOrder) {
  EventQueue q;
  Event a;
  a.cycle = 5;
  a.kind = EventKind::kArrival;
  Event b;
  b.cycle = 3;
  b.kind = EventKind::kCompletion;
  Event c;
  c.cycle = 5;
  c.kind = EventKind::kQueueScan;
  q.push(a);
  q.push(b);
  q.push(c);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().kind, EventKind::kCompletion);  // cycle 3 first
  EXPECT_EQ(q.pop().kind, EventKind::kArrival);     // cycle 5, pushed first
  EXPECT_EQ(q.pop().kind, EventKind::kQueueScan);   // cycle 5, pushed second
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopIsDeterministic) {
  // Two identically-seeded interleavings of pushes and pops must drain
  // in the same order — the determinism the serving runtime's replay
  // guarantee rests on. Collisions are forced by folding cycles mod 8.
  auto run_once = []() {
    std::vector<std::uint64_t> order;
    EventQueue q;
    Xoshiro256 rng(99);
    std::uint64_t id = 0;
    for (int round = 0; round < 200; ++round) {
      const unsigned pushes = 1 + static_cast<unsigned>(rng.next_below(3));
      for (unsigned i = 0; i < pushes; ++i) {
        Event e;
        e.cycle = rng.next_below(8);
        e.dispatch_id = id++;
        q.push(e);
      }
      if (!q.empty() && rng.next_below(2) == 0) {
        order.push_back(q.pop().dispatch_id);
      }
    }
    while (!q.empty()) order.push_back(q.pop().dispatch_id);
    return order;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  // Every pushed event drained exactly once.
  std::vector<std::uint64_t> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

// -------------------------------------------------------------- Policies --

Request make_request(std::uint64_t id, std::uint64_t arrival,
                     std::uint64_t service, std::uint64_t deadline = 0,
                     std::uint32_t tenant = 0) {
  Request r;
  r.id = id;
  r.tenant = tenant;
  r.degree = 256;
  r.arrival_cycle = arrival;
  r.service_cycles = service;
  r.deadline_cycle = deadline;
  return r;
}

/// Index of the request `policy` serves first: the dispatcher's pick
/// when every request in `queue` is eligible.
std::size_t first(Policy policy, const std::vector<Request>& queue,
                  std::span<const double> usage = {}) {
  const auto it = std::min_element(
      queue.begin(), queue.end(), [&](const Request& a, const Request& b) {
        return runs_before(policy, a, b, usage);
      });
  return static_cast<std::size_t>(it - queue.begin());
}

TEST(Policy, ParseKnowsAllNamesAndRejectsUnknown) {
  const std::vector<Policy> all = {Policy::kFifo, Policy::kSjf, Policy::kEdf,
                                   Policy::kWfq};
  ASSERT_EQ(policy_names().size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(parse_policy(policy_names()[i]), all[i]) << policy_names()[i];
  }
  EXPECT_EQ(parse_policy("lifo"), std::nullopt);
  EXPECT_EQ(parse_policy(""), std::nullopt);
}

TEST(Policy, FifoPicksOldestEligible) {
  const std::vector<Request> queue = {make_request(3, 30, 1),
                                      make_request(1, 10, 9),
                                      make_request(2, 20, 5)};
  EXPECT_EQ(first(Policy::kFifo, queue), 1u);
  // Without the oldest, the next-oldest goes first.
  EXPECT_TRUE(runs_before(Policy::kFifo, queue[2], queue[0], {}));
  EXPECT_FALSE(runs_before(Policy::kFifo, queue[0], queue[2], {}));
  // A strict order: nothing runs before itself; equal arrivals fall back
  // to the lower id.
  EXPECT_FALSE(runs_before(Policy::kFifo, queue[1], queue[1], {}));
  EXPECT_TRUE(runs_before(Policy::kFifo, make_request(4, 10, 1),
                          make_request(5, 10, 1), {}));
}

TEST(Policy, SjfPicksShortestService) {
  const std::vector<Request> queue = {make_request(1, 10, 900),
                                      make_request(2, 20, 100),
                                      make_request(3, 30, 100)};
  // Equal service times tie-break on arrival order.
  EXPECT_EQ(first(Policy::kSjf, queue), 1u);
  EXPECT_TRUE(runs_before(Policy::kSjf, queue[2], queue[0], {}));
}

TEST(Policy, EdfPicksEarliestDeadlineAndRanksNoDeadlineLast) {
  const std::vector<Request> queue = {
      make_request(1, 10, 5, /*deadline=*/0),    // no deadline
      make_request(2, 20, 5, /*deadline=*/500),
      make_request(3, 30, 5, /*deadline=*/400)};
  EXPECT_EQ(first(Policy::kEdf, queue), 2u);
  // The deadline-free request, though oldest, runs after any deadline;
  // among deadline-free requests arrival order decides.
  EXPECT_TRUE(runs_before(Policy::kEdf, queue[1], queue[0], {}));
  EXPECT_FALSE(runs_before(Policy::kEdf, queue[0], queue[1], {}));
  EXPECT_TRUE(runs_before(Policy::kEdf, queue[0],
                          make_request(4, 40, 5, /*deadline=*/0), {}));
}

TEST(Policy, WfqPicksLeastNormalisedUsage) {
  const std::vector<Request> queue = {make_request(1, 10, 5, 0, /*tenant=*/0),
                                      make_request(2, 20, 5, 0, /*tenant=*/1)};
  const std::vector<double> usage = {100.0, 10.0};
  EXPECT_EQ(first(Policy::kWfq, queue, usage), 1u);  // tenant 1 is behind
  // A tenant past the usage table has used nothing yet.
  EXPECT_TRUE(runs_before(Policy::kWfq, make_request(3, 30, 5, 0, 7),
                          queue[1], usage));
}

// ------------------------------------------------------------- Workloads --

TEST(Workload, UniformUnitStaysInHalfOpenInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform_unit(rng);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Workload, PoissonStreamIsReproducibleAndBounded) {
  WorkloadSpec spec;
  spec.mix = {{256, 2.0}, {1024, 1.0}};
  spec.tenants = 3;
  spec.seed = 42;
  const std::uint64_t horizon = 100000;
  auto collect = [&] {
    OpenLoopPoisson gen(spec, /*rate_per_cycle=*/0.001, horizon);
    std::vector<Arrival> out = gen.initial();
    while (auto next = gen.next_after_arrival(out.back())) {
      out.push_back(*next);
    }
    return out;
  };
  const auto a = collect();
  const auto b = collect();
  ASSERT_GT(a.size(), 10u);
  ASSERT_EQ(a.size(), b.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].request.id, b[i].request.id);
    EXPECT_EQ(a[i].request.degree, b[i].request.degree);
    EXPECT_EQ(a[i].request.tenant, b[i].request.tenant);
    EXPECT_GT(a[i].cycle, prev);  // strictly advancing (>= 1 cycle gaps)
    EXPECT_LE(a[i].cycle, horizon);
    EXPECT_LT(a[i].request.tenant, spec.tenants);
    prev = a[i].cycle;
  }
}

TEST(Workload, ClosedLoopPrimesOneArrivalPerClient) {
  WorkloadSpec spec;
  spec.seed = 5;
  ClosedLoop gen(spec, /*clients=*/4, /*think_cycles=*/100,
                 /*horizon_cycles=*/100000);
  const auto initial = gen.initial();
  EXPECT_EQ(initial.size(), 4u);
  // A completion re-issues for the same client, after the horizon not.
  const auto again = gen.next_after_completion(initial[0].request, 500);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->request.client, initial[0].request.client);
  EXPECT_GT(again->cycle, 500u);
  EXPECT_FALSE(gen.next_after_completion(initial[0].request, 100001));
}

TEST(Workload, VerifyEveryMarksTheSampledSubset) {
  WorkloadSpec spec;
  spec.verify_every = 4;
  spec.seed = 7;
  Xoshiro256 rng(9);
  unsigned flagged = 0;
  for (std::uint64_t id = 0; id < 20; ++id) {
    const Request r = sample_request(spec, rng, id);
    if (r.verify) {
      ++flagged;
      EXPECT_NE(r.data_seed, 0u);
    }
  }
  EXPECT_EQ(flagged, 5u);  // ids 0, 4, 8, 12, 16
}

// ------------------------------------------------------------ Full runs --

/// Bank-limited service capacity for one degree class (model layer's
/// degraded-chip aware helper, on this config's chip and clock).
double class_capacity_per_s(const ServingConfig& cfg, std::uint32_t degree) {
  return model::class_capacity_per_s(cfg.chip, degree, /*failed_banks=*/0,
                                     cfg.cycle_ns);
}

ServingConfig base_config(std::uint32_t degree, double duration_us) {
  ServingConfig cfg;
  cfg.workload.mix = {{degree, 1.0}};
  cfg.workload.seed = 11;
  cfg.duration_us = duration_us;
  return cfg;
}

/// submitted == admitted + rejected and admitted == completed + queued
/// after the final drain (in_flight is always 0 then).
void expect_work_conserved(const ServingReport& r) {
  EXPECT_EQ(r.submitted, r.admitted + r.rejected + r.rejected_unservable);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.admitted, r.completed + r.queued);
}

TEST(Serving, RejectsUnknownPolicyAndEmptyMix) {
  ServingConfig cfg = base_config(256, 10);
  cfg.policy = "round-robin";
  EXPECT_THROW(ServingRuntime(cfg).run(), std::invalid_argument);
  cfg.policy = "fifo";
  cfg.workload.mix.clear();
  EXPECT_THROW(ServingRuntime(cfg).run(), std::invalid_argument);
}

TEST(Serving, DeterministicReportForFixedSeed) {
  ServingConfig cfg;
  cfg.policy = "sjf";
  cfg.workload.mix = {{256, 2.0}, {1024, 1.0}, {4096, 0.5}};
  cfg.workload.tenants = 3;
  cfg.workload.seed = 99;
  cfg.arrival_rate_per_s = 200000;
  cfg.duration_us = 400;
  const auto a = ServingRuntime(cfg).run();
  const auto b = ServingRuntime(cfg).run();
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(Serving, ConservesWorkUnderBackpressure) {
  ServingConfig cfg = base_config(4096, 0);
  const double capacity = class_capacity_per_s(cfg, 4096);
  // Offer 8x the bank-limited capacity into a 16-deep queue: most of the
  // stream must bounce, and every request must still be accounted for.
  cfg.arrival_rate_per_s = 8 * capacity;
  cfg.duration_us = 400 * 1e6 / capacity;  // ~400 served requests' worth
  cfg.queue_capacity = 16;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.rejected, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.queued, 0u);  // healthy chip: the queue fully drains
  expect_work_conserved(r);
  EXPECT_LE(r.queue_depth.max(), cfg.queue_capacity);
}

TEST(Serving, SaturationPlateausAtModelBound) {
  ServingConfig light = base_config(4096, 0);
  const double capacity = class_capacity_per_s(light, 4096);
  // ~6000 served requests: long enough that the trailing pipeline fill
  // (54 beats at n=4096) is a few percent of the run, not a third.
  const double horizon_us = 6000 * 1e6 / capacity;
  light.duration_us = horizon_us;
  light.arrival_rate_per_s = 0.2 * capacity;

  ServingConfig over2 = light;
  over2.arrival_rate_per_s = 2 * capacity;
  ServingConfig over4 = light;
  over4.arrival_rate_per_s = 4 * capacity;

  const auto rl = ServingRuntime(light).run();
  const auto r2 = ServingRuntime(over2).run();
  const auto r4 = ServingRuntime(over4).run();

  // Throughput plateaus at the bank-limited bound: pushing 2x -> 4x
  // offered load must not move delivered throughput, and both sit at the
  // model-predicted capacity (within fill/drain edge effects).
  EXPECT_GT(r2.throughput_per_s, 0.85 * capacity);
  EXPECT_LE(r2.throughput_per_s, 1.05 * capacity);
  EXPECT_NEAR(r4.throughput_per_s, r2.throughput_per_s,
              0.05 * capacity);
  // Light load is nowhere near the bound and its p99 is queueing-free;
  // overload p99 is dominated by time spent queued.
  EXPECT_LT(rl.throughput_per_s, 0.5 * capacity);
  EXPECT_GT(r2.latency_cycles.quantile(0.99),
            2 * rl.latency_cycles.quantile(0.99));
  EXPECT_GT(r2.utilization, 2 * rl.utilization);
  expect_work_conserved(rl);
  expect_work_conserved(r2);
  expect_work_conserved(r4);
}

TEST(Serving, MixedDegreesCarveOneLaneClassEach) {
  ServingConfig cfg;
  cfg.workload.mix = {{256, 1.0}, {1024, 1.0}, {4096, 1.0}};
  cfg.workload.seed = 21;
  cfg.arrival_rate_per_s = 100000;
  cfg.duration_us = 500;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.rejected, 0u);  // light load: nothing bounces
  EXPECT_GE(r.repartitions, 3u);  // at least one carve per degree class
  expect_work_conserved(r);
}

TEST(Serving, EdfMeetsDeadlinesAtLightLoadMissesUnderOverload) {
  ServingConfig light = base_config(4096, 0);
  const double capacity = class_capacity_per_s(light, 4096);
  light.policy = "edf";
  // Slack 1.5x the unloaded service: queueing beyond half a service
  // time blows the deadline.
  light.deadline_slack = 1.5;
  light.duration_us = 1000 * 1e6 / capacity;
  light.arrival_rate_per_s = 0.2 * capacity;
  const auto rl = ServingRuntime(light).run();
  EXPECT_GT(rl.completed, 0u);
  EXPECT_EQ(rl.deadline_misses, 0u);

  ServingConfig over = light;
  over.arrival_rate_per_s = 3 * capacity;
  const auto ro = ServingRuntime(over).run();
  EXPECT_GT(ro.deadline_misses, 0u);
}

TEST(Serving, WfqWeightsProtectTheHeavyTenantsLatency) {
  // Two equal-demand tenants, weights 3:1, offered load past the bound.
  // After the full drain every admitted request completes, so cumulative
  // bank-cycle *totals* converge to the admission mix — the weight shows
  // up in *when* each tenant is served: wfq serves tenant 0 at three
  // times tenant 1's rate whenever both are queued, so tenant 0 waits
  // far less. fifo, blind to tenants, gives both the same latency.
  ServingConfig cfg = base_config(4096, 0);
  const double capacity = class_capacity_per_s(cfg, 4096);
  cfg.policy = "wfq";
  cfg.workload.tenants = 2;
  cfg.tenant_weights = {3.0, 1.0};
  cfg.arrival_rate_per_s = 2 * capacity;
  cfg.duration_us = 1000 * 1e6 / capacity;
  cfg.queue_capacity = 4096;  // nothing bounces: pure scheduling effect
  const auto wfq = ServingRuntime(cfg).run();

  ServingConfig blind = cfg;
  blind.policy = "fifo";
  const auto fifo = ServingRuntime(blind).run();

  const double wfq_t0 = wfq.tenants.at(0).latency_cycles.mean();
  const double wfq_t1 = wfq.tenants.at(1).latency_cycles.mean();
  const double fifo_t0 = fifo.tenants.at(0).latency_cycles.mean();
  const double fifo_t1 = fifo.tenants.at(1).latency_cycles.mean();
  ASSERT_GT(wfq_t1, 0.0);
  ASSERT_GT(fifo_t1, 0.0);
  EXPECT_LT(wfq_t0, 0.6 * wfq_t1);        // weight 3 waits much less
  EXPECT_LT(wfq_t0, 0.8 * fifo_t0);       // and less than under fifo
  EXPECT_NEAR(fifo_t0 / fifo_t1, 1.0, 0.2);  // fifo is tenant-blind
  expect_work_conserved(wfq);
}

TEST(Serving, ClosedLoopSelfLimitsAtClientCount) {
  ServingConfig cfg = base_config(256, 500);
  cfg.closed_loop_clients = 4;
  cfg.think_time_us = 5.0;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.completed, 4u);
  EXPECT_EQ(r.rejected, 0u);
  // At most one outstanding request per client, so the admission queue
  // can never hold more than clients - 1 others at an arrival.
  EXPECT_LT(r.queue_depth.max(), 4u);
  expect_work_conserved(r);
}

TEST(Serving, ClosedLoopClientsReissueAfterAdmissionRejection) {
  // A rejected request completes its client's loop like every other
  // fate: the client sees the error and re-issues after thinking. With
  // 64 clients and a 4-deep queue most first requests are rejected, yet
  // every client must still be issuing in the second half of the horizon
  // instead of dropping out for good.
  ServingConfig cfg = base_config(4096, 3000);
  cfg.workload.seed = 4;
  cfg.closed_loop_clients = 64;
  cfg.think_time_us = 1.0;
  cfg.queue_capacity = 4;
  const auto horizon =
      static_cast<std::uint64_t>(cfg.duration_us * cfg.cycles_per_us());
  std::set<std::uint32_t> late_clients;
  ServingRuntime rt(cfg);
  rt.set_outcome_sink([&](const Request& r, Outcome, std::uint64_t cycle) {
    if (cycle >= horizon / 2 && cycle < horizon) late_clients.insert(r.client);
  });
  const auto r = rt.run();
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(late_clients.size(), 64u);
  expect_work_conserved(r);
}

TEST(Serving, BankFailureRepartitionsAndStreamStillVerifies) {
  ServingConfig cfg = base_config(4096, 0);
  const double capacity = class_capacity_per_s(cfg, 4096);
  cfg.arrival_rate_per_s = 1.5 * capacity;
  cfg.duration_us = 400 * 1e6 / capacity;
  cfg.fail_bank_at_us = cfg.duration_us / 2;
  cfg.workload.verify_every = 64;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_EQ(r.bank_failures, 1u);
  // The failure lands mid-saturation: the victim lane's in-flight work
  // retries and the remap is a repartition on top of the initial carve.
  EXPECT_GE(r.repartitions, 2u);
  EXPECT_GE(r.retried, 1u);
  EXPECT_EQ(r.queued, 0u);  // one failure is absorbed by spares: no starvation
  expect_work_conserved(r);
  // The sampled data-carrying requests all Freivalds-check.
  EXPECT_GT(r.verified, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(Serving, FailuresBeyondSparesShrinkTheChip) {
  // n = 32768 needs all 128 banks for its single superbank; on a chip
  // without spares, losing one bank makes the class unservable, so
  // post-failure arrivals bounce and stranded queue entries surface as
  // `queued` instead of hanging the drain loop.
  // The single 32k lane fills in ~480us, so the failure must land well
  // after the first completions.
  ServingConfig cfg = base_config(32768, 1500);
  const double capacity = class_capacity_per_s(cfg, 32768);
  cfg.arrival_rate_per_s = 2 * capacity;
  cfg.chip.spare_banks = 0;
  cfg.fail_bank_at_us = 1200;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_EQ(r.bank_failures, 1u);
  EXPECT_GT(r.rejected_unservable, 0u);
  EXPECT_GT(r.completed, 0u);  // pre-failure work still finished
  EXPECT_GT(r.queued, 0u);     // stranded backlog is surfaced, not lost
  expect_work_conserved(r);
}

// -- backend matrix -----------------------------------------------------------
// The scheduler is backend-invariant: which execution tier runs the
// verified requests must not change admission, scheduling, simulated
// cycle accounting or verified counts. Same-seed reports across
// functional backends differ only in the report's `backend` provenance
// field (and host wall-clock, which the report never contains).

class ServingBackends : public ::testing::TestWithParam<const char*> {
 protected:
  /// Degree 256 keeps the gate tier's crossbar verifies affordable
  /// inside a unit test (a few ms each).
  ServingConfig backend_config(double duration_us) {
    ServingConfig cfg = base_config(256, duration_us);
    cfg.backend = GetParam();
    cfg.arrival_rate_per_s = 30000;
    cfg.workload.verify_every = 4;
    return cfg;
  }
};

TEST_P(ServingBackends, DeterministicReportForFixedSeed) {
  const ServingConfig cfg = backend_config(300);
  const auto a = ServingRuntime(cfg).run();
  const auto b = ServingRuntime(cfg).run();
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.verified, 0u);
  EXPECT_EQ(a.verify_failures, 0u);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST_P(ServingBackends, ConservesWorkUnderBackpressure) {
  ServingConfig cfg = backend_config(0);
  const double capacity = class_capacity_per_s(cfg, 256);
  cfg.arrival_rate_per_s = 8 * capacity;
  cfg.duration_us = 100 * 1e6 / capacity;
  cfg.queue_capacity = 8;
  cfg.workload.verify_every = 16;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_GT(r.rejected, 0u);
  EXPECT_GT(r.completed, 0u);
  expect_work_conserved(r);
}

TEST_P(ServingBackends, BankFailureRecoveryStillVerifies) {
  ServingConfig cfg = backend_config(0);
  const double capacity = class_capacity_per_s(cfg, 256);
  cfg.arrival_rate_per_s = 1.5 * capacity;
  cfg.duration_us = 200 * 1e6 / capacity;
  cfg.fail_bank_at_us = cfg.duration_us / 2;
  cfg.workload.verify_every = 32;
  const auto r = ServingRuntime(cfg).run();
  EXPECT_EQ(r.bank_failures, 1u);
  expect_work_conserved(r);
  EXPECT_GT(r.verified, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(GateAndWord, ServingBackends,
                         ::testing::Values("gate", "word"));

TEST(ServingBackendEquivalence, SameSeedReportsDifferOnlyInBackendField) {
  // The pin behind the matrix: a gate-tier report and a word-tier report
  // of the same seeded run are byte-identical except for the `backend`
  // provenance string.
  ServingConfig cfg = base_config(256, 300);
  cfg.arrival_rate_per_s = 30000;
  cfg.workload.verify_every = 4;
  cfg.backend = "word";
  const auto word = ServingRuntime(cfg).run();
  cfg.backend = "gate";
  const auto gate = ServingRuntime(cfg).run();

  std::string gate_dump = gate.to_json().dump();
  const std::string from = "\"backend\":\"gate\"";
  const auto pos = gate_dump.find(from);
  ASSERT_NE(pos, std::string::npos);
  gate_dump.replace(pos, from.size(), "\"backend\":\"word\"");
  EXPECT_EQ(gate_dump, word.to_json().dump());
}

TEST(ServingBackendEquivalence, UnknownBackendIsRejected) {
  ServingConfig cfg = base_config(256, 10);
  cfg.backend = "quantum";
  EXPECT_THROW(ServingRuntime(cfg).run(), std::invalid_argument);
}

TEST(Serving, ReportJsonCarriesSchemaAndLatencyQuantiles) {
  ServingConfig cfg = base_config(256, 200);
  cfg.arrival_rate_per_s = 100000;
  const auto r = ServingRuntime(cfg).run();
  const auto j = r.to_json();
  EXPECT_EQ(j.at("schema").as_string(), "serving/3");
  EXPECT_EQ(j.at("policy").as_string(), "fifo");
  EXPECT_EQ(j.at("backend").as_string(), "word");  // the default tier
  const auto& lat = j.at("latency");
  EXPECT_GT(lat.at("p99_cycles").as_u64(), 0u);
  EXPECT_GE(lat.at("p99_cycles").as_u64(), lat.at("p50_cycles").as_u64());
  EXPECT_GT(r.latency_us(0.5), 0.0);
  // The windowed telemetry rides along in every report; SLO only when
  // objectives were configured (none here).
  EXPECT_TRUE(j.contains("series"));
  EXPECT_TRUE(j.contains("rolling"));
  EXPECT_EQ(j.at("series").at("schema").as_string(), "timeseries/1");
  EXPECT_FALSE(j.contains("slo"));
}

}  // namespace
}  // namespace cryptopim::runtime
