// The serving runtime's single request path (src/runtime/serving.cc): a
// raw polymul is served as a one-op DAG, a protocol request as a DAG of
// several ops, and both share admission, launch, completion and
// settlement. Every terminal path is driven for every request shape:
// each origin request gets exactly one outcome, and the outcome tallies
// match the report — the main counters at op granularity, the protocol
// block at DAG granularity. Also pins two admission fixes: protocol DAGs
// get the deadline-feasibility check, and lane geometry comes from the
// runtime's own chip rather than from what earlier runtimes primed.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/scheduler.h"
#include "runtime/protocol.h"
#include "runtime/serving.h"

namespace cryptopim::runtime {
namespace {

enum class Shape { kRaw, kKem, kBgvMul, kThreshold };
enum class Path {
  kQueueFull,       ///< admission queue overflows
  kUnservable,      ///< the class's superbank no longer fits the chip
  kShed,            ///< CoDel drops at dequeue
  kTimeout,         ///< queued past the deadline
  kStorm,           ///< corrupt_window: every result in it fails
  kTeardown,        ///< bank failure, no retries: victims requeue
  kTeardownFailed,  ///< bank failure, retry infeasible: victims fail
};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kRaw: return "raw";
    case Shape::kKem: return "kem";
    case Shape::kBgvMul: return "bgv_mul";
    case Shape::kThreshold: return "threshold";
  }
  return "?";
}

const char* path_name(Path p) {
  switch (p) {
    case Path::kQueueFull: return "queue_full";
    case Path::kUnservable: return "unservable";
    case Path::kShed: return "shed";
    case Path::kTimeout: return "timeout";
    case Path::kStorm: return "storm";
    case Path::kTeardown: return "teardown";
    case Path::kTeardownFailed: return "teardown_failed";
  }
  return "?";
}

ServingConfig shape_config(Shape s) {
  ServingConfig cfg;
  cfg.workload.tenants = 4;
  cfg.workload.seed = 7;
  cfg.workload.verify_every = 0;
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = 800.0;
  std::uint32_t degree = kBgvDegree;
  switch (s) {
    case Shape::kRaw: degree = 1024; break;
    case Shape::kKem:
      cfg.protocol.kind = ProtocolKind::kKem;
      degree = kKemDegree;
      break;
    case Shape::kBgvMul: cfg.protocol.kind = ProtocolKind::kBgvMul; break;
    case Shape::kThreshold: cfg.protocol.kind = ProtocolKind::kThreshold; break;
  }
  cfg.workload.mix = {{degree, 1.0}};
  return cfg;
}

ServingConfig path_config(Shape s, Path p) {
  ServingConfig cfg = shape_config(s);
  auto& res = cfg.resilience;
  const std::uint32_t degree = cfg.workload.mix.front().degree;
  // Offered requests per second at `factor` times what the class's lanes
  // serve; a DAG needs all of its lane ops served.
  const auto overload = [&cfg, degree](double factor) {
    double lane_ops = 1;
    if (cfg.protocol.enabled()) {
      lane_ops = 0;
      for (const ProtoOp& op : compile_protocol(cfg.protocol).ops) {
        lane_ops += op.cls == OpClass::kPolymul || op.cls == OpClass::kNttLimb;
      }
    }
    cfg.arrival_rate_per_s =
        factor * model::class_capacity_per_s(cfg.chip, degree, 0, cfg.cycle_ns) /
        lane_ops;
  };
  switch (p) {
    case Path::kQueueFull:
      overload(4.0);
      cfg.duration_us = 100.0;
      cfg.queue_capacity = 32;  // room for at least two of any DAG
      break;
    case Path::kUnservable:
      // A one-lane chip without spares loses a bank before the first
      // arrival: the class's superbank no longer fits.
      cfg.chip.total_banks =
          cfg.chip.plan_for_degree(degree).banks_per_superbank;
      cfg.chip.spare_banks = 0;
      cfg.fail_bank_at_us = 0.001;
      break;
    case Path::kShed:
      // A small chip behind a short queue: the queue stands long enough
      // for CoDel, while its host cost stays small (every dispatch pass
      // rescans the queue, once per fan-out op boxed out).
      cfg.chip.total_banks = 16;
      overload(2.0);
      cfg.duration_us = 300.0;
      cfg.queue_capacity = 128;
      res.codel_target_us = 5.0;
      res.codel_interval_us = 20.0;
      break;
    case Path::kTimeout:
      // Admission counts every lane as live, but a lane that wear sets
      // draining takes no new work until its in-flight ops finish and it
      // remaps: what queued behind it waits past the deadline.
      if (s == Shape::kRaw || s == Shape::kThreshold) {
        cfg.chip.total_banks = 16;
      }
      overload(1.5);
      cfg.queue_capacity = 64;
      res.wear_limit = s == Shape::kBgvMul ? 20 : 10;
      res.deadline_us = 100.0;
      break;
    case Path::kStorm: break;  // the window opens after prime()
    case Path::kTeardown:
      cfg.arrival_rate_per_s = 200000.0;
      cfg.duration_us = 600.0;
      cfg.fail_bank_at_us = 300.0;
      break;
    case Path::kTeardownFailed:
      cfg.arrival_rate_per_s = 200000.0;
      cfg.duration_us = 600.0;
      cfg.fail_bank_at_us = 300.0;
      // A retry is allowed, but the deadline leaves no room for one.
      res.max_retries = 1;
      res.deadline_us =
          s == Shape::kRaw || s == Shape::kKem ? 100.0 : 80.0;
      break;
  }
  return cfg;
}

struct Case {
  Shape shape;
  Path path;
};

class TerminalPaths : public ::testing::TestWithParam<Case> {};

TEST_P(TerminalPaths, EveryOriginGetsOneOutcomeMatchingTheReport) {
  const auto [shape, path] = GetParam();
  ServingRuntime rt(path_config(shape, path));
  std::map<std::uint64_t, std::vector<Outcome>> fates;
  rt.set_outcome_sink([&fates](const Request& q, Outcome o, std::uint64_t) {
    fates[q.id].push_back(o);
  });
  rt.prime();
  if (path == Path::kStorm) {
    rt.corrupt_window(static_cast<std::uint64_t>(
        rt.config().duration_us * rt.config().cycles_per_us() / 2));
  }
  while (rt.has_events()) rt.step();
  const ServingReport r = rt.seal();

  const bool dag = shape != Shape::kRaw;
  const std::uint64_t n_ops = dag ? r.protocol.ops_per_request : 1;
  const std::uint64_t requests = dag ? r.protocol.requests : r.submitted;
  ASSERT_GT(requests, 0u);
  // Nothing is stranded, so every origin reaches a fate.
  EXPECT_EQ(r.queued, 0u);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(fates.size(), requests);
  std::map<Outcome, std::uint64_t> tally;
  for (const auto& [id, outcomes] : fates) {
    EXPECT_EQ(outcomes.size(), 1u) << "origin " << id;
    tally[outcomes.front()] += 1;
  }

  // Op-granular main counters: a rejected DAG counts all its ops, a
  // failed one only the op that died.
  EXPECT_EQ(tally[Outcome::kRejected] * n_ops,
            r.rejected + r.rejected_unservable + r.resilience.rejected_deadline);
  EXPECT_EQ(tally[Outcome::kShed], r.resilience.shed);
  EXPECT_EQ(tally[Outcome::kTimedOut], r.resilience.timed_out);
  EXPECT_EQ(tally[Outcome::kFailed], r.resilience.failed + r.chip_failed);
  EXPECT_EQ(r.submitted, r.admitted + r.rejected + r.rejected_unservable +
                             r.resilience.rejected_deadline);
  EXPECT_EQ(r.admitted, r.completed + r.resilience.shed +
                            r.resilience.timed_out + r.resilience.failed +
                            r.chip_failed + r.protocol.ops_cancelled);
  if (dag) {
    // DAG-granular protocol block.
    EXPECT_EQ(tally[Outcome::kCompleted], r.protocol.completed);
    EXPECT_EQ(tally[Outcome::kRejected], r.protocol.rejected);
    EXPECT_EQ(tally[Outcome::kShed] + tally[Outcome::kTimedOut] +
                  tally[Outcome::kFailed],
              r.protocol.failed);
    EXPECT_EQ(r.protocol.requests, r.protocol.completed + r.protocol.failed +
                                       r.protocol.rejected);
  } else {
    EXPECT_EQ(tally[Outcome::kCompleted], r.completed);
  }

  // The case drove the path it names.
  switch (path) {
    case Path::kQueueFull: EXPECT_GT(r.rejected, 0u); break;
    case Path::kUnservable:
      EXPECT_EQ(r.rejected_unservable, r.submitted);
      break;
    case Path::kShed: EXPECT_GT(r.resilience.shed, 0u); break;
    case Path::kTimeout: EXPECT_GT(r.resilience.timed_out, 0u); break;
    case Path::kStorm: EXPECT_GT(r.chip_failed, 0u); break;
    case Path::kTeardown:
      EXPECT_GT(r.retried, 0u);
      EXPECT_EQ(tally[Outcome::kCompleted], requests);
      break;
    case Path::kTeardownFailed: EXPECT_GT(r.resilience.failed, 0u); break;
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Shape s :
       {Shape::kRaw, Shape::kKem, Shape::kBgvMul, Shape::kThreshold}) {
    for (const Path p : {Path::kQueueFull, Path::kUnservable, Path::kShed,
                         Path::kTimeout, Path::kStorm, Path::kTeardown,
                         Path::kTeardownFailed}) {
      cases.push_back({s, p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, TerminalPaths, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(shape_name(info.param.shape)) + "_" +
             path_name(info.param.path);
    });

// ------------------------------------------------------------- admission --

TEST(SingleRequestPath, InfeasibleDeadlineRejectsWholeDags) {
  // Raw requests of this run are all rejected as deadline-infeasible (a
  // 5 us deadline is far below one n=1024 service). A KEM DAG at the
  // same degree must be rejected whole at admission too, instead of
  // being admitted and timing out op by op.
  ServingConfig cfg = shape_config(Shape::kKem);
  cfg.duration_us = 300.0;
  cfg.resilience.deadline_us = 5.0;
  ServingRuntime rt(cfg);
  std::map<std::uint64_t, std::vector<Outcome>> fates;
  rt.set_outcome_sink([&fates](const Request& q, Outcome o, std::uint64_t) {
    fates[q.id].push_back(o);
  });
  const ServingReport r = rt.run();
  ASSERT_GT(r.protocol.requests, 0u);
  EXPECT_EQ(r.protocol.rejected, r.protocol.requests);
  EXPECT_EQ(r.resilience.rejected_deadline, r.submitted);
  EXPECT_EQ(r.admitted, 0u);
  EXPECT_EQ(r.resilience.timed_out, 0u);
  EXPECT_EQ(r.protocol.ops_cancelled, 0u);
  EXPECT_EQ(fates.size(), r.protocol.requests);
  for (const auto& [id, outcomes] : fates) {
    ASSERT_EQ(outcomes.size(), 1u) << "origin " << id;
    EXPECT_EQ(outcomes.front(), Outcome::kRejected) << "origin " << id;
  }
}

TEST(SingleRequestPath, LaneGeometryIsTheRuntimesOwnChip) {
  // No 128-bank superbank (n=32768) fits a 64-bank chip. Priming a
  // paper chip with that degree first on the same thread must not make
  // the small chip look servable.
  ServingConfig paper;
  paper.workload.mix = {{32768, 1.0}};
  ServingRuntime(paper).prime();
  ServingConfig small = paper;
  small.chip.total_banks = 64;
  EXPECT_THROW(ServingRuntime(small).prime(), std::runtime_error);
}

}  // namespace
}  // namespace cryptopim::runtime
