// Protocol workload engine (src/runtime/protocol.*, protocol_ops.*, and
// the dependency-aware dispatch wired through src/runtime/serving.cc):
// DAG compilation shapes, whole-proto conservation (a protocol request
// completes iff all of its ops complete, and dies exactly once when one
// op dies), fan-out lane placement, determinism, and the functional
// harness that runs each flow through a backend against the pure-host
// references.
#include "runtime/protocol.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "runtime/backend.h"
#include "runtime/fleet.h"
#include "runtime/protocol_ops.h"
#include "runtime/serving.h"

namespace cryptopim::runtime {
namespace {

ServingConfig proto_config(ProtocolKind kind, std::uint64_t seed,
                           double duration_us = 800.0) {
  ServingConfig cfg;
  cfg.protocol.kind = kind;
  cfg.workload.mix = {
      {kind == ProtocolKind::kKem ? kKemDegree : kBgvDegree, 1.0}};
  cfg.workload.tenants = 4;
  cfg.workload.seed = seed;
  cfg.workload.verify_every = 0;
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = duration_us;
  return cfg;
}

std::string json_text(const ServingReport& r) {
  std::ostringstream os;
  r.to_json().write(os);
  return os.str();
}

/// Every op's parents are strictly earlier in the topological order.
void expect_topological(const ProtoDag& dag) {
  for (std::size_t i = 0; i < dag.ops.size(); ++i) {
    EXPECT_EQ(dag.ops[i].parent_mask >> i, 0u)
        << "op " << i << " depends on itself or a later op";
  }
}

/// A drained protocol run conserves protos: every submitted request is
/// rejected whole or reaches exactly one of completed/failed.
void expect_proto_conserved(const ServingReport& r) {
  const auto& p = r.protocol;
  EXPECT_NE(p.kind, "none");
  EXPECT_EQ(p.requests, p.completed + p.failed + p.rejected);
  // Main counters run at op granularity: admission is all-or-nothing.
  EXPECT_EQ(r.admitted, (p.requests - p.rejected) * p.ops_per_request);
  // A completed proto completed every one of its ops.
  EXPECT_GE(p.ops_completed, p.completed * p.ops_per_request);
  EXPECT_EQ(p.join_mismatches, 0u);
}

// --------------------------------------------------------- compilation --

TEST(CompileProtocol, KemShape) {
  ProtocolSpec spec;
  spec.kind = ProtocolKind::kKem;
  const ProtoDag dag = compile_protocol(spec);
  ASSERT_EQ(dag.ops.size(), 8u);
  EXPECT_EQ(dag.lane_degree, kKemDegree);
  expect_topological(dag);
  EXPECT_EQ(dag.ops[0].cls, OpClass::kSample);
  EXPECT_EQ(dag.ops[0].parent_mask, 0u);
  // Encaps multiplies fan out from the sample on distinct lanes.
  EXPECT_EQ(dag.ops[1].cls, OpClass::kPolymul);
  EXPECT_EQ(dag.ops[2].cls, OpClass::kPolymul);
  EXPECT_EQ(dag.ops[1].fanout_group, dag.ops[2].fanout_group);
  EXPECT_NE(dag.ops[1].fanout_group, 0u);
  EXPECT_EQ(dag.ops[1].degree, kKemDegree);
  // The decaps multiply joins both encaps products.
  EXPECT_EQ(dag.ops[3].parent_mask, (1u << 1) | (1u << 2));
  EXPECT_EQ(dag.ops.back().cls, OpClass::kAggregate);
  EXPECT_NE(dag.ops.back().parent_mask, 0u);
}

TEST(CompileProtocol, BgvShape) {
  ProtocolSpec spec;
  spec.kind = ProtocolKind::kBgvMul;
  const ProtoDag dag = compile_protocol(spec);
  ASSERT_EQ(dag.ops.size(), 2u + 4 * kRnsLimbs);
  EXPECT_EQ(dag.lane_degree, kBgvDegree);
  expect_topological(dag);
  EXPECT_EQ(dag.ops.front().cls, OpClass::kSample);
  EXPECT_EQ(dag.ops.back().cls, OpClass::kAggregate);
  // Four tensor multiplies, each fanned across the RNS limbs; the join
  // waits for every limb of every multiply.
  std::map<std::uint32_t, unsigned> group_sizes;
  std::uint64_t limb_mask = 0;
  for (std::size_t i = 0; i < dag.ops.size(); ++i) {
    if (dag.ops[i].cls != OpClass::kNttLimb) continue;
    ASSERT_NE(dag.ops[i].fanout_group, 0u);
    group_sizes[dag.ops[i].fanout_group] += 1;
    limb_mask |= std::uint64_t{1} << i;
    EXPECT_EQ(dag.ops[i].parent_mask, 1u) << "limb op " << i;
  }
  EXPECT_EQ(group_sizes.size(), 4u);
  for (const auto& [g, n] : group_sizes) EXPECT_EQ(n, kRnsLimbs);
  EXPECT_EQ(dag.ops.back().parent_mask, limb_mask);
}

TEST(CompileProtocol, ThresholdShapeTracksShares) {
  for (unsigned k : {kMinShares, 5u, kMaxShares}) {
    ProtocolSpec spec;
    spec.kind = ProtocolKind::kThreshold;
    spec.shares = k;
    const ProtoDag dag = compile_protocol(spec);
    ASSERT_EQ(dag.ops.size(), k + 2u);
    expect_topological(dag);
    for (unsigned i = 1; i <= k; ++i) {
      EXPECT_EQ(dag.ops[i].cls, OpClass::kPolymul);
      EXPECT_EQ(dag.ops[i].parent_mask, 1u);
      EXPECT_NE(dag.ops[i].fanout_group, 0u);
    }
    EXPECT_EQ(dag.ops.back().cls, OpClass::kAggregate);
  }
}

TEST(CompileProtocol, EveryKindStartsWithAParentlessHostOp) {
  // The runtime dispatches such an op at admission, so no admitted DAG
  // is ever wholly queued and a drained chip migrates none
  // (ServingRuntime::extract_pending). A shape that breaks this needs
  // whole-DAG migration back.
  for (const auto kind : {ProtocolKind::kKem, ProtocolKind::kBgvMul,
                          ProtocolKind::kThreshold}) {
    ProtocolSpec spec;
    spec.kind = kind;
    const ProtoDag dag = compile_protocol(spec);
    const ProtoOp& root = dag.ops.at(0);
    EXPECT_TRUE(root.cls == OpClass::kSample ||
                root.cls == OpClass::kAggregate)
        << protocol_name(kind);
    EXPECT_EQ(root.parent_mask, 0u) << protocol_name(kind);
  }
}

TEST(CompileProtocol, InvalidSpecsThrow) {
  ProtocolSpec spec;
  EXPECT_THROW(compile_protocol(spec), std::invalid_argument);  // kNone
  spec.kind = ProtocolKind::kThreshold;
  spec.shares = kMinShares - 1;
  EXPECT_THROW(compile_protocol(spec), std::invalid_argument);
  spec.shares = kMaxShares + 1;
  EXPECT_THROW(compile_protocol(spec), std::invalid_argument);
}

// ------------------------------------------------- serving conservation --

TEST(ProtocolServing, KemRunConservesProtosAndOps) {
  const auto r = ServingRuntime(proto_config(ProtocolKind::kKem, 7)).run();
  EXPECT_GT(r.protocol.requests, 0u);
  EXPECT_GT(r.protocol.completed, 0u);
  EXPECT_GT(r.protocol.host_ops, 0u);
  expect_proto_conserved(r);
  // A fully-drained healthy run completes every admitted proto.
  EXPECT_EQ(r.protocol.failed, 0u);
  EXPECT_EQ(r.protocol.ops_completed,
            r.protocol.completed * r.protocol.ops_per_request);
}

TEST(ProtocolServing, EveryProtoGetsExactlyOneTerminalOutcome) {
  for (const auto kind : {ProtocolKind::kKem, ProtocolKind::kBgvMul,
                          ProtocolKind::kThreshold}) {
    ServingRuntime rt(proto_config(kind, 11));
    std::map<std::uint64_t, unsigned> fates;
    rt.set_outcome_sink([&fates](const Request& req, Outcome, std::uint64_t) {
      fates[req.id] += 1;
    });
    const auto r = rt.run();
    expect_proto_conserved(r);
    EXPECT_EQ(fates.size(), r.protocol.requests);
    for (const auto& [id, n] : fates) {
      EXPECT_EQ(n, 1u) << "origin " << id << " got " << n << " outcomes";
    }
  }
}

TEST(ProtocolServing, MidDagBankFailureKeepsProtosWhole) {
  // A bank dies mid-run: in-flight ops on the torn-down lanes either
  // requeue (raw retry path) or take their whole proto down exactly
  // once. Either way the proto ledger stays conserved and no origin
  // reports two fates.
  ServingConfig cfg = proto_config(ProtocolKind::kKem, 13, 1200.0);
  cfg.fail_bank_at_us = 300.0;
  ServingRuntime rt(cfg);
  std::map<std::uint64_t, unsigned> fates;
  rt.set_outcome_sink([&fates](const Request& req, Outcome, std::uint64_t) {
    fates[req.id] += 1;
  });
  const auto r = rt.run();
  EXPECT_EQ(r.bank_failures, 1u);
  expect_proto_conserved(r);
  for (const auto& [id, n] : fates) EXPECT_EQ(n, 1u);
}

TEST(ProtocolServing, ChaosCancelsDeadProtosExactlyOnce) {
  // Chaos corrupting windows + zero retries force op deaths; the victim
  // proto must be cancelled whole (siblings swept) and counted once.
  ServingConfig threshold = proto_config(ProtocolKind::kThreshold, 23, 4000.0);
  threshold.protocol.shares = 4;
  threshold.workload.verify_every = 8;
  threshold.resilience = ResilienceConfig::chaos_preset(23);
  threshold.resilience.max_retries = 0;
  // The serving pin's kem_wear_teardown: deadlines and worn lanes kill
  // ops while hedged siblings run, and a hedged op is one op to cancel
  // however many dispatches it has in flight.
  ServingConfig kem = proto_config(ProtocolKind::kKem, 3, 1000.0);
  kem.arrival_rate_per_s = 600000.0;
  kem.workload.verify_every = 64;
  kem.resilience = ResilienceConfig::chaos_preset(3);
  kem.resilience.max_retries = 0;
  kem.resilience.wear_limit = 100;
  kem.resilience.deadline_us = 300.0;
  kem.resilience.breaker_k = 1;
  for (const ServingConfig& cfg : {threshold, kem}) {
    const std::string kind = protocol_name(cfg.protocol.kind);
    ServingRuntime rt(cfg);
    std::map<std::uint64_t, unsigned> fates;
    rt.set_outcome_sink([&fates](const Request& req, Outcome, std::uint64_t) {
      fates[req.id] += 1;
    });
    const auto r = rt.run();
    expect_proto_conserved(r);
    EXPECT_EQ(r.resilience.wrong_accepted, 0u) << kind;
    for (const auto& [id, n] : fates) EXPECT_EQ(n, 1u) << kind;
    // Op-level conservation: every admitted op completed, was swept as a
    // cancelled sibling, or was the one dying op that took its proto down
    // (exactly one per failed proto).
    EXPECT_GT(r.protocol.failed, 0u) << kind << " produced no failures";
    EXPECT_GT(r.protocol.ops_cancelled, 0u) << kind;
    EXPECT_EQ(r.protocol.ops_completed + r.protocol.ops_cancelled +
                  r.protocol.failed,
              (r.protocol.requests - r.protocol.rejected) *
                  r.protocol.ops_per_request)
        << kind;
  }
}

// ------------------------------------------------------ lane placement --

TEST(ProtocolServing, BgvLimbFanOutLandsOnDistinctLanes) {
  ServingConfig cfg = proto_config(ProtocolKind::kBgvMul, 5);
  ServingRuntime rt(cfg);
  obs::EventLog elog;
  elog.open_stream(::testing::TempDir() + "/proto_bgv_fan_out.jsonl",
                   /*line_buffered=*/false);
  rt.set_event_log(&elog);
  const auto r = rt.run();
  expect_proto_conserved(r);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::set<std::uint64_t>>
      group_lanes;
  std::map<std::pair<std::uint64_t, std::uint64_t>, unsigned> group_ops;
  for (const obs::Json& rec : elog.records()) {
    if (!rec.contains("ev") || rec.at("ev").as_string() != "dispatched") {
      continue;
    }
    if (!rec.contains("group") || rec.contains("host")) continue;
    const auto key = std::make_pair(rec.at("trace").as_u64(),
                                    rec.at("group").as_u64());
    group_lanes[key].insert(rec.at("lane").as_u64());
    group_ops[key] += 1;
  }
  ASSERT_GT(group_lanes.size(), 0u);
  for (const auto& [key, lanes] : group_lanes) {
    // Strict sibling exclusion: every limb of a fan-out group runs on
    // its own lane (no retries/hedges in this config to re-land one).
    EXPECT_EQ(lanes.size(), group_ops.at(key))
        << "request " << key.first << " group " << key.second;
    EXPECT_GE(lanes.size(), 2u);
  }
}

// ------------------------------------------------------------- series --

TEST(ProtocolServing, SeriesCountsEveryOpOfARefusedRequest) {
  // A queue too small for the offered load refuses whole KEM requests.
  // The series counts ops, like the report's totals, so each refusal
  // counts its request's ops.
  ServingConfig cfg = proto_config(ProtocolKind::kKem, 7, 1500.0);
  cfg.arrival_rate_per_s = 300000.0;
  cfg.queue_capacity = 64;
  const auto r = ServingRuntime(cfg).run();
  ASSERT_GT(r.protocol.rejected, 0u);
  const std::uint64_t refused = r.series.total(obs::SeriesCounter::kRejected);
  EXPECT_EQ(refused, r.protocol.rejected * r.protocol.ops_per_request);
  EXPECT_EQ(refused, r.rejected + r.rejected_unservable +
                         r.resilience.rejected_deadline);
}

// ------------------------------------------------------------ event log --

/// The chaos run of `kind` whose event log the tests below read: it
/// retries, hedges, sheds and tears DAGs down.
ServingConfig chaos_proto_config(ProtocolKind kind) {
  ServingConfig cfg = proto_config(kind, 7, 1500.0);
  cfg.arrival_rate_per_s = 100000.0;
  cfg.resilience = ResilienceConfig::chaos_preset(7);
  return cfg;
}

TEST(ProtocolServing, DispatchedOpsMatchTheirTraceIdAndTheCompiledDag) {
  // An op's records carry its request's id as trace and its index in the
  // DAG as op; its class and fan-out group are its DAG node's, which the
  // dispatched record repeats.
  for (const auto kind : {ProtocolKind::kKem, ProtocolKind::kBgvMul,
                          ProtocolKind::kThreshold}) {
    const ServingConfig cfg = chaos_proto_config(kind);
    const ProtoDag dag = compile_protocol(cfg.protocol);
    obs::EventLog elog;
    elog.open_stream(::testing::TempDir() + "/proto_dispatched_ops.jsonl",
                     /*line_buffered=*/false);
    ServingRuntime rt(cfg);
    rt.set_event_log(&elog);
    rt.run();
    std::set<std::uint64_t> admitted;
    std::uint64_t ops = 0;
    std::uint64_t retried = 0;
    for (const obs::Json& rec : elog.records()) {
      const std::string ev = rec.at("ev").as_string();
      if (ev == "admitted") admitted.insert(rec.at("trace").as_u64());
      if (ev != "dispatched") continue;
      EXPECT_TRUE(admitted.contains(rec.at("trace").as_u64()));
      EXPECT_FALSE(rec.contains("proto"));
      const std::uint64_t op = rec.at("op").as_u64();
      ASSERT_LT(op, dag.ops.size());
      const ProtoOp& node = dag.ops[op];
      EXPECT_EQ(rec.at("cls").as_string(), op_class_name(node.cls));
      EXPECT_EQ(rec.contains("group") ? rec.at("group").as_u64() : 0u,
                node.fanout_group);
      ops += 1;
      retried += rec.contains("attempt");
    }
    EXPECT_GT(ops, 0u) << protocol_name(kind);
    EXPECT_GT(retried, 0u) << protocol_name(kind);
  }
}

TEST(ProtocolServing, NoOpDispatchesBeforeItsParentsComplete) {
  // Dependency order: every dispatched record of an op, retries
  // included, follows a completed record of each of its parents.
  for (const auto kind : {ProtocolKind::kKem, ProtocolKind::kBgvMul,
                          ProtocolKind::kThreshold}) {
    const ServingConfig cfg = chaos_proto_config(kind);
    const ProtoDag dag = compile_protocol(cfg.protocol);
    obs::EventLog elog;
    elog.open_stream(::testing::TempDir() + "/proto_dependency_order.jsonl",
                     /*line_buffered=*/false);
    ServingRuntime rt(cfg);
    rt.set_event_log(&elog);
    rt.run();
    std::map<std::uint64_t, std::uint64_t> done;  // request -> ops completed
    std::uint64_t children = 0;
    for (const obs::Json& rec : elog.records()) {
      const std::string ev = rec.at("ev").as_string();
      if (ev != "completed" && ev != "dispatched") continue;
      const std::uint64_t trace = rec.at("trace").as_u64();
      const std::uint64_t op = rec.at("op").as_u64();
      ASSERT_LT(op, dag.ops.size());
      std::uint64_t& mask = done[trace];
      if (ev == "completed") {
        mask |= std::uint64_t{1} << op;
        continue;
      }
      const std::uint64_t parents = dag.ops[op].parent_mask;
      EXPECT_EQ(mask & parents, parents)
          << protocol_name(kind) << " request " << trace << " op " << op;
      children += parents != 0;
    }
    EXPECT_GT(children, 0u) << protocol_name(kind);
  }
}

/// Groups an event log by (chip, trace). Every record of a protocol
/// request carries the request's id as its trace, so each group holds
/// one request's records on one chip: they share its tenant, each op
/// record follows the request's admission there and names one of its
/// ops, and a request that joined completed every op in its own group.
/// Returns the joins seen.
std::uint64_t expect_grouped_by_request(const std::vector<obs::Json>& log) {
  struct Group {
    std::uint64_t tenant = 0;
    std::uint64_t ops = 0;
    std::set<std::uint64_t> completed;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Group> groups;
  std::uint64_t joins = 0;
  for (const obs::Json& rec : log) {
    if (!rec.contains("trace")) continue;  // a control record
    EXPECT_FALSE(rec.contains("proto"));
    const std::string ev = rec.at("ev").as_string();
    const auto key =
        std::make_pair(rec.at("chip").as_u64(), rec.at("trace").as_u64());
    if (ev == "admitted") {
      groups[key] = {rec.at("tenant").as_u64(), rec.at("ops").as_u64(), {}};
      continue;
    }
    const auto it = groups.find(key);
    if (it == groups.end()) {
      // Only a refusal or a fleet record may precede an admission.
      EXPECT_FALSE(rec.contains("op"))
          << ev << " of request " << key.second << " on chip " << key.first
          << " before its admission";
      continue;
    }
    Group& g = it->second;
    EXPECT_EQ(rec.at("tenant").as_u64(), g.tenant)
        << ev << " of request " << key.second;
    if (rec.contains("op")) {
      EXPECT_LT(rec.at("op").as_u64(), g.ops) << ev;
      if (ev == "completed") g.completed.insert(rec.at("op").as_u64());
    }
    if (ev == "join") {
      EXPECT_EQ(g.completed.size(), g.ops) << "request " << key.second;
      joins += 1;
    }
  }
  return joins;
}

TEST(ProtocolServing, EventLogGroupsEachRequestUnderItsTrace) {
  for (const auto kind : {ProtocolKind::kKem, ProtocolKind::kBgvMul,
                          ProtocolKind::kThreshold}) {
    obs::EventLog elog;
    elog.open_stream(::testing::TempDir() + "/proto_grouped.jsonl",
                     /*line_buffered=*/false);
    ServingRuntime rt(chaos_proto_config(kind));
    rt.set_event_log(&elog);
    // Each request's fate is written once, under its own trace.
    std::map<std::uint64_t, unsigned> fates;
    rt.set_outcome_sink([&fates](const Request& req, Outcome, std::uint64_t) {
      fates[req.id] += 1;
    });
    const auto r = rt.run();
    EXPECT_EQ(expect_grouped_by_request(elog.records()), r.protocol.completed)
        << protocol_name(kind);
    std::map<std::uint64_t, unsigned> terminal;
    for (const obs::Json& rec : elog.records()) {
      const std::string ev = rec.at("ev").as_string();
      if (ev == "join" || ev == "proto_failed" || ev == "rejected") {
        terminal[rec.at("trace").as_u64()] += 1;
      }
    }
    EXPECT_EQ(terminal, fates) << protocol_name(kind);
  }
  // A 3-chip KEM fleet whose killed chip's requests join elsewhere.
  FleetConfig fc;
  fc.chips = 3;
  fc.replicas = 2;
  fc.chip = proto_config(ProtocolKind::kKem, 17, 1500.0);
  fc.kill_chip_at_us = 500.0;
  fc.kill_chip = 1;
  FleetRuntime fleet(std::move(fc));
  obs::EventLog elog;
  elog.open_stream(::testing::TempDir() + "/proto_fleet_grouped.jsonl",
                   /*line_buffered=*/false);
  fleet.set_event_log(&elog);
  const auto rep = fleet.run();
  ASSERT_EQ(rep.crashes, 1u);
  std::uint64_t joined = 0;
  for (const auto& c : rep.chip_reports) joined += c.protocol.completed;
  EXPECT_EQ(expect_grouped_by_request(elog.records()), joined);
}

// ------------------------------------------------ drain and crash paths --

/// A fleet-driven KEM chip holding `n` requests with fleet-chosen ids,
/// arrival cycles and data seeds, handled until some have finished while
/// others have ops both queued and in flight. Fates land in `fates`.
std::vector<Request> load_kem_chip(ServingRuntime& chip, Clock& clock,
                                   std::map<std::uint64_t, unsigned>& fates) {
  chip.set_outcome_sink([&fates](const Request& req, Outcome, std::uint64_t) {
    fates[req.id] += 1;
  });
  chip.prime();
  std::vector<Request> sent;
  for (std::uint32_t i = 0; i < 24; ++i) {
    Request r;
    r.id = 1000 + 7 * i;
    r.tenant = i % 4;
    r.degree = kKemDegree;
    r.arrival_cycle = 1500 * i;
    r.data_seed = 0x5eed00 + i;
    chip.inject(r, r.arrival_cycle);
    sent.push_back(r);
  }
  while (chip.has_events() &&
         (fates.empty() || chip.pending_count() == 0 ||
          chip.in_flight_count() == 0)) {
    chip.handle(clock.events.pop());
  }
  return sent;
}

TEST(ProtocolServing, CrashReturnsEachLiveRequestsOriginOnce) {
  Clock clock;
  ServingRuntime chip(proto_config(ProtocolKind::kKem, 21), clock);
  std::map<std::uint64_t, unsigned> fates;
  const std::vector<Request> sent = load_kem_chip(chip, clock, fates);
  ASSERT_FALSE(fates.empty());
  ASSERT_GT(chip.pending_count(), 0u);
  ASSERT_GT(chip.in_flight_count(), 0u);
  const std::vector<Request> lost = chip.crash_chip();
  std::map<std::uint64_t, Request> returned;
  for (const Request& r : lost) {
    EXPECT_TRUE(returned.emplace(r.id, r).second) << "request " << r.id;
  }
  // Exactly the unfinished requests come back, each as it arrived.
  EXPECT_EQ(returned.size() + fates.size(), sent.size());
  for (const Request& s : sent) {
    const auto it = returned.find(s.id);
    if (fates.contains(s.id)) {
      EXPECT_EQ(it, returned.end()) << "finished request " << s.id;
      continue;
    }
    ASSERT_NE(it, returned.end()) << "live request " << s.id;
    EXPECT_EQ(it->second.arrival_cycle, s.arrival_cycle);
    EXPECT_EQ(it->second.data_seed, s.data_seed);
    EXPECT_EQ(it->second.tenant, s.tenant);
  }
  EXPECT_EQ(chip.pending_count(), 0u);
  EXPECT_EQ(chip.in_flight_count(), 0u);
}

TEST(ProtocolServing, DrainKeepsEveryDagOnItsChip) {
  Clock clock;
  ServingRuntime chip(proto_config(ProtocolKind::kKem, 21), clock);
  std::map<std::uint64_t, unsigned> fates;
  const std::vector<Request> sent = load_kem_chip(chip, clock, fates);
  const std::size_t queued = chip.pending_count();
  ASSERT_GT(queued, 0u);
  EXPECT_TRUE(chip.extract_pending().empty());
  EXPECT_EQ(chip.pending_count(), queued);
  while (chip.has_events()) chip.handle(clock.events.pop());
  const ServingReport r = chip.seal();
  EXPECT_EQ(r.migrated, 0u);
  EXPECT_EQ(r.protocol.completed, sent.size());
  ASSERT_EQ(fates.size(), sent.size());
  for (const auto& [id, n] : fates) EXPECT_EQ(n, 1u) << "request " << id;
}

// ---------------------------------------------------------- determinism --

TEST(ProtocolServing, SameSeedIsByteIdentical) {
  const auto a = ServingRuntime(proto_config(ProtocolKind::kKem, 9)).run();
  const auto b = ServingRuntime(proto_config(ProtocolKind::kKem, 9)).run();
  EXPECT_EQ(json_text(a), json_text(b));
}

TEST(ProtocolServing, RawReportProtocolBlockIsKindNone) {
  ServingConfig cfg;
  cfg.duration_us = 200.0;
  const auto raw = ServingRuntime(cfg).run();
  // One report shape: a raw run carries the protocol block too, as kind
  // "none" with every counter at zero.
  const obs::Json p = raw.to_json().at("protocol");
  EXPECT_EQ(p.at("kind").as_string(), "none");
  for (const char* f :
       {"shares", "ops_per_request", "requests", "completed", "failed",
        "rejected", "ops_completed", "ops_cancelled", "host_ops", "joins",
        "join_mismatches"}) {
    EXPECT_EQ(p.at(f).as_u64(), 0u) << f;
  }
  EXPECT_EQ(p.at("latency").at("count").as_u64(), 0u);
  EXPECT_EQ(p.at("op_classes").size(), 0u);
  const auto proto =
      ServingRuntime(proto_config(ProtocolKind::kKem, 3, 300.0)).run();
  EXPECT_EQ(proto.to_json().at("protocol").at("kind").as_string(), "kem");
}

// ------------------------------------------------------- fleet teardown --

TEST(ProtocolServing, FleetChipKillKeepsTerminalRecordsUnique) {
  FleetConfig fc;
  fc.chips = 3;
  fc.replicas = 2;
  fc.chip = proto_config(ProtocolKind::kKem, 17, 1500.0);
  fc.chip.workload.verify_every = 32;
  fc.kill_chip_at_us = 500.0;
  fc.kill_chip = 1;
  FleetRuntime fleet(std::move(fc));
  obs::EventLog elog;
  elog.open_stream(::testing::TempDir() + "/proto_fleet_chip_kill.jsonl",
                   /*line_buffered=*/false);
  fleet.set_event_log(&elog);
  const auto rep = fleet.run();
  EXPECT_EQ(rep.crashes, 1u);
  // Fleet-level conservation still holds with DAG-shaped requests.
  EXPECT_EQ(rep.submitted, rep.completed + rep.rejected + rep.shed +
                               rep.timed_out + rep.failed + rep.queued);
  // Per (chip, request): at most one terminal record — a request either
  // joins once or fails once on each chip that admitted it.
  std::map<std::pair<std::uint64_t, std::uint64_t>, unsigned> terminal;
  std::uint64_t joins = 0;
  for (const obs::Json& rec : elog.records()) {
    if (!rec.contains("ev")) continue;
    const std::string ev = rec.at("ev").as_string();
    if (ev != "join" && ev != "proto_failed") continue;
    if (ev == "join") {
      joins += 1;
      EXPECT_TRUE(rec.at("ok").as_bool());
    }
    terminal[{rec.at("chip").as_u64(), rec.at("trace").as_u64()}] += 1;
  }
  EXPECT_GT(joins, 0u);
  for (const auto& [key, n] : terminal) {
    EXPECT_EQ(n, 1u) << "chip " << key.first << " request " << key.second;
  }
  std::uint64_t mismatches = 0;
  for (const auto& c : rep.chip_reports) {
    mismatches += c.protocol.join_mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

// --------------------------------------------------- functional harness --

TEST(ProtocolHarnessTest, AllKindsVerifyThroughWordBackend) {
  const auto backend = make_backend("word");
  ASSERT_TRUE(backend);
  for (const auto kind : {ProtocolKind::kKem, ProtocolKind::kBgvMul,
                          ProtocolKind::kThreshold}) {
    ProtocolSpec spec;
    spec.kind = kind;
    spec.shares = 3;
    ProtocolHarness harness(spec, backend.get());
    for (std::uint64_t seed : {1ull, 42ull, 20206ull}) {
      EXPECT_TRUE(harness.verify(seed))
          << protocol_name(kind) << " seed " << seed;
    }
  }
}

TEST(ProtocolHarnessTest, RejectsNullBackend) {
  ProtocolSpec spec;
  spec.kind = ProtocolKind::kKem;
  EXPECT_THROW(ProtocolHarness(spec, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace cryptopim::runtime
