// Protocol-serving bench: DAG-shaped requests (KEM round-trip, BGV
// multiply with per-RNS-limb fan-out, K-party threshold decryption)
// driven through the dependency-aware serving runtime
// (src/runtime/protocol.*, serving.cc).
//
// Two sections, all on the word backend:
//
//   matrix - {kem, bgv-mul, threshold} x {fifo, wfq}: protocol-level
//            p50/p99 latency and completed-protocol throughput, with
//            every Nth request functionally joined against the
//            pure-host reference.
//   chaos  - kem under seeded lane chaos with the retry stack, run
//            twice from the same seed to pin determinism.
//
// Acceptance bar (exit non-zero on regression):
//   1. every cell completes protocols and drains conserved
//      (requests == completed + failed + rejected),
//   2. zero join mismatches and zero corrupt results accepted anywhere,
//   3. the two same-seed chaos runs emit byte-identical serving/3 JSON.
//
// Everything is seeded; bench_protocol_serving.json is bit-reproducible.
// CRYPTOPIM_BENCH_FAST=0 lengthens the horizon for steadier quantiles.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/cryptopim.h"
#include "obs/bench_report.h"
#include "runtime/protocol.h"
#include "runtime/serving.h"

namespace cp = cryptopim;

namespace {

bool fast_mode() {
  const char* v = std::getenv("CRYPTOPIM_BENCH_FAST");
  return v == nullptr || std::string(v) != "0";
}

cp::runtime::ServingConfig proto_config(cp::runtime::ProtocolKind kind,
                                        const std::string& policy,
                                        std::uint64_t seed,
                                        double duration_us) {
  cp::runtime::ServingConfig cfg;
  cfg.policy = policy;
  cfg.protocol.kind = kind;
  cfg.protocol.shares = 4;
  cfg.workload.mix = {{kind == cp::runtime::ProtocolKind::kKem
                           ? cp::runtime::kKemDegree
                           : cp::runtime::kBgvDegree,
                       1.0}};
  cfg.workload.tenants = 4;
  cfg.workload.seed = seed;
  cfg.workload.verify_every = 16;
  cfg.arrival_rate_per_s = 30000.0;
  cfg.duration_us = duration_us;
  return cfg;
}

std::string json_text(const cp::runtime::ServingReport& r) {
  std::ostringstream os;
  r.to_json().write(os);
  return os.str();
}

}  // namespace

int main() {
  const bool fast = fast_mode();
  const double horizon_us = fast ? 1500.0 : 8000.0;
  constexpr std::uint64_t kSeed = 2026;

  std::cout << "== Protocol serving: DAG-shaped KEM/BGV/threshold requests "
               "==\n(word backend, " << horizon_us
            << " us horizon, every 16th request functionally joined)\n\n";

  cp::obs::BenchReporter rep("protocol_serving");
  rep.set_param("seed", std::to_string(kSeed));
  rep.set_param("duration_us", cp::fmt_f(horizon_us, 0));
  rep.set_param("arrival_rate_per_s", "30000");
  rep.set_param("verify_every", "16");
  rep.set_param("shares", "4");

  bool ok = true;
  std::vector<std::string> violations;

  const auto check_cell = [&](const std::string& cell,
                              const cp::runtime::ServingReport& r) {
    const auto& p = r.protocol;
    if (p.requests != p.completed + p.failed + p.rejected) {
      ok = false;
      violations.push_back(cell + ": proto ledger not conserved (" +
                           cp::fmt_i(p.requests) + " != " +
                           cp::fmt_i(p.completed) + "+" + cp::fmt_i(p.failed) +
                           "+" + cp::fmt_i(p.rejected) + ")");
    }
    if (p.completed == 0) {
      ok = false;
      violations.push_back(cell + ": no protocols completed");
    }
    if (p.join_mismatches != 0) {
      ok = false;
      violations.push_back(cell + ": " + cp::fmt_i(p.join_mismatches) +
                           " join mismatch(es) vs the host reference");
    }
    if (r.resilience.wrong_accepted != 0) {
      ok = false;
      violations.push_back(cell + ": " +
                           cp::fmt_i(r.resilience.wrong_accepted) +
                           " corrupt result(s) accepted");
    }
  };

  // ---- matrix: protocol x policy -----------------------------------------
  const std::vector<std::pair<cp::runtime::ProtocolKind, std::string>> kinds =
      {{cp::runtime::ProtocolKind::kKem, "kem"},
       {cp::runtime::ProtocolKind::kBgvMul, "bgv-mul"},
       {cp::runtime::ProtocolKind::kThreshold, "threshold"}};
  cp::Table t({"protocol", "policy", "protos", "completed", "proto/s",
               "p50 us", "p99 us", "joins", "mismatch"});
  for (const auto& [kind, name] : kinds) {
    for (const std::string policy : {"fifo", "wfq"}) {
      const auto r = cp::runtime::ServingRuntime(
                         proto_config(kind, policy, kSeed, horizon_us))
                         .run();
      const auto& p = r.protocol;
      const double horizon_s = static_cast<double>(r.duration_cycles) /
                               r.cycles_per_us / 1e6;
      const double proto_per_s =
          horizon_s > 0 ? static_cast<double>(p.completed) / horizon_s : 0.0;
      const double p50_us = p.latency_cycles.quantile(0.5) / r.cycles_per_us;
      const double p99_us = p.latency_cycles.quantile(0.99) / r.cycles_per_us;
      check_cell(name + "/" + policy, r);
      t.add_row({name, policy, cp::fmt_i(p.requests), cp::fmt_i(p.completed),
                 cp::fmt_i(static_cast<std::uint64_t>(proto_per_s)),
                 cp::fmt_f(p50_us, 1), cp::fmt_f(p99_us, 1),
                 cp::fmt_i(p.joins), cp::fmt_i(p.join_mismatches)});
      const cp::obs::BenchReporter::Params bp = {{"protocol", name},
                                                 {"policy", policy}};
      rep.add("proto_throughput", proto_per_s, "proto/s", bp);
      rep.add("proto_latency_p50", p50_us, "us", bp);
      rep.add("proto_latency_p99", p99_us, "us", bp);
      rep.add("protos_completed", static_cast<double>(p.completed),
              "protocols", bp);
      rep.add("ops_completed", static_cast<double>(p.ops_completed), "ops",
              bp);
      rep.add("join_mismatches", static_cast<double>(p.join_mismatches),
              "results", bp);
    }
  }
  t.print(std::cout);

  // ---- chaos: lane fault episodes against whole-DAG teardown -------------
  std::cout << "\nchaos: kem under seeded lane chaos (slowdowns + corrupting\n"
               "windows) with retries, run twice from the same seed:\n";
  auto chaos_cfg = proto_config(cp::runtime::ProtocolKind::kKem, "wfq", kSeed,
                                horizon_us);
  chaos_cfg.resilience = cp::runtime::ResilienceConfig::chaos_preset(kSeed);
  chaos_cfg.resilience.max_retries = 2;
  const auto ca = cp::runtime::ServingRuntime(chaos_cfg).run();
  const auto cb = cp::runtime::ServingRuntime(chaos_cfg).run();
  check_cell("kem/chaos", ca);
  if (json_text(ca) != json_text(cb)) {
    ok = false;
    violations.push_back("same-seed chaos runs emitted different JSON");
  }

  const auto& cs = ca.protocol;
  cp::Table ct({"protos", "completed", "failed", "ops cancelled", "retried",
                "joins", "mismatch", "wrong"});
  ct.add_row({cp::fmt_i(cs.requests), cp::fmt_i(cs.completed),
              cp::fmt_i(cs.failed), cp::fmt_i(cs.ops_cancelled),
              cp::fmt_i(ca.retried), cp::fmt_i(cs.joins),
              cp::fmt_i(cs.join_mismatches),
              cp::fmt_i(ca.resilience.wrong_accepted)});
  ct.print(std::cout);

  const cp::obs::BenchReporter::Params cp_ = {{"cell", "chaos"}};
  rep.add("chaos_protos_completed", static_cast<double>(cs.completed),
          "protocols", cp_);
  rep.add("chaos_protos_failed", static_cast<double>(cs.failed), "protocols",
          cp_);
  rep.add("chaos_ops_cancelled", static_cast<double>(cs.ops_cancelled), "ops",
          cp_);
  rep.add("chaos_join_mismatches", static_cast<double>(cs.join_mismatches),
          "results", cp_);
  rep.add("chaos_wrong_accepted",
          static_cast<double>(ca.resilience.wrong_accepted), "results", cp_);

  if (!ok) {
    std::cout << "\nACCEPTANCE VIOLATIONS:\n";
    for (const auto& v : violations) std::cout << "  - " << v << "\n";
  }
  rep.write_default();
  return ok ? 0 : 1;
}
