// Backend-throughput bench: the same request mix executed on every
// runtime::ExecutionBackend tier.
//
// One pinned-seed request list (a mix of n = 256 and n = 1024 negacyclic
// multiplications) runs on the gate-level simulator and the word-level
// engine. For each tier we report host req/s (host_* metrics:
// wall-clock, excluded from the committed baselines) and the simulated
// per-op cycle accounting plus verified-equal counts (deterministic,
// baseline-gated via tools/bench_compare). The analytic model's per-op
// cycles (`analytic_accounting`) are reported beside them as
// backend=analytic.
//
// Acceptance gates — the bench exits non-zero if any fails:
//   1. every gate and word product equals the software oracle
//      (verified_equal == requests on both tiers),
//   2. the word tier's simulated cycles match the analytic model exactly
//      (switching tiers changes host speed, never the model numbers),
//   3. the word tier is >= 100x faster than the gate tier in wall-clock.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cryptopim.h"
#include "obs/bench_report.h"

namespace cp = cryptopim;

namespace {

struct Op {
  cp::ntt::NttParams params;
  cp::ntt::Poly a, b, expect;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  // The shared mix: weighted toward the Kyber-class degree like the
  // serving default, with a NewHope-class tail.
  const std::vector<std::pair<std::uint32_t, std::size_t>> mix = {
      {256, 16}, {1024, 8}};
  constexpr std::uint64_t kSeed = 20260809;

  cp::Xoshiro256 rng(kSeed);
  std::vector<Op> ops;
  for (const auto& [n, count] : mix) {
    const auto params = cp::ntt::NttParams::for_degree(n);
    const cp::ntt::GsNttEngine oracle(params);
    for (std::size_t i = 0; i < count; ++i) {
      Op op{params,
            cp::ntt::sample_uniform(n, params.q, rng),
            cp::ntt::sample_uniform(n, params.q, rng),
            {}};
      op.expect = oracle.negacyclic_multiply(op.a, op.b);
      ops.push_back(std::move(op));
    }
  }

  cp::obs::BenchReporter rep("backend_throughput");
  rep.set_param("seed", std::to_string(kSeed));
  rep.set_param("mix", "256:16,1024:8");

  struct TierResult {
    double ms = 0;
    double req_per_s = 0;
    std::uint64_t verified_equal = 0;
    std::map<std::uint32_t, std::uint64_t> cycles_by_degree;
  };
  std::map<std::string, TierResult> tiers;

  for (const auto& name : cp::runtime::backend_names()) {
    auto backend = cp::runtime::make_backend(name);
    // The word tier finishes the mix in well under a millisecond;
    // repeat it to get a stable wall-clock rate.
    const std::size_t rounds = name == "gate" ? 1 : 50;
    TierResult res;
    const double t0 = now_ms();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& op : ops) {
        const auto out = backend->execute(op.params, op.a, op.b);
        if (r == 0) {
          if (out.product == op.expect) res.verified_equal += 1;
          res.cycles_by_degree[op.params.n] = out.sim_cycles;
        }
      }
    }
    res.ms = now_ms() - t0;
    res.req_per_s =
        static_cast<double>(ops.size() * rounds) / (res.ms / 1e3);
    tiers[name] = res;

    // Deterministic metrics: baseline-gated.
    rep.add("verified_equal", static_cast<double>(res.verified_equal),
            "requests", {{"backend", name}});
    for (const auto& [n, cycles] : res.cycles_by_degree) {
      rep.add("sim_cycles_per_op", static_cast<double>(cycles), "cycles",
              {{"backend", name}, {"n", std::to_string(n)}});
    }
    // Host wall-clock: machine-dependent, never committed to baselines.
    rep.add("host_req_per_s", res.req_per_s, "req/s", {{"backend", name}});
    rep.add("host_wall_ms", res.ms, "ms", {{"backend", name}});

    std::cout << name << ": " << static_cast<std::uint64_t>(res.req_per_s)
              << " req/s host (" << res.ms << " ms for "
              << ops.size() * rounds << " ops), verified-equal "
              << res.verified_equal << "/" << ops.size() << "\n";
  }

  // The analytic model's cycles for the same degrees.
  std::map<std::uint32_t, std::uint64_t> analytic_cycles;
  for (const auto& degree : mix) {
    analytic_cycles[degree.first] =
        cp::runtime::analytic_accounting(degree.first).sim_cycles;
  }
  for (const auto& [n, cycles] : analytic_cycles) {
    rep.add("sim_cycles_per_op", static_cast<double>(cycles), "cycles",
            {{"backend", "analytic"}, {"n", std::to_string(n)}});
  }

  const double speedup =
      tiers.at("word").req_per_s / tiers.at("gate").req_per_s;
  rep.add("host_speedup_word_over_gate", speedup, "x");
  std::cout << "word-over-gate wall-clock speedup: "
            << static_cast<std::uint64_t>(speedup) << "x\n";
  rep.write_default();

  // Gate 1: bit-exactness of both tiers on the full mix.
  int failures = 0;
  for (const auto& name : {"gate", "word"}) {
    if (tiers.at(name).verified_equal != ops.size()) {
      std::cerr << "FAIL: " << name << " tier verified "
                << tiers.at(name).verified_equal << "/" << ops.size()
                << " products\n";
      ++failures;
    }
  }
  // Gate 2: the word tier's simulated accounting is the analytic model's.
  if (tiers.at("word").cycles_by_degree != analytic_cycles) {
    std::cerr << "FAIL: word-tier simulated cycles diverge from the "
                 "analytic model\n";
    ++failures;
  }
  // Gate 3: the >= 100x wall-clock unlock actually materialises.
  if (speedup < 100.0) {
    std::cerr << "FAIL: word tier only " << speedup
              << "x faster than gate (need >= 100x)\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
