// Chaos-serving bench: the resilience layer under injected faults.
//
// For each degree mix we run three cells with identical workloads:
//   baseline   - resilience on (deadlines/retries/hedging/breakers) but
//                no chaos; establishes the fault-free p99 reference.
//   chaos      - seeded chaos episodes (lane slowdowns + corrupting
//                windows) against the full resilience stack.
//   chaos-raw  - the same chaos with detection disabled, to show what
//                the layered checks are buying (wrong results delivered).
//
// The chaos cell is held to the repo's resilience acceptance bar and the
// bench exits non-zero if it regresses:
//   1. zero corrupt results accepted (wrong_accepted == 0),
//   2. >= 99% of non-rejected requests complete,
//   3. p99 latency <= 5x the fault-free baseline p99.
//
// Everything is seeded; bench_chaos_serving.json is bit-reproducible.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/cryptopim.h"
#include "obs/bench_report.h"

namespace cp = cryptopim;

namespace {

struct Cell {
  std::string mix_label;
  std::string mode;
  cp::runtime::ServingReport report;
};

cp::runtime::ServingConfig base_config(
    const std::vector<cp::runtime::DegreeShare>& mix, std::uint64_t seed) {
  cp::runtime::ServingConfig cfg;
  cfg.workload.mix = mix;
  cfg.workload.tenants = 4;
  cfg.workload.seed = seed;
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = 20000.0;
  cfg.queue_capacity = 4096;
  return cfg;
}

}  // namespace

int main() {
  std::cout << "== Chaos serving: resilience layer under injected faults ==\n"
            << "(seeded lane slowdowns + corrupting windows; baseline is the\n"
            << "same workload with resilience on and chaos off)\n\n";

  constexpr std::uint64_t kSeed = 2026;
  const std::vector<
      std::pair<std::string, std::vector<cp::runtime::DegreeShare>>>
      mixes = {{"256", {{256, 1.0}}},
               {"1024", {{1024, 1.0}}},
               {"mixed", {{256, 2.0}, {1024, 1.0}, {4096, 0.5}}}};

  cp::obs::BenchReporter rep("chaos_serving");
  rep.set_param("seed", std::to_string(kSeed));
  rep.set_param("tenants", "4");
  rep.set_param("arrival_rate_per_s", "20000");
  rep.set_param("duration_us", "20000");

  cp::Table t({"mix", "mode", "completed", "rejected", "retries", "hedge win",
               "brk open", "corrupt", "wrong", "p99 us"});
  cp::Table slo_t({"mix", "mode", "availability", "err budget", "max win burn",
                   "lat viol"});
  bool ok = true;
  std::vector<std::string> violations;

  for (const auto& [label, mix] : mixes) {
    double baseline_p99 = 0;
    for (const std::string mode : {"baseline", "chaos", "chaos-raw"}) {
      cp::runtime::ServingConfig cfg = base_config(mix, kSeed);
      cfg.resilience = cp::runtime::ResilienceConfig::chaos_preset(kSeed);
      if (mode == "baseline") cfg.resilience.chaos.enabled = false;
      if (mode == "chaos-raw") cfg.resilience.chaos_detect = false;
      // SLO accounting: 99.9% availability, 99% of completions within
      // 500 us. The per-window burn shows *when* chaos ate the budget.
      cfg.slo.availability = 0.999;
      cfg.slo.latency_us = 500.0;
      const auto r = cp::runtime::ServingRuntime(cfg).run();
      const auto& res = r.resilience;
      const auto slo = cp::obs::slo_summary(r.slo, r.series);

      const std::uint64_t non_rejected =
          r.submitted - r.rejected - r.rejected_unservable -
          res.rejected_deadline;
      const double complete_frac =
          non_rejected ? static_cast<double>(r.completed) / non_rejected : 1.0;
      const double p99 = r.latency_us(0.99);
      if (mode == "baseline") baseline_p99 = p99;

      const cp::obs::BenchReporter::Params p = {{"mix", label},
                                                {"mode", mode}};
      rep.add("throughput", r.throughput_per_s, "req/s", p);
      rep.add("completed", static_cast<double>(r.completed), "requests", p);
      rep.add("complete_frac", complete_frac, "ratio", p);
      rep.add("latency_p99", p99, "us", p);
      rep.add("retries", static_cast<double>(res.retries), "requests", p);
      rep.add("hedge_wins", static_cast<double>(res.hedge_wins), "requests",
              p);
      rep.add("breaker_opens", static_cast<double>(res.breaker_opens),
              "events", p);
      rep.add("chaos_episodes", static_cast<double>(res.chaos_episodes),
              "events", p);
      rep.add("detected_corruptions",
              static_cast<double>(res.detected_corruptions), "results", p);
      rep.add("wrong_accepted", static_cast<double>(res.wrong_accepted),
              "results", p);
      rep.add("slo_availability", slo.availability, "ratio", p);
      rep.add("slo_error_budget_consumed", slo.error_budget_consumed, "ratio",
              p);
      rep.add("slo_max_window_burn", slo.max_window_burn, "x", p);
      rep.add("slo_latency_violations",
              static_cast<double>(slo.latency_violations), "requests", p);

      t.add_row({label, mode, cp::fmt_i(r.completed),
                 cp::fmt_i(r.rejected + r.rejected_unservable +
                           res.rejected_deadline),
                 cp::fmt_i(res.retries), cp::fmt_i(res.hedge_wins),
                 cp::fmt_i(res.breaker_opens),
                 cp::fmt_i(res.detected_corruptions),
                 cp::fmt_i(res.wrong_accepted), cp::fmt_f(p99, 1)});
      slo_t.add_row({label, mode, cp::fmt_pct(slo.availability, 3),
                     cp::fmt_pct(slo.error_budget_consumed, 1),
                     cp::fmt_f(slo.max_window_burn, 1) + "x",
                     cp::fmt_i(slo.latency_violations)});

      if (mode != "chaos") continue;
      // Acceptance bar: only the full chaos+resilience cell is gated.
      if (res.wrong_accepted != 0) {
        ok = false;
        violations.push_back("mix " + label + ": " +
                             std::to_string(res.wrong_accepted) +
                             " corrupt result(s) accepted");
      }
      if (complete_frac < 0.99) {
        ok = false;
        violations.push_back("mix " + label + ": completion " +
                             cp::fmt_f(100.0 * complete_frac, 2) +
                             "% of non-rejected (< 99%)");
      }
      if (p99 > 5.0 * baseline_p99) {
        ok = false;
        violations.push_back("mix " + label + ": chaos p99 " +
                             cp::fmt_f(p99, 1) + "us > 5x baseline " +
                             cp::fmt_f(baseline_p99, 1) + "us");
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nSLO accounting (objective: 99.9% availability, 99% of\n"
               "completions within 500 us; burn = window error rate over\n"
               "the allowed rate):\n";
  slo_t.print(std::cout);

  std::cout << "\nChaos slows lanes 4x and corrupts completions in seeded\n"
               "windows; breakers take poisoned lanes out, retries and\n"
               "hedges re-place the work, and the verify layer keeps every\n"
               "corrupt result out of the delivered set.\n";
  if (!ok) {
    std::cout << "\nACCEPTANCE VIOLATIONS:\n";
    for (const auto& v : violations) std::cout << "  - " << v << "\n";
  }
  rep.write_default();
  return ok ? 0 : 1;
}
