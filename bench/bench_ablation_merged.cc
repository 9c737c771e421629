// Ablation: merging the psi-twist into the butterfly twiddles.
//
// The paper's pipeline (Algorithm 1) spends dedicated blocks on the
// psi^i / psi^{-i} scaling passes. The merged schedule, which the host
// word engine runs (src/ntt/word_ntt, bit-exact against Algorithm 1),
// folds those into the butterfly twiddles, removing the scale stages
// from the pipeline. This bench quantifies what the accelerator would
// save — and why the paper's choice still makes sense (the scale stages
// are off the critical path, so only latency/area move, not
// throughput). Also prints the per-phase energy breakdown of the
// standard pipeline.
#include <iostream>

#include "arch/pipeline.h"
#include "common/table.h"
#include "model/latency.h"
#include "model/performance.h"
#include "ntt/params.h"
#include "obs/bench_report.h"

namespace cp = cryptopim;
using cp::arch::StageOp;
using cp::arch::StagePhase;

int main() {
  std::cout << "== Ablation: merged-psi pipeline ==\n\n";

  const auto em = cp::model::EnergyModel::calibrated();
  const auto dev = cp::pim::DeviceModel::paper_45nm();

  cp::obs::BenchReporter rep("ablation_merged");
  cp::Table t({"n", "stages (paper)", "stages (merged)", "lat (us) paper",
               "lat (us) merged", "lat saving", "thr change",
               "blocks/bank saved"});
  for (const std::uint32_t n : {256u, 1024u, 4096u, 32768u}) {
    auto spec = cp::arch::PipelineSpec::build(
        n, cp::arch::PipelineVariant::kCryptoPim);
    const auto l = cp::model::paper_latency(n);
    const auto base = cp::model::evaluate_pipelined(spec, l, em, dev);

    // Merged variant: drop the psi-scale and psi^{-1}-scale stages (the
    // point-wise multiply remains). Butterfly twiddles change value, not
    // cost.
    cp::arch::PipelineSpec merged = spec;
    std::erase_if(merged.stages, [](const cp::arch::StageSpec& s) {
      return s.phase == StagePhase::kPsiScale ||
             s.phase == StagePhase::kPsiInvScale;
    });
    const auto opt = cp::model::evaluate_pipelined(merged, l, em, dev);

    const cp::obs::BenchReporter::Params nn = {{"n", std::to_string(n)}};
    rep.add("latency_paper", base.latency_us, "us", nn);
    rep.add("latency_merged", opt.latency_us, "us", nn);
    rep.add("throughput_paper", base.throughput_per_s, "1/s", nn);
    rep.add("throughput_merged", opt.throughput_per_s, "1/s", nn);
    t.add_row({std::to_string(n), std::to_string(base.depth),
               std::to_string(opt.depth), cp::fmt_f(base.latency_us),
               cp::fmt_f(opt.latency_us),
               cp::fmt_pct(1.0 - opt.latency_us / base.latency_us, 1),
               cp::fmt_pct(opt.throughput_per_s / base.throughput_per_s - 1.0,
                           1),
               "4"});
  }
  t.print(std::cout);
  std::cout << "\nMerging removes 4 stages (~10% pipeline latency at n=256,\n"
               "~6% at 32k) and 4 blocks per bank of area, but throughput is\n"
               "unchanged: the slowest stage is the butterfly [sub+mult]\n"
               "block either way. The merged transform is the host word\n"
               "engine's (src/ntt/word_ntt), verified bit-exact against\n"
               "Algorithm 1 in tests/test_ntt_property.cc.\n\n";

  // Per-phase energy/cycle breakdown of the standard pipeline.
  std::cout << "-- where the cycles and energy go (standard pipeline) --\n";
  for (const std::uint32_t n : {256u, 32768u}) {
    const auto spec = cp::arch::PipelineSpec::build(
        n, cp::arch::PipelineVariant::kCryptoPim);
    const auto l = cp::model::paper_latency(n);
    std::uint64_t mult = 0, reductions = 0, addsub = 0, transfer = 0;
    for (const auto& st : spec.stages) {
      for (const auto op : st.ops) {
        switch (op) {
          case StageOp::kMult: mult += l.mult; break;
          case StageOp::kBarrett: reductions += l.barrett; break;
          case StageOp::kMontgomery: reductions += l.montgomery; break;
          case StageOp::kAdd: addsub += l.add; break;
          case StageOp::kSub: addsub += l.sub; break;
          case StageOp::kTransferIn: transfer += l.transfer; break;
        }
      }
    }
    const double total = static_cast<double>(mult + reductions + addsub +
                                             transfer);
    cp::Table e({"n=" + std::to_string(n), "cycles", "share"});
    e.add_row({"multiplication", cp::fmt_i(mult),
               cp::fmt_f(mult / total * 100, 1) + "%"});
    e.add_row({"modulo reductions", cp::fmt_i(reductions),
               cp::fmt_f(reductions / total * 100, 1) + "%"});
    e.add_row({"add/sub", cp::fmt_i(addsub),
               cp::fmt_f(addsub / total * 100, 1) + "%"});
    e.add_row({"switch transfers", cp::fmt_i(transfer),
               cp::fmt_f(transfer / total * 100, 1) + "%"});
    e.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Multiplication dominates (the motivation for the optimized\n"
               "multiplier); reductions are the second-largest consumer (the\n"
               "motivation for shift-add Algorithm 3); transfers are noise\n"
               "(the fixed-function switch doing its job).\n";
  rep.write_default();
  return 0;
}
