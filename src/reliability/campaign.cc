#include "reliability/campaign.h"

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/poly.h"
#include "sim/simulator.h"

namespace cryptopim::reliability {

CampaignResult run_fault_campaign(const CampaignConfig& cfg) {
  const ntt::NttParams params = ntt::NttParams::make(cfg.n, cfg.q);
  const ntt::GsNttEngine oracle(params);

  CampaignResult result;
  result.config = cfg;
  result.cells.reserve(cfg.stuck_rates.size());

  for (std::size_t ri = 0; ri < cfg.stuck_rates.size(); ++ri) {
    CampaignCell cell;
    cell.stuck_rate = cfg.stuck_rates[ri];

    // One manager per cell: remaps and spare consumption accumulate
    // across the cell's trials, like hardware aging through a workload.
    ReliabilityConfig rc;
    rc.fault.stuck_rate = cell.stuck_rate;
    rc.fault.transient_rate = cfg.transient_rate;
    rc.fault.seed = cfg.seed + 0x1000 * (ri + 1);
    rc.verify.points = cfg.verify_points;
    rc.verify.seed = cfg.seed ^ 0x5eed5eedull;
    rc.parity = cfg.parity;
    rc.max_retries = cfg.max_retries;
    rc.spare_cols_per_block = cfg.spare_cols_per_block;
    rc.spare_banks = cfg.spare_banks;
    ReliabilityManager manager(rc, params);

    sim::CryptoPimSimulator simu(params);
    simu.set_reliability(&manager);

    Xoshiro256 input_rng(cfg.seed + 0x9000 * (ri + 1));
    for (unsigned t = 0; t < cfg.trials_per_rate; ++t) {
      const ntt::Poly a = ntt::sample_uniform(cfg.n, cfg.q, input_rng);
      const ntt::Poly b = ntt::sample_uniform(cfg.n, cfg.q, input_rng);
      const auto expected = oracle.negacyclic_multiply(a, b);

      ++cell.trials;
      bool delivered = false;
      ntt::Poly c;
      try {
        c = simu.multiply(a, b);
        delivered = true;
      } catch (const UnrecoverableFault&) {
        ++cell.unrecoverable;
      }

      const RelStats& s = simu.report().reliability;
      cell.injected += s.faults_planted + s.transient_flips;
      cell.attempts += s.attempts;
      cell.columns_remapped += s.columns_remapped;
      cell.banks_remapped += s.banks_remapped;
      cell.overhead_cycles += s.overhead_cycles();
      const bool detection_fired = s.parity_mismatches > 0 ||
                                   s.write_verify_failures > 0 ||
                                   s.verify_failures > 0;
      if (detection_fired) ++cell.detected;

      if (!delivered) continue;
      cell.wall_cycles += simu.report().wall_cycles;
      if (c != expected) {
        ++cell.escaped;
      } else if (s.attempts > 1) {
        ++cell.recovered;
      } else {
        ++cell.clean;
      }
    }
    result.cells.push_back(cell);
  }
  return result;
}

}  // namespace cryptopim::reliability
