#include "arch/chip.h"

#include <algorithm>
#include <stdexcept>

#include "common/bitutil.h"

namespace cryptopim::arch {

DegreePlan ChipConfig::plan_for_degree(std::uint32_t n) const {
  return plan_for_degree(n, 0);
}

DegreePlan ChipConfig::plan_for_degree(std::uint32_t n,
                                       unsigned failed_banks) const {
  if (!is_pow2(n) || n < 4) {
    throw std::invalid_argument("degree must be a power of two >= 4");
  }
  const unsigned usable = usable_banks(failed_banks);
  if (usable == 0) {
    throw std::runtime_error("chip out of banks: no superbank can be formed");
  }

  DegreePlan plan;
  plan.n = n;
  plan.failed_banks = failed_banks;
  plan.spares_used = std::min(failed_banks, spare_banks);
  plan.degraded = usable < total_banks;
  if (n <= design_max_n) {
    plan.banks_per_softbank =
        n <= kElementsPerBank ? 1u : n / kElementsPerBank;
    plan.banks_per_superbank = 2 * plan.banks_per_softbank;
    plan.superbanks = usable / plan.banks_per_superbank;
    plan.segments = 1;
  } else {
    // Inputs above the design point are cut into 32k segments and fed
    // through the hardware iteratively (Section III-D.2).
    plan.banks_per_softbank = design_max_n / kElementsPerBank;
    plan.banks_per_superbank = 2 * plan.banks_per_softbank;
    plan.superbanks = usable / plan.banks_per_superbank;
    plan.segments = n / design_max_n;
  }
  if (plan.superbanks == 0) {
    throw std::runtime_error(
        "chip out of banks: no superbank can be formed at this degree");
  }
  return plan;
}

}  // namespace cryptopim::arch
