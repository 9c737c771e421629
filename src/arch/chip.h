// The configurable CryptoPIM chip (Section III-D.2).
//
// Hierarchy: a *bank* is a chain of memory blocks implementing the full
// pipeline for a 512-element slice of a polynomial. A *softbank* gangs
// b_m = n/512 banks to hold one n-coefficient polynomial; a *superbank*
// pairs two softbanks to multiply two polynomials. The chip is provisioned
// for 32k-degree inputs (64 banks per polynomial, 128 banks per
// multiplication); smaller degrees re-partition the same banks into many
// superbanks for parallel multiplications, larger degrees are processed
// iteratively in 32k segments.
#pragma once

#include <cstdint>

#include "arch/pipeline.h"

namespace cryptopim::arch {

inline constexpr std::uint32_t kElementsPerBank = 512;

/// How the chip executes multiplications of a given degree.
struct DegreePlan {
  std::uint32_t n = 0;
  unsigned banks_per_softbank = 0;  ///< b_m = ceil(n/512), per polynomial
  unsigned banks_per_superbank = 0;
  unsigned superbanks = 0;   ///< parallel multiplications in flight
  unsigned segments = 1;     ///< >1: iterative 32k-segment processing
  // -- graceful degradation (reliability) -----------------------------------
  unsigned failed_banks = 0;  ///< banks out of service when planning
  unsigned spares_used = 0;   ///< chip spares covering failed banks
  /// Failures exceeded the spare pool: the plan runs fewer parallel
  /// multiplications than a healthy chip would.
  bool degraded = false;
};

struct ChipConfig {
  /// The degree the hardware is provisioned for (paper: 32k).
  std::uint32_t design_max_n = 32768;
  /// Memory blocks chained per bank. The paper counts 49 blocks for the
  /// 32k pipeline: a 3-blocks-per-level split ([sub+mult] / [Montgomery] /
  /// [add+Barrett]) with the forward chain reused for the inverse pass
  /// plus 2 blocks each for psi-scaling and the point-wise multiply:
  /// 3*log2(n) + 4 = 49 at n = 32k.
  unsigned blocks_per_bank = 49;
  /// 64 banks per input polynomial at 32k -> 128 per multiplication.
  unsigned total_banks = 128;
  /// Spare banks held out of the working set for bank-level repair
  /// (reliability layer). Spares stand in for failed working banks
  /// one-for-one; only failures beyond the spare pool shrink the plan.
  unsigned spare_banks = 8;

  static ChipConfig paper_chip() { return ChipConfig{}; }

  /// Partition (or segment) the chip for a given polynomial degree.
  DegreePlan plan_for_degree(std::uint32_t n) const;

  /// Same, but with `failed_banks` banks out of service: the plan runs
  /// on usable_banks(failed_banks) and degrades to fewer superbanks
  /// (never fewer than 1 — a chip that cannot host a single superbank
  /// throws).
  DegreePlan plan_for_degree(std::uint32_t n, unsigned failed_banks) const;

  /// Working banks left with `failed_banks` out of service. Spares
  /// absorb failures one-for-one; once the pool is dry the usable count
  /// shrinks, down to 0 once no bank is left.
  unsigned usable_banks(unsigned failed_banks) const noexcept {
    const unsigned lost =
        failed_banks > spare_banks ? failed_banks - spare_banks : 0;
    return lost >= total_banks ? 0 : total_banks - lost;
  }

  /// Total memory blocks on the chip.
  std::uint64_t total_blocks() const {
    return static_cast<std::uint64_t>(blocks_per_bank) * total_banks;
  }
  /// Raw crossbar capacity in bits (512 x 512 cells per block).
  std::uint64_t total_cells() const { return total_blocks() * 512ull * 512ull; }
};

}  // namespace cryptopim::arch
