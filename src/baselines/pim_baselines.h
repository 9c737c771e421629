// PIM baselines of Fig. 6 (Section IV-C).
//
//   BP-1: the multiplier of Haj-Ali et al. [35] everywhere (butterfly and
//         inside the reductions); modulo via multiplication-based Barrett
//         (two wide multiplications + subtract).
//   BP-2: BP-1 with every N-bit multiplication replaced by the CryptoPIM
//         multiplier (same multiplication-based reductions).
//   BP-3: BP-2 with the reductions converted to shift-and-add chains
//         (uniform full-width adds, no bit-level trimming).
//   CryptoPIM: BP-3 with the width-trimmed reductions of Table I.
//
// All four share the architecture (blocks, switches, non-pipelined
// area-efficient chain), so the comparison isolates the arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "model/latency.h"
#include "model/performance.h"

namespace cryptopim::baselines {

enum class PimBaseline { kBp1, kBp2, kBp3, kCryptoPim };

const char* to_string(PimBaseline b);

/// Rectangular-width multiplication formulas (W x V bit operands).
std::uint64_t mult_cycles_rect_cryptopim(unsigned w, unsigned v);
std::uint64_t mult_cycles_rect_hajali(unsigned w, unsigned v);

/// Per-op latency set of a baseline at degree n (paper parameterisation).
model::LatencySet baseline_latency(PimBaseline b, std::uint32_t n);

/// Non-pipelined latency of one polynomial multiplication (the Fig. 6
/// comparison is between non-pipelined designs).
model::PipelinePerf evaluate_baseline(PimBaseline b, std::uint32_t n);

}  // namespace cryptopim::baselines
