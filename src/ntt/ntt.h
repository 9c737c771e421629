// Number Theoretic Transform engines.
//
// `GsNttEngine` implements the paper's Algorithm 1 (NTT-based negacyclic
// polynomial multiplier) on top of Algorithm 2 (the Gentleman–Sande
// in-place NTT: reverse-order input, normal-order output, twiddles stored
// in bit-reversed order). A classic DIF/DIT pair is provided as an
// independent cross-check, and a schoolbook negacyclic multiplier serves
// as the ground-truth oracle (see poly.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ntt/params.h"

namespace cryptopim::ntt {

/// In-place bit-reversal permutation of a power-of-two-length vector.
void bitrev_permute(std::span<std::uint32_t> a);

/// Gentleman–Sande NTT engine bound to one parameter set.
///
/// Precomputes the twiddle tables once; all transforms are in-place and
/// allocation-free. Coefficients are canonical representatives in [0, q).
class GsNttEngine {
 public:
  explicit GsNttEngine(const NttParams& params);

  const NttParams& params() const noexcept { return params_; }

  /// Algorithm 2, literal: log2(n) stages of strides 1, 2, ..., n/2 with
  /// bit-reversed twiddle addressing. Expects bit-reversed input order and
  /// produces normal output order. `twiddle` must be one of the engine's
  /// tables (forward or inverse).
  void transform_gs(std::span<std::uint32_t> a,
                    const std::vector<std::uint32_t>& twiddle) const;

  /// Forward negacyclic NTT: scale by psi^i, bit-reverse, Algorithm 2.
  /// Output in normal order.
  void forward(std::span<std::uint32_t> a) const;

  /// Inverse negacyclic NTT: bit-reverse, Algorithm 2 with w^{-1}
  /// twiddles, scale by n^{-1} psi^{-i}. Output in normal order.
  ///
  /// The paper's Algorithm 1 folds the 1/n factor into the psi^{-i}
  /// post-scaling table (it is omitted in the listing); we do the same.
  void inverse(std::span<std::uint32_t> a) const;

  /// c = a * b over Z_q[x]/(x^n + 1), via Algorithm 1.
  std::vector<std::uint32_t> negacyclic_multiply(
      std::span<const std::uint32_t> a,
      std::span<const std::uint32_t> b) const;

  const std::vector<std::uint32_t>& forward_twiddles() const noexcept {
    return tw_fwd_;
  }
  const std::vector<std::uint32_t>& psi_powers() const noexcept {
    return psi_pow_;
  }
  /// psi^{-i} * n^{-1} mod q, the fused inverse post-scaling table.
  const std::vector<std::uint32_t>& psi_inv_scaled() const noexcept {
    return psi_inv_scaled_;
  }

 private:
  NttParams params_;
  std::vector<std::uint32_t> tw_fwd_;   // w^k, bit-reversed over n/2 entries
  std::vector<std::uint32_t> tw_inv_;   // w^{-k}, bit-reversed
  std::vector<std::uint32_t> psi_pow_;  // psi^i, normal order
  std::vector<std::uint32_t> psi_inv_scaled_;  // psi^{-i} n^{-1}, normal order
};

/// Classic decimation-in-frequency NTT (normal input -> bit-reversed
/// output), used only as an independent correctness cross-check for the
/// Algorithm 2 schedule.
void ntt_dif_classic(std::span<std::uint32_t> a, std::uint32_t omega,
                     std::uint32_t q);

/// Classic decimation-in-time inverse (bit-reversed input -> normal
/// output), unscaled (result is n * INTT).
void ntt_dit_classic(std::span<std::uint32_t> a, std::uint32_t omega,
                     std::uint32_t q);

}  // namespace cryptopim::ntt
