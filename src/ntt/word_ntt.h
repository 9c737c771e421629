// Host-speed word-level NTT engine.
//
// `WordNttEngine` computes the same negacyclic products as `GsNttEngine`
// (and so the same results as the gate-level crossbar simulator) on flat
// host words, with the psi twist merged into the twiddles (Longa–Naehrig):
// the forward transform is one Cooley–Tukey pass with psi^{brv(i)},
// natural order in, bit-reversed order out; the inverse is one
// Gentleman–Sande pass with psi^{-brv(i)} and n^{-1} folded into its last
// stage, bit-reversed in, natural out. No bit-reversal permutation and no
// psi pre-twist or post-scale pass. Two tricks from production NTT
// libraries (cf. gmp-ecm's libntt, SNIPPETS.md §2) do the rest:
//
//  * Shoup multiplication: each constant c is stored with the reciprocal
//    c' = floor(c * 2^32 / q), so x*c mod q is two 32x32 multiplies and a
//    subtraction — no division.
//  * Lazy partial reduction: coefficients stay in [0, 2q) throughout;
//    additions conditionally subtract 2q, Shoup/Barrett products land in
//    [0, 2q) by construction, and one final `normalize` yields [0, q).
//
// Every operation is exact mod q, so the canonical product is bit-identical
// to GsNttEngine's although the schedules differ (tests/test_backend_diff.cc).
// NttParams guarantees q < 2^30, so the [0, 4q) intermediates fit 32 bits.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ntt/params.h"

namespace cryptopim::ntt {

/// Merged-psi negacyclic NTT over flat 32-bit words with Shoup/Barrett
/// precomputation and lazy [0, 2q) partial reduction.
class WordNttEngine {
 public:
  /// Observation hook for the reduction-invariant property tests: called
  /// after every butterfly stage with the current coefficient vector.
  /// Every value handed to the probe is < 2q.
  using StageProbe = std::function<void(std::span<const std::uint32_t>)>;

  explicit WordNttEngine(const NttParams& params);

  const NttParams& params() const noexcept { return params_; }
  std::uint32_t two_q() const noexcept { return twoq_; }

  /// Forward negacyclic NTT (Cooley–Tukey, psi folded into the
  /// twiddles). Expects coefficients in [0, 2q); output is the spectrum
  /// in bit-reversed order, partial domain [0, 2q).
  void forward_lazy(std::span<std::uint32_t> a) const {
    forward_impl(a, nullptr);
  }
  void forward_lazy(std::span<std::uint32_t> a, const StageProbe& probe) const {
    forward_impl(a, &probe);
  }

  /// Inverse negacyclic NTT (Gentleman–Sande, psi^{-1} and n^{-1}
  /// folded in). Expects a bit-reversed spectrum in [0, 2q); output is
  /// in normal order, partial domain [0, 2q).
  void inverse_lazy(std::span<std::uint32_t> a) const {
    inverse_impl(a, nullptr);
  }
  void inverse_lazy(std::span<std::uint32_t> a, const StageProbe& probe) const {
    inverse_impl(a, &probe);
  }

  /// a[i] = a[i] * b[i] mod q via Barrett with the precomputed 2^64
  /// reciprocal; inputs in [0, 2q), outputs in [0, 2q).
  void pointwise_lazy(std::span<std::uint32_t> a,
                      std::span<const std::uint32_t> b) const;

  /// The single final conditional-subtract pass: [0, 2q) -> [0, q).
  void normalize(std::span<std::uint32_t> a) const noexcept;

  /// c = a * b over Z_q[x]/(x^n + 1) for coefficients in [0, 2q); canonical
  /// [0, q) output, bit-exact vs GsNttEngine::negacyclic_multiply.
  std::vector<std::uint32_t> negacyclic_multiply(
      std::span<const std::uint32_t> a,
      std::span<const std::uint32_t> b) const;

 private:
  void forward_impl(std::span<std::uint32_t> a, const StageProbe* probe) const;
  void inverse_impl(std::span<std::uint32_t> a, const StageProbe* probe) const;

  NttParams params_;
  std::uint32_t twoq_ = 0;
  std::uint64_t barrett_mu_ = 0;  ///< floor(2^64 / q)
  // psi^{brv(i)}: block i of the stage with m blocks uses entry m + i.
  std::vector<std::uint32_t> psi_brv_, psi_brv_shoup_;
  // psi^{-brv(i)}, except [0] = n^{-1} and [1] = psi^{-brv(1)} n^{-1}.
  std::vector<std::uint32_t> psi_inv_brv_, psi_inv_brv_shoup_;
};

}  // namespace cryptopim::ntt
