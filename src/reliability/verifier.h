// Freivalds-style randomized verification of a negacyclic product.
//
// The accelerator claims c(x) = a(x) * b(x) in Z_q[x]/(x^n + 1). Because
// every parameter set satisfies q ≡ 1 (mod 2n), x^n + 1 splits completely
// over F_q: its n roots are the odd powers psi^(2u+1) of the primitive
// 2n-th root of unity. At any such root r the quotient-ring identity
// becomes a plain field identity,
//
//     c(r) ≡ a(r) * b(r)   (mod q),
//
// checkable with three Horner evaluations — O(n) multiply-adds per point
// against the O(n log n) cost of recomputing the product.
//
// Host evaluation is division-free, like the paper's shift-add modulo
// circuits: per point, one loop runs the three Horner chains interleaved,
// acc <- shoup(acc, r) + p_i, where shoup multiplies by the point r with
// its precomputed reciprocal floor(r * 2^32 / q) (ntt::mul_shoup_lazy)
// and lands in [0, 2q). With p_i < q every accumulator stays below
// 3q < 2^32, since NttParams guarantees q < 2^30, and takes one % q at
// the end. Coefficients are compared as residues mod q: a word >= q is
// reduced before it enters its chain, so c_k + m*q is the same answer
// as c_k.
//
// False-negative bound: an undetected error means the error polynomial
// e = c - a*b (nonzero, degree < n) vanishes at every sampled root.
//  * Adversarial bound: e has at most n-1 roots, so one uniformly sampled
//    root misses with probability <= (n-1)/n, and t independent points
//    with <= ((n-1)/n)^t.
//  * Fault-model bound: corruption that perturbs c like a random field
//    element at the evaluation point (coefficient-domain noise, dense
//    NTT-domain noise) misses each point with probability ~ 1/q and t
//    points with ~ q^-t (about 10^-8 at q = 7681, t = 2). A
//    single-coefficient corruption e = eps * x^k is *always* caught:
//    roots of x^n + 1 are nonzero, so e(r) != 0 at every point.
//  * Blind spot (why this check is the backstop, not the front line):
//    evaluating c at a root psi^(2u+1) is reading NTT bin u. An error
//    confined to d NTT bins — e.g. one stuck cell corrupting one row of
//    the point-wise stage — vanishes at the other n-d roots, so a point
//    catches it only with probability d/n. This is not fixable at O(n):
//    mixing all bins at an off-root point r requires the quotient
//    h = (a*b - c)/(x^n + 1), i.e. the full product. The reliability
//    stack therefore catches stuck-cell compute corruption *at the
//    source* via program-verify (pim::WriteVerifyObserver) and in-flight
//    corruption via the transfer parity column; the Freivalds check
//    guards what those cannot see (multi-bit survivors, escaped dense
//    errors) where its q^-t bound genuinely applies.
//
// Cycle model: each 512-row bank streams its rows through a pipelined
// MAC unit at the crossbar periphery, one coefficient per cycle, three
// polynomials per point; the host folds the per-bank partial sums.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"

namespace cryptopim::reliability {

struct VerifyConfig {
  /// Evaluation points per check; 0 disables verification.
  unsigned points = 2;
  std::uint64_t seed = 1;
};

class ResultVerifier {
 public:
  ResultVerifier(const ntt::NttParams& params, VerifyConfig cfg);

  /// True iff c(r) == a(r) * b(r) mod q at `points` random roots of
  /// x^n + 1. Any 32-bit coefficient counts as its residue mod q.
  bool check(const ntt::Poly& a, const ntt::Poly& b, const ntt::Poly& c);

  unsigned points() const noexcept { return cfg_.points; }
  /// Modeled accelerator-side cost of one check, in crossbar cycles:
  /// points * (3 * rows-per-bank streaming MACs + per-bank folding).
  std::uint64_t cycles_per_check() const noexcept;
  std::uint64_t checks() const noexcept { return checks_; }
  std::uint64_t failures() const noexcept { return failures_; }

 private:
  ntt::NttParams params_;
  VerifyConfig cfg_;
  Xoshiro256 rng_;
  unsigned banks_ = 1;
  std::uint64_t checks_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace cryptopim::reliability
