// Polynomial helpers over R_q = Z_q[x]/(x^n + 1): schoolbook oracle,
// samplers for RLWE-style workloads, and elementary ring operations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace cryptopim::ntt {

using Poly = std::vector<std::uint32_t>;

/// Ground-truth negacyclic product, O(n^2):
/// c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+n} a_i b_j (mod q).
Poly schoolbook_negacyclic(std::span<const std::uint32_t> a,
                           std::span<const std::uint32_t> b, std::uint32_t q);

/// Coefficient-wise addition mod q.
Poly poly_add(std::span<const std::uint32_t> a,
              std::span<const std::uint32_t> b, std::uint32_t q);

/// Coefficient-wise subtraction mod q.
Poly poly_sub(std::span<const std::uint32_t> a,
              std::span<const std::uint32_t> b, std::uint32_t q);

/// Uniform polynomial with coefficients in [0, q): the values, and the
/// generator state afterwards, of n calls of rng.next_below(q).
Poly sample_uniform(std::uint32_t n, std::uint32_t q, Xoshiro256& rng);

/// Centered binomial distribution with parameter eta (the RLWE "small
/// error" sampler used by Kyber/NewHope-style schemes), mapped into [0, q).
Poly sample_cbd(std::uint32_t n, std::uint32_t q, unsigned eta,
                Xoshiro256& rng);

/// Ternary polynomial with coefficients in {-1, 0, 1} mapped into [0, q).
Poly sample_ternary(std::uint32_t n, std::uint32_t q, Xoshiro256& rng);

/// Centered representative in (-q/2, q/2] of a canonical coefficient.
std::int64_t centered(std::uint32_t c, std::uint32_t q);

}  // namespace cryptopim::ntt
