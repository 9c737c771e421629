#include "ntt/rns.h"

#include <cassert>
#include <stdexcept>

#include "ntt/modular.h"

namespace cryptopim::ntt {

U128 mulmod_u128(U128 a, U128 b, U128 m) {
  assert(m != 0);
  a %= m;
  b %= m;
  U128 acc = 0;
  while (b != 0) {
    if (b & 1u) {
      acc += a;
      if (acc >= m) acc -= m;
    }
    a <<= 1;
    if (a >= m) a -= m;
    b >>= 1;
  }
  return acc;
}

RnsBasis RnsBasis::generate(std::uint32_t n, std::size_t count,
                            unsigned max_bits) {
  if (count == 0) throw std::invalid_argument("RNS basis needs >= 1 prime");
  if (max_bits < 2 || max_bits > 30) {
    throw std::invalid_argument("RNS limb width must be in [2, 30] bits");
  }
  RnsBasis basis;
  basis.n_ = n;

  // Candidates are k*2n + 1, searched downward from 2^max_bits so limbs
  // stay as wide (and as few) as possible.
  const std::uint64_t step = 2ull * n;
  std::uint64_t candidate = ((std::uint64_t{1} << max_bits) - 1) / step * step + 1;
  while (basis.limbs_.size() < count) {
    if (candidate <= step) {
      throw std::runtime_error("not enough NTT-friendly primes below 2^bits");
    }
    const auto q = static_cast<std::uint32_t>(candidate);
    if (is_prime(q)) {
      // 127-bit guard: Q * q must not overflow the U128 accumulator.
      if (basis.modulus_ > (~U128{0} >> 1) / q) {
        throw std::runtime_error("RNS modulus exceeds 127 bits");
      }
      basis.limbs_.emplace_back(NttParams::make(n, q));
      basis.modulus_ *= q;
    }
    candidate -= step;
  }

  // CRT constants: m_i = Q/q_i, m_i_inv = m_i^{-1} mod q_i.
  for (auto& limb : basis.limbs_) {
    limb.m_i = basis.modulus_ / limb.params.q;
    const auto m_i_mod_q =
        static_cast<std::uint32_t>(limb.m_i % limb.params.q);
    limb.m_i_inv = inv_mod(m_i_mod_q, limb.params.q);
  }
  return basis;
}

RnsPoly RnsBasis::decompose(std::span<const U128> coeffs) const {
  if (coeffs.size() != n_) {
    throw std::invalid_argument("coefficient count does not match degree");
  }
  RnsPoly out;
  out.residues.reserve(limbs_.size());
  for (const auto& limb : limbs_) {
    Poly r(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      assert(coeffs[i] < modulus_);
      r[i] = static_cast<std::uint32_t>(coeffs[i] % limb.params.q);
    }
    out.residues.push_back(std::move(r));
  }
  return out;
}

std::vector<U128> RnsBasis::reconstruct(const RnsPoly& p) const {
  if (p.residues.size() != limbs_.size()) {
    throw std::invalid_argument("residue count does not match basis");
  }
  std::vector<U128> out(n_, 0);
  for (std::size_t l = 0; l < limbs_.size(); ++l) {
    const auto& limb = limbs_[l];
    for (std::uint32_t i = 0; i < n_; ++i) {
      // x += x_l * (Q/q_l) * ((Q/q_l)^{-1} mod q_l)  (mod Q)
      const std::uint32_t scaled =
          mul_mod(p.residues[l][i], limb.m_i_inv, limb.params.q);
      out[i] = out[i] + mulmod_u128(scaled, limb.m_i, modulus_);
      if (out[i] >= modulus_) out[i] -= modulus_;
    }
  }
  return out;
}

RnsPoly RnsBasis::multiply(const RnsPoly& a, const RnsPoly& b) const {
  if (a.residues.size() != limbs_.size() ||
      b.residues.size() != limbs_.size()) {
    throw std::invalid_argument("residue count does not match basis");
  }
  RnsPoly out;
  out.residues.reserve(limbs_.size());
  for (std::size_t l = 0; l < limbs_.size(); ++l) {
    out.residues.push_back(
        limbs_[l].engine.negacyclic_multiply(a.residues[l], b.residues[l]));
  }
  return out;
}

}  // namespace cryptopim::ntt
