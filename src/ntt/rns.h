// Residue number system (RNS) over NTT-friendly primes.
//
// Homomorphic-encryption libraries (the paper cites Microsoft SEAL for its
// n >= 2k parameters) work with ciphertext moduli Q far wider than a
// machine word by decomposing Q into a basis of word-sized primes
// q_1 ... q_k, each ≡ 1 (mod 2n). Every ring operation then runs
// independently per limb — which is exactly the form CryptoPIM
// accelerates: one NTT-based multiplication per (n, q_i) parameter set,
// trivially parallel across superbanks.
//
// This module provides basis generation, CRT decompose/reconstruct (up to
// 127-bit Q), and the per-limb negacyclic multiplier, verified against a
// wide-integer schoolbook oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"

namespace cryptopim::ntt {

using U128 = unsigned __int128;

/// (a * b) mod m for 128-bit operands (shift-add; used only by the CRT
/// and the test oracle, never on hot paths).
U128 mulmod_u128(U128 a, U128 b, U128 m);

/// A polynomial held as per-prime residue vectors.
struct RnsPoly {
  std::vector<Poly> residues;  ///< residues[i] is the image mod q_i
};

class RnsBasis {
 public:
  /// Generate `count` distinct primes q ≡ 1 (mod 2n), each of at most
  /// `max_bits` bits (searched downward from 2^max_bits). Throws if the
  /// product would exceed 127 bits or not enough primes exist.
  static RnsBasis generate(std::uint32_t n, std::size_t count,
                           unsigned max_bits = 20);

  std::size_t size() const noexcept { return limbs_.size(); }
  std::uint32_t degree() const noexcept { return n_; }
  const NttParams& params(std::size_t i) const { return limbs_.at(i).params; }
  std::uint32_t prime(std::size_t i) const { return limbs_.at(i).params.q; }
  U128 modulus() const noexcept { return modulus_; }

  /// Coefficients in [0, Q) -> residues.
  RnsPoly decompose(std::span<const U128> coeffs) const;
  /// Residues -> coefficients in [0, Q) (CRT).
  std::vector<U128> reconstruct(const RnsPoly& p) const;

  /// Negacyclic product mod Q, one NTT multiplication per limb.
  RnsPoly multiply(const RnsPoly& a, const RnsPoly& b) const;

 private:
  struct Limb {
    NttParams params;
    GsNttEngine engine;
    U128 m_i = 0;      ///< Q / q_i
    std::uint32_t m_i_inv = 0;  ///< (Q/q_i)^{-1} mod q_i
    explicit Limb(const NttParams& p) : params(p), engine(p) {}
  };

  std::uint32_t n_ = 0;
  U128 modulus_ = 1;
  std::vector<Limb> limbs_;
};

}  // namespace cryptopim::ntt
