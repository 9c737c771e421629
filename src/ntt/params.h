// Parameter sets for the negacyclic NTT over Z_q[x]/(x^n + 1).
//
// The paper fixes the modulus per degree (Section III-B):
//   q = 7681   for n <= 256   (Kyber),        16-bit datapath
//   q = 12289  for n in {512, 1024} (NewHope), 16-bit datapath
//   q = 786433 for n in {2k..32k}  (SEAL),     32-bit datapath
#pragma once

#include <cstdint>
#include <vector>

namespace cryptopim::ntt {

/// All constants needed to run the negacyclic NTT for a given (n, q).
/// Invariants (checked at construction): q prime, q < 2^30,
/// q ≡ 1 (mod 2n), psi is a primitive 2n-th root of unity,
/// omega = psi^2, psi^n = -1.
struct NttParams {
  std::uint32_t n = 0;       ///< polynomial degree (power of two)
  std::uint32_t q = 0;       ///< prime modulus
  unsigned log2n = 0;
  unsigned bitwidth = 0;     ///< datapath width in the accelerator (16/32)
  std::uint32_t omega = 0;      ///< primitive n-th root of unity (w)
  std::uint32_t omega_inv = 0;  ///< w^{-1} mod q
  std::uint32_t psi = 0;        ///< primitive 2n-th root of unity (phi)
  std::uint32_t psi_inv = 0;    ///< phi^{-1} mod q
  std::uint32_t n_inv = 0;      ///< n^{-1} mod q (folded into inverse scaling)

  /// Paper parameterisation: selects q and bitwidth from n.
  static NttParams for_degree(std::uint32_t n);
  /// Custom modulus (q prime, q < 2^30, q ≡ 1 mod 2n); bitwidth = bits of
  /// q rounded up to 16 or 32. Throws std::invalid_argument otherwise.
  static NttParams make(std::uint32_t n, std::uint32_t q);
};

/// The paper's modulus for a given degree (Section III-B / Algorithm 3).
std::uint32_t paper_modulus_for_degree(std::uint32_t n);

/// The paper's datapath bit-width for a given degree (16 for n<=1024,
/// 32 above).
unsigned paper_bitwidth_for_degree(std::uint32_t n);

/// The eight degrees evaluated in the paper: 256 ... 32768.
const std::vector<std::uint32_t>& paper_degrees();

}  // namespace cryptopim::ntt
