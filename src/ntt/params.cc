#include "ntt/params.h"

#include <cassert>
#include <stdexcept>

#include "common/bitutil.h"
#include "ntt/modular.h"

namespace cryptopim::ntt {

std::uint32_t paper_modulus_for_degree(std::uint32_t n) {
  if (n <= 256) return 7681;
  if (n <= 1024) return 12289;
  return 786433;
}

unsigned paper_bitwidth_for_degree(std::uint32_t n) {
  return n <= 1024 ? 16u : 32u;
}

const std::vector<std::uint32_t>& paper_degrees() {
  static const std::vector<std::uint32_t> degrees = {
      256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
  return degrees;
}

NttParams NttParams::for_degree(std::uint32_t n) {
  return make(n, paper_modulus_for_degree(n));
}

NttParams NttParams::make(std::uint32_t n, std::uint32_t q) {
  if (!is_pow2(n) || n < 2) {
    throw std::invalid_argument("NTT degree must be a power of two >= 2");
  }
  // Below 2^30 the lazy word engine's [0, 4q) butterfly intermediates fit
  // 32 bits and add_mod / sub_mod / is_prime are exact (they need 2^31).
  if (q >= (1u << 30)) {
    throw std::invalid_argument("NTT modulus must be below 2^30");
  }
  if (!is_prime(q)) {
    throw std::invalid_argument("NTT modulus must be prime");
  }
  if ((q - 1) % (2 * n) != 0) {
    throw std::invalid_argument(
        "negacyclic NTT requires q ≡ 1 (mod 2n): no 2n-th root of unity");
  }
  NttParams p;
  p.n = n;
  p.q = q;
  p.log2n = ilog2(n);
  const unsigned qbits = bit_length(q);
  p.bitwidth = qbits <= 16 ? 16u : 32u;

  const auto psi = primitive_root_of_unity(2 * n, q);
  assert(psi.has_value());
  p.psi = *psi;
  p.psi_inv = inv_mod(p.psi, q);
  p.omega = mul_mod(p.psi, p.psi, q);
  p.omega_inv = inv_mod(p.omega, q);
  p.n_inv = inv_mod(n % q, q);

  // psi is a primitive 2n-th root, so psi^n = -1 (the negacyclic twist).
  assert(pow_mod(p.psi, n, q) == q - 1);
  assert(pow_mod(p.omega, n, q) == 1);
  return p;
}

}  // namespace cryptopim::ntt
