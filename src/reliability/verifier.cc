#include "reliability/verifier.h"

#include <stdexcept>

#include "ntt/modular.h"
#include "pim/block.h"

namespace cryptopim::reliability {

ResultVerifier::ResultVerifier(const ntt::NttParams& params, VerifyConfig cfg)
    : params_(params),
      cfg_(cfg),
      rng_(cfg.seed ^ 0x6a09e667f3bcc909ull),
      banks_(params.n > pim::kBlockRows
                 ? params.n / static_cast<unsigned>(pim::kBlockRows)
                 : 1u) {}

std::uint64_t ResultVerifier::cycles_per_check() const noexcept {
  if (cfg_.points == 0) return 0;
  const std::uint64_t rows_per_bank = params_.n / banks_;
  // Per point: the three polynomials stream through per-bank MACs
  // (3 * rows cycles), then the host folds `banks_` partial sums and
  // compares (banks_ + 1 cycles).
  return cfg_.points * (3 * rows_per_bank + banks_ + 1);
}

bool ResultVerifier::check(const ntt::Poly& a, const ntt::Poly& b,
                           const ntt::Poly& c) {
  if (a.size() != params_.n || b.size() != params_.n ||
      c.size() != params_.n) {
    throw std::invalid_argument("verifier operand size mismatch");
  }
  ++checks_;
  const std::uint32_t q = params_.q;
  // A coefficient >= q is reduced first, so every 32-bit word counts as
  // its residue; canonical input never takes the branch.
  const auto residue = [q](std::uint32_t x) { return x < q ? x : x % q; };
  bool ok = true;
  for (unsigned t = 0; t < cfg_.points; ++t) {
    // r = psi^(2u+1): a uniformly random root of x^n + 1.
    const std::uint64_t u = rng_.next_below(params_.n);
    const std::uint32_t r = ntt::pow_mod(params_.psi, 2 * u + 1, q);
    const std::uint32_t r_shoup = ntt::shoup_reciprocal(r, q);
    // Three interleaved Horner chains, highest coefficient first. The
    // Shoup product lands in [0, 2q) and a residue adds < q, so each
    // accumulator stays below 3q < 2^32 (q < 2^30).
    std::uint32_t ea = 0, eb = 0, ec = 0;
    for (std::size_t i = params_.n; i-- > 0;) {
      ea = ntt::mul_shoup_lazy(ea, r, r_shoup, q) + residue(a[i]);
      eb = ntt::mul_shoup_lazy(eb, r, r_shoup, q) + residue(b[i]);
      ec = ntt::mul_shoup_lazy(ec, r, r_shoup, q) + residue(c[i]);
    }
    const std::uint32_t lhs = ec % q;
    const std::uint32_t rhs = ntt::mul_mod(ea % q, eb % q, q);
    if (lhs != rhs) ok = false;  // keep consuming points: fixed cycle cost
  }
  if (!ok) ++failures_;
  return ok;
}

}  // namespace cryptopim::reliability
