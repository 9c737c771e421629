#include "ntt/word_ntt.h"

#include <cassert>
#include <stdexcept>

#include "common/bitutil.h"
#include "ntt/modular.h"

namespace cryptopim::ntt {

namespace {

/// a + b with one conditional subtract: [0, 2q) inputs stay in [0, 2q).
inline std::uint32_t add_lazy(std::uint32_t a, std::uint32_t b,
                              std::uint32_t twoq) {
  const std::uint32_t s = a + b;
  return s >= twoq ? s - twoq : s;
}

/// The Shoup reciprocals of a constant table.
std::vector<std::uint32_t> shoup_table(const std::vector<std::uint32_t>& c,
                                       std::uint32_t q) {
  std::vector<std::uint32_t> out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    out[i] = shoup_reciprocal(c[i], q);
  }
  return out;
}

}  // namespace

WordNttEngine::WordNttEngine(const NttParams& params) : params_(params) {
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  twoq_ = 2 * q;
  barrett_mu_ = barrett_reciprocal(q);

  psi_brv_.resize(n);
  psi_inv_brv_.resize(n);
  std::uint32_t pw = 1, pw_inv = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto r = bit_reverse(i, params_.log2n);
    psi_brv_[r] = pw;
    psi_inv_brv_[r] = pw_inv;
    pw = mul_mod(pw, params_.psi, q);
    pw_inv = mul_mod(pw_inv, params_.psi_inv, q);
  }
  psi_inv_brv_[0] = params_.n_inv;
  psi_inv_brv_[1] = mul_mod(psi_inv_brv_[1], params_.n_inv, q);
  psi_brv_shoup_ = shoup_table(psi_brv_, q);
  psi_inv_brv_shoup_ = shoup_table(psi_inv_brv_, q);
}

void WordNttEngine::forward_impl(std::span<std::uint32_t> a,
                                 const StageProbe* probe) const {
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  const std::uint32_t twoq = twoq_;
  assert(a.size() == n);

  // Cooley–Tukey with psi folded in (Longa–Naehrig Alg. 1), lazy form:
  // block i of the stage with m blocks of 2t rows uses psi^{brv(m+i)}. u and
  // v = w*y[j] are in [0, 2q), so u + v and u - v + 2q need one subtract.
  for (std::uint32_t m = 1, t = n / 2; m < n; m <<= 1, t >>= 1) {
    for (std::uint32_t i = 0; i < m; ++i) {
      const std::uint32_t w = psi_brv_[m + i];
      const std::uint32_t w_shoup = psi_brv_shoup_[m + i];
      std::uint32_t* x = a.data() + 2 * i * t;
      std::uint32_t* y = x + t;
      for (std::uint32_t j = 0; j < t; ++j) {
        const std::uint32_t u = x[j];
        const std::uint32_t v = mul_shoup_lazy(y[j], w, w_shoup, q);
        x[j] = add_lazy(u, v, twoq);
        y[j] = add_lazy(u, twoq - v, twoq);
      }
    }
    if (probe && *probe) (*probe)(a);
  }
}

void WordNttEngine::inverse_impl(std::span<std::uint32_t> a,
                                 const StageProbe* probe) const {
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  const std::uint32_t twoq = twoq_;
  assert(a.size() == n);

  // Gentleman–Sande with psi^{-1} folded in (Longa–Naehrig Alg. 2), lazy
  // form: u + v gets one conditional subtract, u - v + 2q (< 4q) feeds
  // the Shoup multiply. The last stage (h = 1) is peeled off below.
  for (std::uint32_t h = n / 2, t = 1; h > 1; h >>= 1, t <<= 1) {
    for (std::uint32_t i = 0; i < h; ++i) {
      const std::uint32_t w = psi_inv_brv_[h + i];
      const std::uint32_t w_shoup = psi_inv_brv_shoup_[h + i];
      std::uint32_t* x = a.data() + 2 * i * t;
      std::uint32_t* y = x + t;
      for (std::uint32_t j = 0; j < t; ++j) {
        const std::uint32_t u = x[j];
        const std::uint32_t v = y[j];
        x[j] = add_lazy(u, v, twoq);
        y[j] = mul_shoup_lazy(u - v + twoq, w, w_shoup, q);
      }
    }
    if (probe && *probe) (*probe)(a);
  }

  // Last stage with n^{-1} folded into both outputs (table entries 0 and
  // 1); u + v (< 4q) feeds the Shoup multiply without a subtract.
  const std::uint32_t half = n / 2;
  for (std::uint32_t j = 0; j < half; ++j) {
    const std::uint32_t u = a[j];
    const std::uint32_t v = a[j + half];
    a[j] = mul_shoup_lazy(u + v, psi_inv_brv_[0], psi_inv_brv_shoup_[0], q);
    a[j + half] = mul_shoup_lazy(u - v + twoq, psi_inv_brv_[1],
                                 psi_inv_brv_shoup_[1], q);
  }
  if (probe && *probe) (*probe)(a);
}

void WordNttEngine::pointwise_lazy(std::span<std::uint32_t> a,
                                   std::span<const std::uint32_t> b) const {
  assert(a.size() == params_.n && b.size() == params_.n);
  const std::uint32_t q = params_.q;
  // Barrett with mu = floor(2^64 / q): the remainder lands in [0, 2q).
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t prod =
        static_cast<std::uint64_t>(a[i]) * static_cast<std::uint64_t>(b[i]);
    a[i] = static_cast<std::uint32_t>(
        reduce_barrett_lazy(prod, q, barrett_mu_));
  }
}

void WordNttEngine::normalize(std::span<std::uint32_t> a) const noexcept {
  const std::uint32_t q = params_.q;
  for (auto& x : a) {
    if (x >= q) x -= q;
  }
}

std::vector<std::uint32_t> WordNttEngine::negacyclic_multiply(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) const {
  const std::uint32_t n = params_.n;
  if (a.size() != n || b.size() != n) {
    throw std::invalid_argument("operand size does not match the degree");
  }
  std::vector<std::uint32_t> abar(a.begin(), a.end());
  std::vector<std::uint32_t> bbar(b.begin(), b.end());
  forward_lazy(abar);
  forward_lazy(bbar);
  pointwise_lazy(abar, bbar);
  inverse_lazy(abar);
  normalize(abar);
  return abar;
}

}  // namespace cryptopim::ntt
