#include "ntt/poly.h"

#include <bit>
#include <cassert>

#include "ntt/modular.h"

namespace cryptopim::ntt {

Poly schoolbook_negacyclic(std::span<const std::uint32_t> a,
                           std::span<const std::uint32_t> b, std::uint32_t q) {
  const std::size_t n = a.size();
  assert(b.size() == n);
  Poly c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t prod = mul_mod(a[i], b[j], q);
      const std::size_t k = i + j;
      if (k < n) {
        c[k] = add_mod(c[k], prod, q);
      } else {
        c[k - n] = sub_mod(c[k - n], prod, q);  // x^n = -1
      }
    }
  }
  return c;
}

Poly poly_add(std::span<const std::uint32_t> a,
              std::span<const std::uint32_t> b, std::uint32_t q) {
  assert(a.size() == b.size());
  Poly c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = add_mod(a[i], b[i], q);
  return c;
}

Poly poly_sub(std::span<const std::uint32_t> a,
              std::span<const std::uint32_t> b, std::uint32_t q) {
  assert(a.size() == b.size());
  Poly c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = sub_mod(a[i], b[i], q);
  return c;
}

Poly sample_uniform(std::uint32_t n, std::uint32_t q, Xoshiro256& rng) {
  // n calls of rng.next_below(q): the same rejection limit, hoisted, and
  // the same v mod q, as a lazy Barrett reduction plus one subtract.
  const std::uint64_t limit = Xoshiro256::rejection_limit(q);
  const std::uint64_t mu = barrett_reciprocal(q);
  Poly p(n);
  for (auto& c : p) {
    std::uint64_t v = rng.next();
    while (v >= limit) v = rng.next();
    const std::uint64_t r = reduce_barrett_lazy(v, q, mu);
    c = static_cast<std::uint32_t>(r >= q ? r - q : r);
  }
  return p;
}

Poly sample_cbd(std::uint32_t n, std::uint32_t q, unsigned eta,
                Xoshiro256& rng) {
  assert(eta >= 1 && eta <= 16);
  Poly p(n);
  for (auto& c : p) {
    const std::uint64_t bits_a = rng.next_bits(eta);
    const std::uint64_t bits_b = rng.next_bits(eta);
    const int v = static_cast<int>(std::popcount(bits_a)) -
                  static_cast<int>(std::popcount(bits_b));
    c = v >= 0 ? static_cast<std::uint32_t>(v)
               : q - static_cast<std::uint32_t>(-v);
  }
  return p;
}

Poly sample_ternary(std::uint32_t n, std::uint32_t q, Xoshiro256& rng) {
  Poly p(n);
  for (auto& c : p) {
    switch (rng.next_below(3)) {
      case 0: c = 0; break;
      case 1: c = 1; break;
      default: c = q - 1; break;
    }
  }
  return p;
}

std::int64_t centered(std::uint32_t c, std::uint32_t q) {
  return c > q / 2 ? static_cast<std::int64_t>(c) - q
                   : static_cast<std::int64_t>(c);
}

}  // namespace cryptopim::ntt
