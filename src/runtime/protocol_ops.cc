#include "runtime/protocol_ops.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/kem.h"
#include "he/bgv.h"
#include "ntt/params.h"

namespace cryptopim::runtime {

namespace {

crypto::Seed derive_seed(Xoshiro256& rng) {
  crypto::Seed s{};
  for (std::size_t i = 0; i < s.size(); i += 8) {
    const std::uint64_t w = rng.next();
    for (std::size_t b = 0; b < 8; ++b) {
      s[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return s;
}

ntt::Poly random_plaintext(std::uint32_t n, std::uint32_t t, Xoshiro256& rng) {
  ntt::Poly m(n);
  for (auto& c : m) c = static_cast<std::uint32_t>(rng.next_below(t));
  return m;
}

// Plaintext-space reference: the negacyclic integer product of two
// coefficient-small polynomials, reduced mod t. (|coeff| <= n*(t-1)^2
// << q/2, so the centered mod-q representative is the exact integer
// product.)
ntt::Poly plain_product(const ntt::Poly& a, const ntt::Poly& b,
                        std::uint32_t q, std::uint32_t t) {
  const ntt::Poly wide = ntt::schoolbook_negacyclic(a, b, q);
  ntt::Poly out(wide.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const std::int64_t c = ntt::centered(wide[i], q);
    out[i] = static_cast<std::uint32_t>(((c % t) + t) % t);
  }
  return out;
}

}  // namespace

const ntt::RnsBasis& bgv_rns_basis() {
  // Q ~= 2^60 comfortably exceeds 2*n*q^2 ~= 2^48.2 for the paper-small
  // BGV ring (n = 256, q = 786433).
  static const ntt::RnsBasis basis =
      ntt::RnsBasis::generate(kBgvDegree, kRnsLimbs, 20);
  return basis;
}

ntt::Poly rns_limb_multiply(ExecutionBackend& backend,
                            const ntt::RnsBasis& basis, std::uint32_t q,
                            const ntt::Poly& a, const ntt::Poly& b) {
  const std::uint32_t n = basis.degree();
  if (a.size() != n || b.size() != n) {
    throw std::invalid_argument("operand degree does not match the basis");
  }
  ntt::RnsPoly prod;
  prod.residues.reserve(basis.size());
  for (std::size_t l = 0; l < basis.size(); ++l) {
    const ntt::NttParams& lp = basis.params(l);
    ntt::Poly ra(n), rb(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ra[i] = a[i] % lp.q;
      rb[i] = b[i] % lp.q;
    }
    prod.residues.push_back(backend.execute(lp, ra, rb).product);
  }
  const std::vector<ntt::U128> wide = basis.reconstruct(prod);
  const ntt::U128 big_q = basis.modulus();
  ntt::Poly out(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // The integer negacyclic product has |coeff| < n*q^2 << Q/2, so the
    // centred CRT representative is exact; fold it into [0, q).
    const ntt::U128 v = wide[i];
    if (v > big_q / 2) {
      const auto neg = static_cast<std::uint32_t>((big_q - v) % q);
      out[i] = neg == 0 ? 0 : q - neg;
    } else {
      out[i] = static_cast<std::uint32_t>(v % q);
    }
  }
  return out;
}

ProtocolHarness::ProtocolHarness(const ProtocolSpec& spec,
                                 ExecutionBackend* backend)
    : spec_(spec), backend_(backend) {
  if (backend_ == nullptr) {
    throw std::invalid_argument("protocol harness needs an execution backend");
  }
}

bool ProtocolHarness::verify(std::uint64_t seed) {
  switch (spec_.kind) {
    case ProtocolKind::kKem: return verify_kem(seed);
    case ProtocolKind::kBgvMul: return verify_bgv(seed);
    case ProtocolKind::kThreshold: return verify_threshold(seed);
    case ProtocolKind::kNone: break;
  }
  return true;
}

bool ProtocolHarness::verify_kem(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const crypto::Seed key_seed = derive_seed(rng);
  const crypto::Seed entropy = derive_seed(rng);

  // Pure-host reference round-trip (engine multiplier, const path).
  const crypto::KemScheme host;
  const auto [hpk, hsk] = host.keygen(key_seed);
  const auto [hct, hkey] = host.encapsulate(hpk, entropy);
  const crypto::SharedKey hkey_dec = host.decapsulate(hsk, hct);

  // Accelerated round-trip: every ring multiplication on the backend.
  crypto::KemScheme accel;
  const crypto::PkeParams& pp = host.pke().params();
  const ntt::NttParams ring = ntt::NttParams::make(pp.n, pp.q);
  ExecutionBackend* be = backend_;
  accel.pke().set_multiplier(
      [be, ring](const ntt::Poly& a, const ntt::Poly& b) {
        return be->execute(ring, a, b).product;
      });
  const auto [pk, sk] = accel.keygen(key_seed);
  const auto [ct, key_enc] = accel.encapsulate(pk, entropy);
  const crypto::SharedKey key_dec = accel.decapsulate(sk, ct);

  return key_enc == key_dec && key_enc == hkey && key_dec == hkey_dec &&
         ct.u == hct.u && ct.v == hct.v;
}

bool ProtocolHarness::verify_bgv(std::uint64_t seed) {
  const he::BgvParams params = he::BgvParams::paper_small();
  Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);  // plaintexts, own stream
  const ntt::Poly ma = random_plaintext(params.n, params.t, rng);
  const ntt::Poly mb = random_plaintext(params.n, params.t, rng);

  he::BgvContext accel(params, seed);
  accel.keygen();
  const he::Ciphertext ca = accel.encrypt(ma);
  const he::Ciphertext cb = accel.encrypt(mb);
  // From here on every ring multiplication fans out across the RNS limbs
  // and executes per limb on the backend — the shape the serving DAG
  // schedules onto distinct lanes.
  const ntt::RnsBasis& basis = bgv_rns_basis();
  ExecutionBackend* be = backend_;
  const std::uint32_t q = params.q;
  accel.set_multiplier([be, &basis, q](const ntt::Poly& a,
                                       const ntt::Poly& b) {
    return rns_limb_multiply(*be, basis, q, a, b);
  });
  const he::Ciphertext2 prod = accel.multiply(ca, cb);

  // Bit-exact reference: an identical context (same seed, hence the same
  // key and encryption randomness) multiplying on the host engine.
  he::BgvContext hostctx(params, seed);
  hostctx.keygen();
  // Sequenced explicitly: encrypt draws from the context RNG, and the
  // accel path encrypted ma first.
  const he::Ciphertext hca = hostctx.encrypt(ma);
  const he::Ciphertext hcb = hostctx.encrypt(mb);
  const he::Ciphertext2 hprod = hostctx.multiply(hca, hcb);
  if (prod.d0 != hprod.d0 || prod.d1 != hprod.d1 || prod.d2 != hprod.d2) {
    return false;
  }
  // Functional check: the tensor ciphertext decrypts to the plaintext
  // product.
  return accel.decrypt(prod) == plain_product(ma, mb, params.q, params.t);
}

bool ProtocolHarness::verify_threshold(std::uint64_t seed) {
  const he::BgvParams params = he::BgvParams::paper_small();
  Xoshiro256 rng(seed ^ 0x7468726573686f6cULL);  // plaintext, own stream
  const ntt::Poly m = random_plaintext(params.n, params.t, rng);

  he::BgvContext ctx(params, seed);
  const std::vector<ntt::Poly> shares = ctx.keygen_threshold(spec_.shares);
  const he::Ciphertext ct = ctx.encrypt(m);

  // Each share holder's partial decryption runs on the backend.
  const ntt::NttParams ring = ctx.ring();
  ExecutionBackend* be = backend_;
  ctx.set_multiplier([be, ring](const ntt::Poly& a, const ntt::Poly& b) {
    return be->execute(ring, a, b).product;
  });
  std::vector<ntt::Poly> partials;
  partials.reserve(shares.size());
  for (const ntt::Poly& s : shares) {
    partials.push_back(ctx.partial_decryption(ct, s));
  }
  const ntt::Poly joined = ctx.aggregate_decrypt(ct, partials);

  // Host references: direct joint-secret decryption and the plaintext.
  return joined == m && ctx.decrypt(ct) == m;
}

}  // namespace cryptopim::runtime
