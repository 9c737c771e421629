// Functional content of the protocol DAGs: the actual KEM / BGV /
// threshold math, executed with every ring multiplication routed through
// an ExecutionBackend and checked against the pure-host references
// (crypto::KemScheme, he::BgvContext).
//
// The serving runtime models a protocol request as cycle-accounted ops
// (runtime/protocol.h); when a request carries `verify`, its host-side
// join runs the whole flow here — so a protocol serving run ends with
// actually-verified protocol results, mirroring what Freivalds sampling
// does for raw polymuls.
#pragma once

#include <cstdint>

#include "ntt/poly.h"
#include "ntt/rns.h"
#include "runtime/backend.h"
#include "runtime/protocol.h"

namespace cryptopim::runtime {

/// The RNS basis the BGV multiply fans out over (kRnsLimbs primes at
/// degree kBgvDegree); shared by the harness and the KAT tests.
const ntt::RnsBasis& bgv_rns_basis();

/// Negacyclic product mod q computed limb-by-limb: reduce both operands
/// into the basis, execute one backend multiplication per prime, CRT
/// reconstruct, centre and reduce back mod q. Exact whenever the basis
/// modulus exceeds 2*n*q^2 (bgv_rns_basis() covers the BGV ring with
/// ~12 bits of slack).
ntt::Poly rns_limb_multiply(ExecutionBackend& backend,
                            const ntt::RnsBasis& basis, std::uint32_t q,
                            const ntt::Poly& a, const ntt::Poly& b);

/// Runs a protocol flow end to end through a backend and compares
/// against the pure-host reference.
class ProtocolHarness {
 public:
  /// `backend` is not owned, must outlive the harness, and must not be
  /// null (throws std::invalid_argument otherwise).
  ProtocolHarness(const ProtocolSpec& spec, ExecutionBackend* backend);

  /// Execute the full protocol for `seed` with all ring multiplications
  /// on the backend; true iff the outcome matches the host reference
  /// bit for bit.
  bool verify(std::uint64_t seed);

 private:
  bool verify_kem(std::uint64_t seed);
  bool verify_bgv(std::uint64_t seed);
  bool verify_threshold(std::uint64_t seed);

  ProtocolSpec spec_;
  ExecutionBackend* backend_;
};

}  // namespace cryptopim::runtime
