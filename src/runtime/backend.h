// Pluggable execution backends: one interface, two tiers.
//
// Every way this repo can "execute" a negacyclic multiplication now sits
// behind `ExecutionBackend`, and every backend returns the product:
//
//  * GateLevelBackend — the golden tier. Wraps CryptoPimSimulator:
//    every arithmetic step runs in simulated crossbars and cycle
//    accounting is measured. Slow (~ms per multiply) but authoritative.
//    Fault injection belongs to the simulator it wraps
//    (CryptoPimSimulator::set_reliability), not to this tier.
//  * WordLevelBackend — products at host speed from the flat-word
//    `ntt::WordNttEngine` (Shoup/Barrett precompute, lazy [0, 2q)
//    reduction), with cycles attached from the analytic model
//    (`analytic_accounting`). Bit-exact vs the gate tier — proven by
//    tests/test_backend_diff.cc — at ~10^4x the wall-clock rate.
//
// The serving runtime charges every request the model's cycles
// (`model::lane_timing`) whatever the backend, so a backend only
// produces the products verified requests check; a run that checks
// none (`serve --verify-every 0`) is accounting only. Accounting is
// keyed by degree through the paper's parameterisation; a custom (n, q)
// pair executes with the paper accounting for its degree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ntt/params.h"
#include "ntt/poly.h"

namespace cryptopim::runtime {

/// One executed multiplication: the product plus the backend's cycle
/// claim.
struct BackendResult {
  ntt::Poly product;
  std::uint64_t sim_cycles = 0;  ///< simulated crossbar cycles, one multiply
};

/// The analytic model's cycles for one non-pipelined multiplication at
/// `degree` (paper parameterisation), with an empty product: the
/// accounting WordLevelBackend attaches to its products.
BackendResult analytic_accounting(std::uint32_t degree);

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// c = a * b over Z_q[x]/(x^n + 1) for the given parameter set.
  /// Engines/simulators are cached per (n, q) inside the backend.
  virtual BackendResult execute(const ntt::NttParams& params,
                                const ntt::Poly& a, const ntt::Poly& b) = 0;
};

/// Golden tier: fault-free crossbar simulation, one cached simulator per
/// (n, q).
class GateLevelBackend final : public ExecutionBackend {
 public:
  GateLevelBackend();
  ~GateLevelBackend() override;

  BackendResult execute(const ntt::NttParams& params, const ntt::Poly& a,
                        const ntt::Poly& b) override;

 private:
  struct Entry;
  Entry& entry_for(const ntt::NttParams& params);
  std::vector<std::unique_ptr<Entry>> cache_;
};

/// Host-speed tier with analytic accounting.
class WordLevelBackend final : public ExecutionBackend {
 public:
  WordLevelBackend();
  ~WordLevelBackend() override;

  BackendResult execute(const ntt::NttParams& params, const ntt::Poly& a,
                        const ntt::Poly& b) override;

 private:
  struct Entry;
  std::vector<std::unique_ptr<Entry>> cache_;
};

/// The accepted `--backend` values: {"gate", "word"}.
const std::vector<std::string>& backend_names();

/// Factory; returns nullptr for an unknown name (callers turn that into
/// their own usage error).
std::unique_ptr<ExecutionBackend> make_backend(std::string_view name);

}  // namespace cryptopim::runtime
