#include "runtime/backend.h"

#include <utility>

#include "model/performance.h"
#include "ntt/word_ntt.h"
#include "sim/simulator.h"

namespace cryptopim::runtime {

BackendResult analytic_accounting(std::uint32_t degree) {
  // Cached per degree: the analytic evaluation walks the pipeline spec.
  thread_local std::vector<std::pair<std::uint32_t, std::uint64_t>> cache;
  for (const auto& [d, cycles] : cache) {
    if (d == degree) return BackendResult{{}, cycles};
  }
  const model::PipelinePerf perf = model::cryptopim_non_pipelined(degree);
  const std::uint64_t cycles =
      perf.total_compute_cycles + perf.total_transfer_cycles;
  cache.emplace_back(degree, cycles);
  return BackendResult{{}, cycles};
}

// -- gate tier ----------------------------------------------------------------

struct GateLevelBackend::Entry {
  ntt::NttParams params;
  sim::CryptoPimSimulator simulator;
  explicit Entry(const ntt::NttParams& p) : params(p), simulator(p) {}
};

GateLevelBackend::GateLevelBackend() = default;
GateLevelBackend::~GateLevelBackend() = default;

GateLevelBackend::Entry& GateLevelBackend::entry_for(
    const ntt::NttParams& params) {
  for (auto& e : cache_) {
    if (e->params.n == params.n && e->params.q == params.q) return *e;
  }
  cache_.push_back(std::make_unique<Entry>(params));
  return *cache_.back();
}

BackendResult GateLevelBackend::execute(const ntt::NttParams& params,
                                        const ntt::Poly& a,
                                        const ntt::Poly& b) {
  Entry& e = entry_for(params);
  BackendResult r;
  r.product = e.simulator.multiply(a, b);
  r.sim_cycles = e.simulator.report().wall_cycles;
  return r;
}

// -- word tier ----------------------------------------------------------------

struct WordLevelBackend::Entry {
  ntt::NttParams params;
  ntt::WordNttEngine engine;
  explicit Entry(const ntt::NttParams& p) : params(p), engine(p) {}
};

WordLevelBackend::WordLevelBackend() = default;
WordLevelBackend::~WordLevelBackend() = default;

BackendResult WordLevelBackend::execute(const ntt::NttParams& params,
                                        const ntt::Poly& a,
                                        const ntt::Poly& b) {
  Entry* entry = nullptr;
  for (auto& e : cache_) {
    if (e->params.n == params.n && e->params.q == params.q) {
      entry = e.get();
      break;
    }
  }
  if (!entry) {
    cache_.push_back(std::make_unique<Entry>(params));
    entry = cache_.back().get();
  }
  BackendResult r = analytic_accounting(params.n);
  r.product = entry->engine.negacyclic_multiply(a, b);
  return r;
}

// -- factory ------------------------------------------------------------------

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> names = {"gate", "word"};
  return names;
}

std::unique_ptr<ExecutionBackend> make_backend(std::string_view name) {
  if (name == "gate") return std::make_unique<GateLevelBackend>();
  if (name == "word") return std::make_unique<WordLevelBackend>();
  return nullptr;
}

}  // namespace cryptopim::runtime
