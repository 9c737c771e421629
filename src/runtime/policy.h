// Scheduling policies for the serving runtime.
//
// A policy is an ordering of the admission queue: every time a superbank
// lane can accept work, the runtime serves the eligible request that
// runs before every other eligible one. All queue and fairness state
// lives in the runtime, which finds that request in the same scan that
// tests eligibility (ServingRuntime::try_dispatch).
//
//   fifo  arrival order (baseline; head-of-line blocking under mixes)
//   sjf   shortest service time first (best mean latency, can starve
//         large degrees)
//   edf   earliest deadline first; requests without a deadline rank
//         after all deadlined ones, in arrival order
//   wfq   fair queueing over tenants: pick the request of the eligible
//         tenant with the lowest bank-cycle usage (max-min fairness in
//         bank-time)
//
// Every comparison falls back to (arrival, id) so the ranking is a
// total order and runs are reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/request.h"

namespace cryptopim::runtime {

enum class Policy { kFifo, kSjf, kEdf, kWfq };

/// "fifo", "sjf", "edf" or "wfq"; nullopt for unknown names (the CLI
/// turns that into a usage error).
std::optional<Policy> parse_policy(std::string_view name);

/// The recognised policy names, for --help and benches.
const std::vector<std::string>& policy_names();

/// True when `policy` serves `a` before `b`. `tenant_usage` is each
/// tenant's consumed bank-cycles (read by wfq).
inline bool runs_before(Policy policy, const Request& a, const Request& b,
                        std::span<const double> tenant_usage) noexcept {
  switch (policy) {
    case Policy::kFifo:
      break;
    case Policy::kSjf:
      if (a.service_cycles != b.service_cycles) {
        return a.service_cycles < b.service_cycles;
      }
      break;
    case Policy::kEdf: {
      // deadline 0 = none: sorts after every real deadline.
      constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
      const std::uint64_t da = a.deadline_cycle ? a.deadline_cycle : kNone;
      const std::uint64_t db = b.deadline_cycle ? b.deadline_cycle : kNone;
      if (da != db) return da < db;
      break;
    }
    case Policy::kWfq: {
      const auto usage = [tenant_usage](const Request& r) {
        return r.tenant < tenant_usage.size() ? tenant_usage[r.tenant] : 0.0;
      };
      const double ua = usage(a), ub = usage(b);
      if (ua != ub) return ua < ub;
      break;
    }
  }
  // Stable final tie-break: older request first, then lower id.
  if (a.arrival_cycle != b.arrival_cycle) {
    return a.arrival_cycle < b.arrival_cycle;
  }
  return a.id < b.id;
}

}  // namespace cryptopim::runtime
