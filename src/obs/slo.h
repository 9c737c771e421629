// SLO accounting for the serving runtime: availability and latency
// objectives with per-window error-budget burn.
//
// The vocabulary is the standard SRE one. An objective like 99.9%
// availability grants an *error budget* of 0.1% of all requests; every
// terminal outcome is either good (completed) or bad (rejected, shed,
// timed out, failed), and the accountant tracks what fraction of the
// budget the run consumed. The *burn rate* of a window is the ratio of
// its observed error rate to the allowed error rate — burn 1.0 means
// "spending the budget exactly as fast as the objective allows",
// burn 10 means a tenth of the budget went up in that window alone.
//
// The latency objective is a threshold objective: `latency_us` is the
// target completion latency, and a fixed 99% of completions
// (SloConfig::kLatencyObjective) must meet it ("99% of requests under
// 2 ms").
// Latency violations burn the latency budget the same way errors burn
// the availability budget; a completion past the threshold is still
// *available*, just slow.
//
// Windows share the cycle axis (and width) with obs::WindowedSeries so
// the SLO series lines up 1:1 with the throughput/latency series in the
// same report. Deterministic: pure arithmetic on the event clock.
#pragma once

#include <cstdint>
#include <deque>

#include "obs/json.h"

namespace cryptopim::obs {

struct SloConfig {
  /// Availability objective as a fraction (e.g. 0.999); 0 = off.
  double availability = 0.0;
  /// Latency threshold in us; 0 = latency objective off.
  double latency_us = 0.0;
  /// Fraction of completions that must meet the threshold.
  static constexpr double kLatencyObjective = 0.99;

  bool enabled() const noexcept {
    return availability > 0.0 || latency_us > 0.0;
  }
};

/// Consumes terminal request outcomes and produces per-window and
/// cumulative error-budget accounting.
class SloAccountant {
 public:
  SloAccountant() = default;
  SloAccountant(SloConfig cfg, std::uint64_t window_cycles,
                double cycles_per_us);

  bool enabled() const noexcept { return cfg_.enabled(); }
  const SloConfig& config() const noexcept { return cfg_; }

  /// A request completed at `cycle` with the given end-to-end latency.
  void record_good(std::uint64_t cycle, std::uint64_t latency_cycles);
  /// A request terminated without a result (rejected / shed / timed out
  /// / failed) at `cycle`.
  void record_bad(std::uint64_t cycle);

  // -- cumulative --------------------------------------------------------------
  std::uint64_t total() const noexcept { return good_ + bad_; }
  std::uint64_t errors() const noexcept { return bad_; }
  std::uint64_t latency_violations() const noexcept { return lat_viol_; }
  /// Achieved availability in [0, 1]; 1 when nothing terminated yet.
  double availability() const noexcept;
  /// Fraction of the availability error budget consumed (1.0 = spent
  /// exactly, > 1 = objective violated). 0 when the objective is off.
  double error_budget_consumed() const noexcept;
  /// Same for the latency budget (violations / allowed violations).
  double latency_budget_consumed() const noexcept;
  /// Highest per-window availability burn rate across all windows.
  double max_window_burn() const noexcept;

  /// {"schema":"slo/1", objectives, "summary":{...}, "windows":[
  ///   {"start","total","errors","burn","latency_violations",
  ///    "latency_burn"}]}
  Json to_json() const;

 private:
  struct Window {
    std::uint64_t index = 0;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    std::uint64_t lat_viol = 0;
  };
  Window& window_for(std::uint64_t cycle);

  SloConfig cfg_;
  std::uint64_t window_cycles_ = 1;
  std::uint64_t latency_cycles_limit_ = 0;  ///< threshold in cycles
  std::deque<Window> windows_;
  std::uint64_t good_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t lat_viol_ = 0;
};

}  // namespace cryptopim::obs
