// SLO accounting for the serving runtime: availability and latency
// objectives with per-window error-budget burn.
//
// The vocabulary is the standard SRE one. An objective like 99.9%
// availability grants an *error budget* of 0.1% of all requests; every
// terminal outcome is either good (completed) or bad (rejected, shed,
// timed out, failed), and the accounting reports what fraction of the
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
// The accounting is a view of obs::WindowedSeries: good is `completed`,
// bad is `rejected + shed + timed_out + failed` (kGoodOutcomes and
// kBadOutcomes in obs/timeseries.h), and the runtime counts
// `latency_violations` (SloConfig::latency_violated). The SLO windows
// are the series' live windows that hold an outcome, so kCapacity
// bounds them. The summary's totals read the series' running totals and
// its worst-window burn also reads the series' worst evicted window, so
// both stay exact after eviction. Deterministic: pure arithmetic on the
// event clock.
#pragma once

#include <cstdint>

#include "obs/json.h"
#include "obs/timeseries.h"

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

  /// True when a completion taking `latency_cycles` misses the latency
  /// objective, which is on whenever `latency_us` > 0: its latency
  /// exceeds the threshold truncated to whole cycles (0 cycles for a
  /// threshold shorter than one cycle).
  bool latency_violated(std::uint64_t latency_cycles,
                        double cycles_per_us) const noexcept {
    return latency_us > 0.0 &&
           latency_cycles >
               static_cast<std::uint64_t>(latency_us * cycles_per_us);
  }
};

/// A run's accounting against its objectives.
struct SloSummary {
  std::uint64_t total = 0;   ///< terminal outcomes
  std::uint64_t errors = 0;  ///< the bad ones
  std::uint64_t latency_violations = 0;
  /// Achieved availability in [0, 1]; 1 when nothing terminated.
  double availability = 1.0;
  /// Fraction of the availability error budget consumed (1.0 = spent
  /// exactly, > 1 = objective violated). 0 when the objective is off.
  double error_budget_consumed = 0.0;
  /// Same for the latency budget (violations / allowed violations).
  double latency_budget_consumed = 0.0;
  /// Highest availability burn rate across the windows, evicted ones
  /// included.
  double max_window_burn = 0.0;
};

/// The accounting of `series` against `cfg`.
SloSummary slo_summary(const SloConfig& cfg, const WindowedSeries& series);

/// {"schema":"slo/1", objectives, "window_cycles", "summary":{...},
///  "windows":[{"start","total","errors","burn","latency_violations",
///              "latency_burn"}]}
Json slo_to_json(const SloConfig& cfg, const WindowedSeries& series);

}  // namespace cryptopim::obs
