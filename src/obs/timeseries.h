// Windowed time-series aggregation for the serving runtime.
//
// Cumulative counters hide dynamics: a run that sheds hard for 2 ms and
// then recovers reports the same totals as one that degraded uniformly.
// WindowedSeries splits the cycle axis into fixed-width windows and
// keeps, per window, the runtime's fixed set of counters (SeriesCounter)
// and pow2 histograms (SeriesHistogram) — enough to reconstruct rolling
// throughput/latency/shed-rate series from one run.
//
// Every sample is keyed on the runtime's monotonic event clock, so
// windows are only ever appended. Windows that received no samples are
// not materialised (sparse); `window_start` tells consumers where each
// live window sits on the cycle axis. Once kCapacity windows are live,
// opening a new one drops the oldest and counts it in
// `evicted_windows()`: eviction loses the far past, and the report's
// cumulative counters stay the run's totals.
//
// Everything is deterministic and value-semantic: same event sequence,
// same JSON bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "obs/json.h"
#include "obs/metrics.h"

namespace cryptopim::obs {

/// The series' counters, declared in the (alphabetical) order to_json
/// writes them.
enum class SeriesCounter : std::uint8_t {
  kAdmitted,
  kBankFailures,
  kCompleted,
  kDispatched,
  kFailed,
  kHedges,
  kRejected,
  kRepartitions,
  kRetries,
  kShed,
  kSubmitted,
  kTimedOut,
};
inline constexpr std::size_t kSeriesCounters =
    static_cast<std::size_t>(SeriesCounter::kTimedOut) + 1;

/// The series' histograms, declared in the order to_json writes them.
enum class SeriesHistogram : std::uint8_t {
  kLatencyCycles,
  kQueueDepth,
  kQueueWaitCycles,
};
inline constexpr std::size_t kSeriesHistograms =
    static_cast<std::size_t>(SeriesHistogram::kQueueWaitCycles) + 1;

/// Ring of fixed-width cycle windows holding the fixed counters +
/// histograms.
class WindowedSeries {
 public:
  /// Most live windows; opening one more drops the oldest.
  static constexpr std::size_t kCapacity = 4096;

  /// Disabled: count/observe are no-ops, to_json emits window_cycles 0.
  WindowedSeries() = default;
  /// `window_cycles` must be > 0.
  explicit WindowedSeries(std::uint64_t window_cycles);

  bool enabled() const noexcept { return window_cycles_ > 0; }
  std::uint64_t window_cycles() const noexcept { return window_cycles_; }

  /// Add `delta` to counter `c` in the window containing `cycle`, which
  /// is at or after every cycle recorded before.
  void count(SeriesCounter c, std::uint64_t cycle, std::uint64_t delta = 1);
  /// Record one sample of histogram `h` in the window containing `cycle`
  /// (same ordering rule as count).
  void observe(SeriesHistogram h, std::uint64_t cycle, std::uint64_t value);

  // -- window access (live windows, oldest first) -----------------------------
  std::size_t window_count() const noexcept { return windows_.size(); }
  std::uint64_t window_start(std::size_t w) const;
  std::uint64_t counter_at(std::size_t w, SeriesCounter c) const;
  /// Empty (count 0) when the window observed no such sample.
  const Histogram& histogram_at(std::size_t w, SeriesHistogram h) const;
  /// Windows dropped past kCapacity.
  std::uint64_t evicted_windows() const noexcept { return evicted_; }

  /// {"schema":"timeseries/1","window_cycles":W,"evicted_windows":n,
  ///  "windows":[{"start":c,"counters":{...},
  ///              "histograms":{name:{count,sum,min,max,mean,p50,p99}}}]}
  /// A window lists only its nonzero counters, and carries "histograms"
  /// only when it observed a sample. Histograms serialize as summaries
  /// (incl. exact min/max, so the quantiles stay clamped to observed
  /// values after a round trip through JSON).
  Json to_json() const;

 private:
  struct Window {
    std::uint64_t index = 0;  ///< cycle / window_cycles
    std::array<std::uint64_t, kSeriesCounters> counters{};
    std::array<Histogram, kSeriesHistograms> hists{};
  };

  /// The live window for `cycle`, appending (and evicting) as needed.
  Window& window_for(std::uint64_t cycle);

  std::uint64_t window_cycles_ = 0;
  std::deque<Window> windows_;
  std::uint64_t evicted_ = 0;
};

}  // namespace cryptopim::obs
