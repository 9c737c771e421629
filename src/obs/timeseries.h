// Windowed time-series aggregation for the serving runtime.
//
// Cumulative counters hide dynamics: a run that sheds hard for 2 ms and
// then recovers reports the same totals as one that degraded uniformly.
// WindowedSeries splits the cycle axis into fixed-width windows and
// keeps, per window, named counters and pow2 histograms — enough to
// reconstruct rolling throughput/latency/shed-rate series from one run.
//
// The store is a ring: windows are created on demand as the (monotonic)
// event clock advances, and once more than kCapacity windows are live
// the oldest are folded into a cumulative "evicted" aggregate. Folding
// preserves the totals invariant the tests pin:
//
//   Σ (per-window counts) + folded counts == cumulative counter
//
// so eviction can never silently lose events — it only loses time
// resolution at the far-past end. Windows that received no events are
// not materialised (sparse); `window_start` tells consumers where each
// live window sits on the cycle axis.
//
// Everything is deterministic and value-semantic: same event sequence,
// same JSON bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"

namespace cryptopim::obs {

/// Ring of fixed-width cycle windows holding named counters + histograms.
class WindowedSeries {
 public:
  /// Most live windows; older ones fold into the evicted aggregate.
  static constexpr std::size_t kCapacity = 4096;

  /// Disabled: count/observe are no-ops, to_json emits window_cycles 0.
  WindowedSeries() = default;
  /// `window_cycles` must be > 0.
  explicit WindowedSeries(std::uint64_t window_cycles);

  bool enabled() const noexcept { return window_cycles_ > 0; }
  std::uint64_t window_cycles() const noexcept { return window_cycles_; }

  /// Add `delta` to counter `name` in the window containing `cycle`.
  void count(const std::string& name, std::uint64_t cycle,
             std::uint64_t delta = 1);
  /// Record one histogram sample in the window containing `cycle`.
  void observe(const std::string& name, std::uint64_t cycle,
               std::uint64_t value);

  // -- window access (live windows, oldest first) -----------------------------
  std::size_t window_count() const noexcept { return windows_.size(); }
  std::uint64_t window_start(std::size_t w) const;
  /// 0 when the window has no such counter.
  std::uint64_t counter_at(std::size_t w, const std::string& name) const;
  /// nullptr when the window has no such histogram.
  const Histogram* histogram_at(std::size_t w, const std::string& name) const;

  // -- totals (live + folded): the Σ-window == cumulative invariant -----------
  std::uint64_t evicted_windows() const noexcept { return evicted_; }
  std::uint64_t total_count(const std::string& name) const;
  std::uint64_t total_observations(const std::string& name) const;

  /// {"schema":"timeseries/1","window_cycles":W,"evicted_windows":n,
  ///  "windows":[{"start":c,"counters":{...},
  ///              "histograms":{name:{count,sum,min,max,mean,p50,p99}}}]}
  /// Histograms serialize as summaries (incl. exact min/max, so the
  /// quantiles stay clamped to observed values after a round trip
  /// through JSON).
  Json to_json() const;

 private:
  struct Window {
    std::uint64_t index = 0;  ///< cycle / window_cycles
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Histogram> hists;
  };

  /// The live window for `cycle`, appending (and evicting) as needed.
  Window& window_for(std::uint64_t cycle);
  void fold_oldest();

  std::uint64_t window_cycles_ = 0;
  std::deque<Window> windows_;
  std::uint64_t evicted_ = 0;
  std::map<std::string, std::uint64_t> folded_counters_;
  std::map<std::string, Histogram> folded_hists_;
};

}  // namespace cryptopim::obs
