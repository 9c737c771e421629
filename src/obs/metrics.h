// Distribution summaries for the simulation stack's reports.
//
// obs::Histogram is the one distribution type: the serving runtime's
// latency, queue-depth and per-op-class ledgers, the windowed series and
// the fleet's hedge timing all keep one. Scalar counts live as plain
// fields of the ledger that owns them (sim::SimReport, pim::ExecStats,
// reliability::RelStats, runtime::ServingReport).
#pragma once

#include <cstdint>

namespace cryptopim::obs {

/// Distribution summary: count/sum/min/max plus power-of-two buckets
/// (bucket i counts samples in [2^(i-1), 2^i); bucket 0 counts zeros).
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;

  void add(std::uint64_t v) noexcept;
  /// Fold another histogram into this one (bucket-wise sum; min/max/sum
  /// combine exactly). Used by the windowed-series ring when old windows
  /// are evicted into the cumulative aggregate.
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }
  std::uint64_t bucket(unsigned i) const { return buckets_[i]; }

  /// Approximate p-quantile from the pow2 buckets: the upper edge of the
  /// bucket holding the p-th sample, clamped to [min, max] (so exact at
  /// the extremes). p <= 0 returns min, p >= 1 returns max, empty
  /// histogram returns 0. Good to a factor of two — the resolution the
  /// serving runtime's p50/p99/p999 latency reporting needs.
  std::uint64_t quantile(double p) const noexcept;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

}  // namespace cryptopim::obs
