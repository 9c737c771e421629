#include "obs/metrics.h"

#include <bit>
#include <cmath>

namespace cryptopim::obs {

void Histogram::add(std::uint64_t v) noexcept {
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  count_ += 1;
  sum_ += v;
  // bucket 0: v == 0; bucket i >= 1: 2^(i-1) <= v < 2^i.
  buckets_[v == 0 ? 0 : std::bit_width(v)] += 1;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  for (unsigned i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

std::uint64_t Histogram::quantile(double p) const noexcept {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 1.0) return max_;
  // Rank of the target sample, 1-based: ceil(p * count), at least 1.
  const auto target =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t seen = 0;
  for (unsigned i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Bucket 0 holds zeros; bucket i holds [2^(i-1), 2^i).
      std::uint64_t upper =
          i == 0 ? 0
                 : (i >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << i) - 1);
      if (upper > max_) upper = max_;
      if (upper < min()) upper = min();
      return upper;
    }
  }
  return max_;
}

}  // namespace cryptopim::obs
