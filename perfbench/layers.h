// Building blocks of the repository benchmark (perfbench/pimbench.cc):
// the step classifier, exact latency quantiles and the in-memory span log.
//
// Everything here observes the serving stack from outside, through its
// public API, so the benchmark never needs hooks inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/serving.h"

namespace perfbench {

// -- step classifier ------------------------------------------------------------

/// What one ServingRuntime::step() did, judged by which live() counter it
/// moved: an arrival (a request or protocol request submitted), a
/// completion, a checked completion (a Freivalds verification or a
/// protocol join ran), or other work (queue scans, timeouts, retries).
enum class StepClass : std::uint8_t { kArrival, kCompletion, kChecked, kOther };
inline constexpr std::size_t kStepClasses = 4;

const char* step_class_name(StepClass c) noexcept;

/// The live() counters the classifier compares before and after a step.
struct StepCounters {
  std::uint64_t submitted = 0;  ///< raw submissions (ops) + protocol requests
  std::uint64_t completed = 0;  ///< completed requests (protocol ops)
  std::uint64_t checked = 0;    ///< verified + verify failures + joins
};

StepCounters step_counters(const cryptopim::runtime::ServingReport& live) noexcept;

/// The most specific counter that moved wins: checked, then completion,
/// then arrival; a step that moved none of them is kOther.
StepClass classify_step(const StepCounters& before,
                        const StepCounters& after) noexcept;

// -- exact quantiles ------------------------------------------------------------

/// Nearest-rank p-quantile of ascending `sorted` samples: the sample of
/// 1-based rank ceil(p * n), at least 1 — the rank obs::Histogram::quantile
/// targets, without its pow2 bucketing. 0 for no samples.
std::uint64_t exact_quantile(const std::vector<std::uint64_t>& sorted,
                             double p) noexcept;

/// Samples ranked above the p-quantile's rank: n - ceil(p * n). A
/// quantile is reportable when at least ten samples lie beyond it.
std::uint64_t samples_beyond(std::size_t n, double p) noexcept;

/// Index of the obs::Histogram bucket holding `v`: 0 for zero, else the
/// bit width (bucket i holds [2^(i-1), 2^i)).
unsigned pow2_bucket(std::uint64_t v) noexcept;

// -- spans ---------------------------------------------------------------------

/// Host-clock spans, kept in memory and written out once the pass ends.
/// `name` must be a string literal; `arg` carries a degree or step class.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t arg = 0;
    std::int32_t parent = -1;  ///< index of the causing span, -1 = none
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  /// Appends a span; returns its index (for children's `parent`).
  std::int32_t add(const char* name, std::uint32_t arg, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations of every span with this name (and arg, unless `any_arg`).
  std::vector<std::int64_t> durations(const char* name, std::uint32_t arg,
                                      bool any_arg = false) const;
  std::int64_t total_ns(const char* name, std::uint32_t arg,
                        bool any_arg = false) const;

  /// Chrome trace-event JSON ("X" events on one track, args carry arg and
  /// parent). Throws std::runtime_error on I/O error.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Exact quantile of span durations (sorted copy), in ns.
std::int64_t duration_quantile(std::vector<std::int64_t> d, double p);

}  // namespace perfbench
