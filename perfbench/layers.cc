#include "layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace perfbench {

const char* step_class_name(StepClass c) noexcept {
  switch (c) {
    case StepClass::kArrival: return "arrival";
    case StepClass::kCompletion: return "completion";
    case StepClass::kChecked: return "checked";
    case StepClass::kOther: return "other";
  }
  return "other";
}

StepCounters step_counters(
    const cryptopim::runtime::ServingReport& live) noexcept {
  StepCounters c;
  c.submitted = live.submitted + live.protocol.requests;
  c.completed = live.completed;
  c.checked = live.verified + live.verify_failures + live.protocol.joins;
  return c;
}

StepClass classify_step(const StepCounters& before,
                        const StepCounters& after) noexcept {
  if (after.checked != before.checked) return StepClass::kChecked;
  if (after.completed != before.completed) return StepClass::kCompletion;
  if (after.submitted != before.submitted) return StepClass::kArrival;
  return StepClass::kOther;
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) noexcept {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::uint64_t exact_quantile(const std::vector<std::uint64_t>& sorted,
                             double p) noexcept {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::uint64_t samples_beyond(std::size_t n, double p) noexcept {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

unsigned pow2_bucket(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v));
}

std::int32_t SpanLog::add(const char* name, std::uint32_t arg,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::int32_t parent) {
  spans_.push_back(Span{name, arg, parent, start_ns, end_ns - start_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> SpanLog::durations(const char* name,
                                             std::uint32_t arg,
                                             bool any_arg) const {
  std::vector<std::int64_t> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name && (any_arg || s.arg == arg)) {
      out.push_back(s.dur_ns);
    }
  }
  return out;
}

std::int64_t SpanLog::total_ns(const char* name, std::uint32_t arg,
                               bool any_arg) const {
  std::int64_t sum = 0;
  for (const std::int64_t d : durations(name, arg, any_arg)) sum += d;
  return sum;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Chrome trace timestamps are microseconds; keep ns precision.
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{\"arg\":" << s.arg << ",\"id\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::int64_t duration_quantile(std::vector<std::int64_t> d, double p) {
  if (d.empty()) return 0;
  std::sort(d.begin(), d.end());
  return d[nearest_rank(d.size(), p) - 1];
}

}  // namespace perfbench
