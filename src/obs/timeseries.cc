#include "obs/timeseries.h"

#include <cassert>

namespace cryptopim::obs {

namespace {

constexpr const char* kCounterNames[kSeriesCounters] = {
    "admitted", "bank_failures", "completed", "dispatched",
    "failed",   "hedges",        "rejected",  "repartitions",
    "retries",  "shed",          "submitted", "timed_out"};
constexpr const char* kHistogramNames[kSeriesHistograms] = {
    "latency_cycles", "queue_depth", "queue_wait_cycles"};

Json histogram_summary(const Histogram& h) {
  Json j = Json::object();
  j.set("count", h.count());
  j.set("sum", h.sum());
  j.set("min", h.min());
  j.set("max", h.max());
  j.set("mean", h.mean());
  j.set("p50", h.quantile(0.50));
  j.set("p99", h.quantile(0.99));
  return j;
}

}  // namespace

WindowedSeries::WindowedSeries(std::uint64_t window_cycles)
    : window_cycles_(window_cycles ? window_cycles : 1) {}

WindowedSeries::Window& WindowedSeries::window_for(std::uint64_t cycle) {
  const std::uint64_t idx = cycle / window_cycles_;
  if (!windows_.empty() && windows_.back().index == idx) {
    return windows_.back();
  }
  // The runtime keys every sample on its monotonic event clock.
  assert(windows_.empty() || idx > windows_.back().index);
  if (windows_.size() == kCapacity) {
    windows_.pop_front();
    evicted_ += 1;
  }
  windows_.push_back(Window{idx});
  return windows_.back();
}

void WindowedSeries::count(SeriesCounter c, std::uint64_t cycle,
                           std::uint64_t delta) {
  if (!enabled()) return;
  window_for(cycle).counters[static_cast<std::size_t>(c)] += delta;
}

void WindowedSeries::observe(SeriesHistogram h, std::uint64_t cycle,
                             std::uint64_t value) {
  if (!enabled()) return;
  window_for(cycle).hists[static_cast<std::size_t>(h)].add(value);
}

std::uint64_t WindowedSeries::window_start(std::size_t w) const {
  return windows_.at(w).index * window_cycles_;
}

std::uint64_t WindowedSeries::counter_at(std::size_t w,
                                         SeriesCounter c) const {
  return windows_.at(w).counters[static_cast<std::size_t>(c)];
}

const Histogram& WindowedSeries::histogram_at(std::size_t w,
                                              SeriesHistogram h) const {
  return windows_.at(w).hists[static_cast<std::size_t>(h)];
}

Json WindowedSeries::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "timeseries/1");
  doc.set("window_cycles", window_cycles_);
  doc.set("evicted_windows", evicted_);
  Json windows = Json::array();
  for (const Window& win : windows_) {
    Json wj = Json::object();
    wj.set("start", win.index * window_cycles_);
    Json cs = Json::object();
    for (std::size_t c = 0; c < kSeriesCounters; ++c) {
      if (win.counters[c] != 0) cs.set(kCounterNames[c], win.counters[c]);
    }
    wj.set("counters", std::move(cs));
    Json hs = Json::object();
    for (std::size_t h = 0; h < kSeriesHistograms; ++h) {
      if (win.hists[h].count() != 0) {
        hs.set(kHistogramNames[h], histogram_summary(win.hists[h]));
      }
    }
    if (hs.size() != 0) wj.set("histograms", std::move(hs));
    windows.push_back(std::move(wj));
  }
  doc.set("windows", std::move(windows));
  return doc;
}

}  // namespace cryptopim::obs
