#include "obs/timeseries.h"

namespace cryptopim::obs {

WindowedSeries::WindowedSeries(std::uint64_t window_cycles)
    : window_cycles_(window_cycles ? window_cycles : 1) {}

WindowedSeries::Window& WindowedSeries::window_for(std::uint64_t cycle) {
  const std::uint64_t idx = cycle / window_cycles_;
  // The event clock is monotonic, but samples recorded against earlier
  // cycles (e.g. a latency keyed on arrival) may point before the
  // newest window; they land in the oldest live window rather than
  // resurrecting an evicted one.
  if (!windows_.empty() && idx <= windows_.front().index) {
    return windows_.front();
  }
  if (!windows_.empty() && idx <= windows_.back().index) {
    // Binary search not worth it: live windows are few and the common
    // case is the newest one.
    for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
      if (it->index == idx) return *it;
      if (it->index < idx) break;
    }
    // Sparse gap inside the live range: insert in order.
    for (auto it = windows_.begin(); it != windows_.end(); ++it) {
      if (it->index > idx) {
        Window w;
        w.index = idx;
        return *windows_.insert(it, std::move(w));
      }
    }
  }
  Window w;
  w.index = idx;
  windows_.push_back(std::move(w));
  while (windows_.size() > kCapacity) fold_oldest();
  return windows_.back();
}

void WindowedSeries::fold_oldest() {
  Window& w = windows_.front();
  for (const auto& [name, v] : w.counters) folded_counters_[name] += v;
  for (const auto& [name, h] : w.hists) folded_hists_[name].merge(h);
  evicted_ += 1;
  windows_.pop_front();
}

void WindowedSeries::count(const std::string& name, std::uint64_t cycle,
                           std::uint64_t delta) {
  if (!enabled()) return;
  window_for(cycle).counters[name] += delta;
}

void WindowedSeries::observe(const std::string& name, std::uint64_t cycle,
                             std::uint64_t value) {
  if (!enabled()) return;
  window_for(cycle).hists[name].add(value);
}

std::uint64_t WindowedSeries::window_start(std::size_t w) const {
  return windows_.at(w).index * window_cycles_;
}

std::uint64_t WindowedSeries::counter_at(std::size_t w,
                                         const std::string& name) const {
  const auto& counters = windows_.at(w).counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const Histogram* WindowedSeries::histogram_at(std::size_t w,
                                              const std::string& name) const {
  const auto& hists = windows_.at(w).hists;
  const auto it = hists.find(name);
  return it == hists.end() ? nullptr : &it->second;
}

std::uint64_t WindowedSeries::total_count(const std::string& name) const {
  std::uint64_t total = 0;
  if (const auto it = folded_counters_.find(name);
      it != folded_counters_.end()) {
    total += it->second;
  }
  for (const Window& w : windows_) {
    if (const auto it = w.counters.find(name); it != w.counters.end()) {
      total += it->second;
    }
  }
  return total;
}

std::uint64_t WindowedSeries::total_observations(
    const std::string& name) const {
  std::uint64_t total = 0;
  if (const auto it = folded_hists_.find(name); it != folded_hists_.end()) {
    total += it->second.count();
  }
  for (const Window& w : windows_) {
    if (const auto it = w.hists.find(name); it != w.hists.end()) {
      total += it->second.count();
    }
  }
  return total;
}

namespace {

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

Json WindowedSeries::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "timeseries/1");
  doc.set("window_cycles", window_cycles_);
  doc.set("evicted_windows", evicted_);
  Json windows = Json::array();
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const Window& win = windows_[w];
    Json wj = Json::object();
    wj.set("start", win.index * window_cycles_);
    Json cs = Json::object();
    for (const auto& [name, v] : win.counters) cs.set(name, v);
    wj.set("counters", std::move(cs));
    if (!win.hists.empty()) {
      Json hs = Json::object();
      for (const auto& [name, h] : win.hists) {
        hs.set(name, histogram_summary(h));
      }
      wj.set("histograms", std::move(hs));
    }
    windows.push_back(std::move(wj));
  }
  doc.set("windows", std::move(windows));
  return doc;
}

}  // namespace cryptopim::obs
