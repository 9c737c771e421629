#include "obs/trace.h"

#include <ostream>

#include "obs/json.h"

namespace cryptopim::obs {

void Tracer::clear() {
  events_.clear();
  open_.clear();
  track_names_.clear();
}

void Tracer::begin(std::uint32_t track, std::string name, std::string cat,
                   std::uint64_t begin) {
  if (!enabled_) return;
  open_[track].push_back(OpenSpan{std::move(name), std::move(cat), begin});
}

void Tracer::end(std::uint32_t track, std::uint64_t end_cycle) {
  if (!enabled_) return;
  const auto it = open_.find(track);
  if (it == open_.end() || it->second.empty()) return;
  OpenSpan s = std::move(it->second.back());
  it->second.pop_back();
  events_.push_back(TraceEvent{
      std::move(s.name), std::move(s.cat), track, s.begin,
      end_cycle >= s.begin ? end_cycle - s.begin : 0});
}

void Tracer::emit(std::uint32_t track, std::string name, std::string cat,
                  std::uint64_t begin, std::uint64_t dur) {
  if (!enabled_) return;
  events_.push_back(
      TraceEvent{std::move(name), std::move(cat), track, begin, dur});
}

void Tracer::flow(char phase, std::uint64_t id, std::uint32_t track,
                  std::string name, std::string cat, std::uint64_t cycle) {
  if (!enabled_) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.track = track;
  e.begin = cycle;
  e.ph = phase;
  e.flow_id = id;
  events_.push_back(std::move(e));
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  if (!enabled_) return;
  track_names_[track] = std::move(name);
}

std::size_t Tracer::open_span_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [track, stack] : open_) n += stack.size();
  return n;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  // Each event is written as one flat object between the document's
  // fixed prefix and suffix, so no document tree is held. Process +
  // track metadata come first (Perfetto applies it regardless of
  // position, but leading metadata keeps the file skimmable).
  const auto args = [](std::string_view name) {
    return JsonLine().str("name", name).dump();
  };
  os << "{\"traceEvents\":["
     << JsonLine().str("name", "process_name").str("ph", "M").u64("pid", 0)
            .raw("args", args("cryptopim (simulated cycles)")).dump();
  for (const auto& [track, name] : track_names_) {
    os << ',' << JsonLine().str("name", "thread_name").str("ph", "M")
                     .u64("pid", 0).u64("tid", track)
                     .raw("args", args(name)).dump();
  }
  for (const auto& e : events_) {
    JsonLine j;
    j.str("name", e.name).str("cat", e.cat).str("ph", {&e.ph, 1});
    j.u64("ts", e.begin);
    if (e.ph == 'X') {
      j.u64("dur", e.dur);
    } else {
      // Flow arrow point: "id" joins the chain; step/end points bind to
      // the enclosing slice ("bp":"e") so arrows land on the spans.
      j.u64("id", e.flow_id);
      if (e.ph != 's') j.str("bp", "e");
    }
    j.u64("pid", 0).u64("tid", e.track);
    os << ',' << j.dump();
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"timeUnit\":"
        "\"1 trace us = 1 simulated crossbar cycle\"}}\n";
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace cryptopim::obs
