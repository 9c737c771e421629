// Cycle-domain tracing for the CryptoPIM simulators.
//
// Events live in *simulated* time: timestamps are crossbar cycles, not
// host nanoseconds. A track is one timeline in the viewer — one per bank
// (A path), one per softbank (B path), plus a synthetic "pipeline" track
// whose stage spans sum exactly to SimReport::wall_cycles. Spans cover
// stages, circuit ops (multiply / reductions), microcode replays, and
// inter-block switch transfers.
//
// Export is Chrome-trace JSON (the `traceEvents` array form), which
// Perfetto (https://ui.perfetto.dev) and chrome://tracing load directly.
// One trace "microsecond" equals one simulated cycle. The tracer keeps
// its spans until export; write_chrome_trace() then streams them one
// obs::JsonLine per event, so exporting holds no document tree.
//
// Cost model: tracing is always compiled in and pay-per-use — a
// disabled Tracer rejects events on a single branch, and the hot gate
// loop (BlockExecutor::issue) is never instrumented; only span-level
// call sites are.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace cryptopim::obs {

/// One completed span, in cycle time. `ph` distinguishes complete spans
/// ('X', the default) from flow arrows ('s' start, 't' step, 'f' end)
/// that draw causal links between spans on different tracks — e.g. a
/// request's admission on its tenant lane to the retry it spawned on
/// another lane. Flow events with the same `flow_id` form one chain.
struct TraceEvent {
  std::string name;
  std::string cat;        ///< "stage", "circuit", "reduce", "transfer", ...
  std::uint32_t track = 0;
  std::uint64_t begin = 0;  ///< cycles
  std::uint64_t dur = 0;    ///< cycles
  char ph = 'X';
  std::uint64_t flow_id = 0;
};

/// Append-only event recorder. Not thread-safe (the simulators are
/// single-threaded); one global instance (`tracer()`) plus any number of
/// locals for tests.
class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Drops all events, open spans and track names.
  void clear();

  /// Opens a nested span on `track` at cycle `begin`. No event is
  /// recorded until the matching end().
  void begin(std::uint32_t track, std::string name, std::string cat,
             std::uint64_t begin);
  /// Closes the innermost open span on `track` at cycle `end_cycle`.
  /// Unbalanced end() calls are ignored.
  void end(std::uint32_t track, std::uint64_t end_cycle);

  /// Records a complete span directly (no nesting bookkeeping).
  void emit(std::uint32_t track, std::string name, std::string cat,
            std::uint64_t begin, std::uint64_t dur);

  /// Records a flow-arrow point: `phase` is 's' (start), 't' (step) or
  /// 'f' (end); all points sharing `id` are connected in the viewer.
  /// Place each point inside (track, cycle) of the span it anchors to —
  /// step/end points bind to the enclosing slice.
  void flow(char phase, std::uint64_t id, std::uint32_t track,
            std::string name, std::string cat, std::uint64_t cycle);

  /// Human-readable track label in the viewer.
  void set_track_name(std::uint32_t track, std::string name);

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t open_span_count() const noexcept;

  /// Writes Chrome-trace JSON: {"traceEvents":[...], ...}. Complete ("X")
  /// events with ts/dur in cycles; thread_name metadata names the tracks.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct OpenSpan {
    std::string name;
    std::string cat;
    std::uint64_t begin;
  };

  bool enabled_ = false;
  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::vector<OpenSpan>> open_;
  std::map<std::uint32_t, std::string> track_names_;
};

/// The process-global tracer. Disabled by default; `cryptopim
/// --trace=<file>` and tests enable it around a run.
Tracer& tracer();

}  // namespace cryptopim::obs
