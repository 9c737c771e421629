// Discrete-event clock for the serving runtime.
//
// Events live in the same cycle domain as the performance model and the
// tracer: one unit = one crossbar cycle. The queue is a min-heap keyed
// on (cycle, sequence) — the sequence number is assigned at push, so
// events scheduled for the same cycle pop in push order. That tie-break
// is what makes the whole simulation deterministic: two runs with the
// same seed schedule the same events in the same order and therefore
// produce bit-identical reports.
//
// A fleet puts N chips on one timeline. Every push names the namespace
// it schedules in — a chip id, or one past the last chip for the
// fleet's own control events — and the namespace is folded into the
// high bits of the sequence number above one push counter shared by all
// namespaces. Two events of one chip still compare in push order;
// same-cycle events of different chips compare by chip id, the fleet's
// last. So (cycle, seq) is a strict total order over the whole fleet,
// which is what makes same-seed fleet reports byte-identical.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "runtime/request.h"

namespace cryptopim::runtime {

enum class EventKind : std::uint8_t {
  kArrival,      ///< a request enters the admission queue
  kQueueScan,    ///< a lane (or a carved lane) becomes free: try dispatch
  kCompletion,   ///< a dispatched request drains from its pipeline
  kBankFailure,  ///< a physical bank drops out mid-stream
  // -- resilience layer (scheduled only when a feature is enabled) ----------
  kTimeout,       ///< a queued request's deadline passes: cancel it
  kRetryEnqueue,  ///< a backed-off retry re-enters the admission queue
  kHedge,         ///< straggler check: duplicate onto a second lane
  kHealth,        ///< periodic health-monitor tick (scrubs, metrics)
  kChaos,         ///< a chaos fault episode strikes a lane
  // -- fleet layer (scheduled only by runtime::FleetRuntime in its own
  // namespace; a chip never handles these) ----------------------------------
  kFleetArrival,     ///< a request enters the fleet front-end router
  kFleetRetry,       ///< a backed-off cross-chip retry re-dispatches
  kFleetHedgeCheck,  ///< straggler check: duplicate onto a replica chip
  kFleetHealth,      ///< periodic chip-health tick (drain, scrub, rejoin)
  kFleetChaos,       ///< a whole-chip chaos episode strikes
  kFleetChipUp,      ///< a drained/crashed chip finished scrubbing: rejoin
};

struct Event {
  std::uint64_t cycle = 0;
  std::uint64_t seq = 0;  ///< push order; breaks same-cycle ties
  EventKind kind = EventKind::kQueueScan;
  /// kCompletion/kHedge: in-flight dispatch id; kTimeout: request id.
  std::uint64_t dispatch_id = 0;
  Request request;  ///< kArrival / kRetryEnqueue payload
};

class EventQueue {
 public:
  /// Bit position of the namespace in assigned sequence numbers: the
  /// low 40 bits count pushes (~10^12 — far beyond any simulated run),
  /// the bits above carry the namespace.
  static constexpr unsigned kChipShift = 40;

  /// `first_seq` seeds the tie-breaking sequence counter; the default is
  /// what the runtime uses. A non-zero start exists for tests probing
  /// ordering stability near the counter's (unreachable in practice —
  /// ~1.8e19 pushes) wrap-around.
  explicit EventQueue(std::uint64_t first_seq = 0) : next_seq_(first_seq) {}

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Schedules `e` in namespace `ns` (a chip id, or the fleet's own).
  void push(Event e, std::uint32_t ns = 0) {
    e.seq = (static_cast<std::uint64_t>(ns) << kChipShift) | next_seq_++;
    heap_.push(std::move(e));
  }

  /// Pops the earliest event (lowest cycle, then lowest sequence).
  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

  /// The namespace `e` was pushed in.
  static std::uint32_t ns(const Event& e) noexcept {
    return static_cast<std::uint32_t>(e.seq >> kChipShift);
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.cycle != b.cycle) return a.cycle > b.cycle;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// One timeline: the event heap plus the global event index that
/// journals record. Whoever drives the loop owns it — a single-chip
/// ServingRuntime its own, a FleetRuntime one for all of its chips.
struct Clock {
  EventQueue events;
  /// Events handled so far on this timeline.
  std::uint64_t event_index = 0;

  /// Schedules an event of `kind` at `cycle` in namespace `ns`;
  /// `dispatch_id` and `r` as Event documents them per kind.
  void push(std::uint32_t ns, EventKind kind, std::uint64_t cycle,
            std::uint64_t dispatch_id = 0, Request r = {}) {
    Event e;
    e.cycle = cycle;
    e.kind = kind;
    e.dispatch_id = dispatch_id;
    e.request = std::move(r);
    events.push(std::move(e), ns);
  }
};

}  // namespace cryptopim::runtime
