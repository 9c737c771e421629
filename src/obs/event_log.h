// Structured request-lifecycle event log.
//
// The serving runtime emits one record per lifecycle transition
// (admitted, dispatched, retry, hedge, completed, ...), written field by
// field as an EventRecord (an obs::JsonLine, with no document tree).
// open_stream() writes the log as JSON Lines while the run goes:
// a {"schema":"serve-events/2","streamed":true} header (no record count:
// the total is unknowable while streaming), then one compact JSON object
// per line. JSONL keeps the file greppable and streamable — consumers
// never need the whole log in memory.
//
// Schema: serve-events/2 puts a "chip" field on every record (control
// records included) so one log can interleave the lifecycle streams of a
// whole fleet; trace ids stay stable across cross-chip retries and
// hedges, so a request's causal chain reads across chips.
// tools/json_check --events validates the format.
//
// The stream is the log's only copy: a log is on exactly while its
// stream is open, and with no stream it drops records at the door, so
// the emit sites can stay unconditional in the runtime. The log keeps a
// record count, not the records; records() reads the stream back for
// in-process consumers. Determinism: records carry only event-clock
// cycles and stable ids, so the same seed + config yields byte-identical
// output.
//
// Durability: next to a crash-recoverable runtime the log must survive
// an abnormal exit. Control records — cluster-level transitions with no
// "trace" field (carve, bank_failure, chip_crash, reshard, ...) — are
// flushed to the OS as they land, so after a crash the log is always a
// parseable prefix whose control history is complete; the opt-in
// line-buffered mode flushes *every* record for a fully-synced (slower)
// log.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace cryptopim::obs {

/// One lifecycle record on its way to the log: its fields, and whether
/// it is a control record (no "trace" field), which the log flushes.
struct EventRecord : JsonLine {
  bool control = false;
};

class EventLog {
 public:
  /// On exactly while a stream is open.
  bool enabled() const noexcept { return stream_.is_open(); }

  /// Writes one record as a line of the open stream (flushed when it is
  /// a control record or the stream is line-buffered). No-op when no
  /// stream is open.
  void write(const EventRecord& rec) { write_line(rec.dump(), rec.control); }
  /// write() for a record built as a document (perfbench's replay, the
  /// tests): a record with no "trace" field is a control record.
  void log(const Json& record) {
    write_line(record.dump(), !record.contains("trace"));
  }

  /// Records logged since the last open_stream().
  std::size_t size() const noexcept { return size_; }
  /// The records since open_stream(), read back from its file (flushed
  /// first) and cached until the next log() or open_stream(); works
  /// after close_stream() too. Throws std::runtime_error when the file
  /// cannot be read, holds a bad line, or holds other than size() records.
  const std::vector<Json>& records() const;

  /// Starts a fresh log streamed to `path`: closes any open stream,
  /// truncates `path`, writes the streamed header and resets the record
  /// count. `line_buffered` flushes after every record (default: only
  /// after control records). Throws std::runtime_error on I/O error.
  void open_stream(const std::string& path, bool line_buffered);
  /// Final flush + close; the file is already complete (no trailer).
  /// Throws std::runtime_error when the final flush fails.
  void close_stream();

 private:
  void write_line(const std::string& line, bool control);

  bool line_buffered_ = false;
  mutable std::ofstream stream_;  ///< mutable: records() flushes it
  std::string stream_path_;
  std::size_t size_ = 0;
  mutable std::optional<std::vector<Json>> read_back_;
};

}  // namespace cryptopim::obs
