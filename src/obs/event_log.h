// Structured request-lifecycle event log.
//
// The serving runtime emits one record per lifecycle transition
// (admitted, dispatched, retry, hedge, completed, ...) as an obs::Json
// object. open_stream() writes the log as JSON Lines while the run goes:
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
// Like the Tracer, the log is disabled by default so the emit sites can
// stay unconditional in the runtime; a disabled log drops records at
// the door. Determinism: records carry only event-clock cycles and
// stable ids, so the same seed + config yields byte-identical output.
//
// Durability: next to a crash-recoverable runtime the log must survive
// an abnormal exit. Control records — cluster-level transitions with no
// "trace" field (carve, bank_failure, chip_crash, reshard, ...) — are
// flushed to the OS as they land, so after a crash the log is always a
// parseable prefix whose control history is complete; the opt-in
// line-buffered mode flushes *every* record for a fully-synced (slower)
// log. Every record is also kept in memory, so records() serves
// in-process consumers.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace cryptopim::obs {

class EventLog {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Drops all buffered records (keeps the enabled flag and any open
  /// stream — a fleet clears once before priming, after the CLI opened
  /// the stream).
  void clear() { records_.clear(); }

  /// Appends one record. No-op when disabled. With an open stream the
  /// record's line is also written out immediately (flushed when it is a
  /// control record or the stream is line-buffered).
  void log(Json record);

  std::size_t size() const noexcept { return records_.size(); }
  const std::vector<Json>& records() const noexcept { return records_; }

  /// Switches to streamed output: truncates `path`, writes the streamed
  /// header, and mirrors every subsequent record to the file as it is
  /// logged. `line_buffered` flushes after every record (default: only
  /// after control records). Enables the log. Throws std::runtime_error
  /// on I/O error.
  void open_stream(const std::string& path, bool line_buffered);
  bool streaming() const noexcept { return stream_.is_open(); }
  /// Final flush + close; the file is already complete (no trailer).
  void close_stream();

 private:
  bool enabled_ = false;
  bool line_buffered_ = false;
  std::ofstream stream_;
  std::string stream_path_;
  std::vector<Json> records_;
};

}  // namespace cryptopim::obs
