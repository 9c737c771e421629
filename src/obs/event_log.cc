#include "obs/event_log.h"

#include <fstream>
#include <stdexcept>

namespace cryptopim::obs {

void EventLog::log(Json record) {
  if (!enabled_) return;
  if (stream_.is_open()) {
    stream_ << record.dump() << '\n';
    // Control records (no "trace" field: carve, bank_failure,
    // chip_crash, reshard, ...) are rare and mark exactly the
    // transitions a post-crash reader needs, so they always flush;
    // line-buffered mode flushes everything.
    if (line_buffered_ || !record.contains("trace")) stream_.flush();
    if (!stream_) {
      throw std::runtime_error("event log: write failed: " + stream_path_);
    }
  }
  records_.push_back(std::move(record));
}

void EventLog::open_stream(const std::string& path, bool line_buffered) {
  stream_.open(path, std::ios::binary | std::ios::trunc);
  if (!stream_) throw std::runtime_error("event log: cannot open " + path);
  stream_path_ = path;
  line_buffered_ = line_buffered;
  enabled_ = true;
  Json header = Json::object();
  header.set("schema", "serve-events/2");
  header.set("streamed", true);
  stream_ << header.dump() << '\n';
  stream_.flush();
  if (!stream_) throw std::runtime_error("event log: write failed: " + path);
}

void EventLog::close_stream() {
  if (!stream_.is_open()) return;
  stream_.flush();
  stream_.close();
}

}  // namespace cryptopim::obs
