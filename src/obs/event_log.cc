#include "obs/event_log.h"

#include <fstream>
#include <stdexcept>

namespace cryptopim::obs {

void EventLog::write_line(const std::string& line, bool control) {
  if (!stream_.is_open()) return;
  stream_ << line << '\n';
  // Control records (carve, bank_failure, chip_crash, reshard, ...) are
  // rare and mark exactly the transitions a post-crash reader needs, so
  // they always flush; line-buffered mode flushes everything.
  if (line_buffered_ || control) stream_.flush();
  if (!stream_) {
    throw std::runtime_error("event log: write failed: " + stream_path_);
  }
  size_ += 1;
  read_back_.reset();
}

const std::vector<Json>& EventLog::records() const {
  if (read_back_) return *read_back_;
  if (stream_.is_open()) stream_.flush();
  std::vector<Json> out;
  std::ifstream in(stream_path_, std::ios::binary);
  if (!in && size_ > 0) {
    throw std::runtime_error("event log: cannot read " + stream_path_);
  }
  std::string line;
  std::getline(in, line);  // the streamed header
  while (std::getline(in, line)) {
    JsonParseResult r = parse_json(line);
    if (!r.ok) {
      throw std::runtime_error("event log: bad record in " + stream_path_ +
                               ": " + r.error);
    }
    out.push_back(std::move(r.value));
  }
  // A short file (lost at close, or cut after it) must not hand back
  // fewer records than size() promises.
  if (out.size() != size_) {
    throw std::runtime_error("event log: " + stream_path_ + " holds " +
                             std::to_string(out.size()) + " records, " +
                             std::to_string(size_) + " were logged");
  }
  return read_back_.emplace(std::move(out));
}

void EventLog::open_stream(const std::string& path, bool line_buffered) {
  close_stream();
  stream_.open(path, std::ios::binary | std::ios::trunc);
  if (!stream_) throw std::runtime_error("event log: cannot open " + path);
  stream_path_ = path;
  line_buffered_ = line_buffered;
  size_ = 0;
  read_back_.reset();
  const std::string header =
      JsonLine().str("schema", "serve-events/2").flag("streamed", true).dump();
  stream_ << header << '\n';
  stream_.flush();
  if (!stream_) throw std::runtime_error("event log: write failed: " + path);
}

void EventLog::close_stream() {
  if (!stream_.is_open()) return;
  stream_.flush();
  stream_.close();
  if (!stream_) {
    throw std::runtime_error("event log: write failed: " + stream_path_);
  }
}

}  // namespace cryptopim::obs
