#include "runtime/snapshot.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/crc32.h"

namespace cryptopim::runtime {

namespace fs = std::filesystem;

namespace {

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

}  // namespace

std::string write_snapshot(const std::string& dir, std::uint64_t index,
                           const obs::Json& state, std::uint32_t* state_crc) {
  const std::string state_text = state.dump();
  const std::uint32_t crc = obs::crc32(state_text);
  if (state_crc != nullptr) *state_crc = crc;

  obs::Json doc = obs::Json::object();
  doc.set("schema", "snapshot/1");
  doc.set("index", index);
  doc.set("crc", crc_hex(crc));
  doc.set("state", state);

  const std::string base = "snap-" + std::to_string(index) + ".json";
  const fs::path final_path = fs::path(dir) / base;
  const fs::path tmp_path = fs::path(dir) / (base + ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("snapshot: cannot write " + tmp_path.string());
    }
    out << doc.dump() << '\n';
    out.flush();
    if (!out) {
      throw std::runtime_error("snapshot: write failed " + tmp_path.string());
    }
  }
  fs::rename(tmp_path, final_path);
  return base;
}

}  // namespace cryptopim::runtime
