// Minimal JSON document model for the observability layer: enough to
// write trace/metric/bench files and to parse them back (round-trip
// tests, tools/json_check). Deliberately tiny — no SAX, no comments, no
// non-finite numbers (they serialize as null, as Chrome tracing does).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cryptopim::obs {

/// One JSON value. Objects keep insertion order (readable diffs matter
/// more than lookup speed at observability scale).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;                      // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(std::int64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}

  static Json array() { Json j; j.kind_ = Kind::kArray; return j; }
  static Json object() { Json j; j.kind_ = Kind::kObject; return j; }

  Kind kind() const noexcept { return kind_; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  std::uint64_t as_u64() const { return static_cast<std::uint64_t>(num_); }
  const std::string& as_string() const { return str_; }

  // -- array --
  void push_back(Json v) { arr_.push_back(std::move(v)); }
  const std::vector<Json>& items() const noexcept { return arr_; }
  std::size_t size() const noexcept {
    return kind_ == Kind::kArray ? arr_.size() : obj_.size();
  }
  const Json& operator[](std::size_t i) const { return arr_.at(i); }

  // -- object --
  /// Sets (or replaces) a member, preserving first-insertion order.
  Json& set(const std::string& key, Json v);
  bool contains(const std::string& key) const;
  /// Throws std::out_of_range on a missing key.
  const Json& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return obj_;
  }

  /// Compact serialization (single line).
  void write(std::ostream& os) const;
  std::string dump() const;

  /// Structural equality (numbers compared exactly).
  friend bool operator==(const Json& a, const Json& b);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Writes `s` as a JSON string literal (quotes + escapes) to `os`.
void write_json_string(std::ostream& os, const std::string& s);

struct JsonParseResult {
  bool ok = false;
  Json value;
  std::string error;      ///< human-readable, includes offset
  std::size_t offset = 0; ///< byte offset of the error
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
JsonParseResult parse_json(const std::string& text);

}  // namespace cryptopim::obs
