// Minimal JSON for the observability layer. Documents (reports,
// snapshots, config fingerprints, bench files) are built as a Json tree
// and parsed back (round-trip tests, tools/json_check); streams of flat
// records (the event log, the journal, trace events) are written field
// by field with JsonLine, with no tree. Both share one string escaper.
// Deliberately tiny — no SAX, no comments, no non-finite numbers (they
// serialize as null, as Chrome tracing does).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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
  /// Held exactly: written in decimal, read back by as_u64().
  Json(std::uint64_t v) : kind_(Kind::kNumber), unsigned_(true), u64_(v) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}

  static Json array() { Json j; j.kind_ = Kind::kArray; return j; }
  static Json object() { Json j; j.kind_ = Kind::kObject; return j; }

  Kind kind() const noexcept { return kind_; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  bool as_bool() const { return bool_; }
  double as_number() const {
    return unsigned_ ? static_cast<double>(u64_) : num_;
  }
  std::uint64_t as_u64() const {
    return unsigned_ ? u64_ : static_cast<std::uint64_t>(num_);
  }
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

  /// Structural equality (numbers compared exactly when both are
  /// unsigned integers, else as doubles).
  friend bool operator==(const Json& a, const Json& b);

 private:
  void append_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool unsigned_ = false;  ///< the number is u64_, not num_
  union {
    double num_ = 0;
    std::uint64_t u64_;
  };
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Writes one flat JSON object into a string, member by member: the
/// form every streamed record takes. It writes exactly the bytes
/// Json::dump() writes for the same members in the same order, and does
/// not check keys for duplicates.
class JsonLine {
 public:
  JsonLine& u64(std::string_view key, std::uint64_t v);
  JsonLine& str(std::string_view key, std::string_view v);
  JsonLine& flag(std::string_view key, bool v);
  /// `json` is one value already serialized (a nested object, say).
  JsonLine& raw(std::string_view key, std::string_view json);

  /// The object written so far, closed.
  std::string dump() const { return s_ + '}'; }

 private:
  /// Appends `"key":` (after a comma unless it is the first member).
  std::string& key(std::string_view k);

  std::string s_ = "{";
};

struct JsonParseResult {
  bool ok = false;
  Json value;
  std::string error;      ///< human-readable, includes offset
  std::size_t offset = 0; ///< byte offset of the error
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
JsonParseResult parse_json(const std::string& text);

}  // namespace cryptopim::obs
