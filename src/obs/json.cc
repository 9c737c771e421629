#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace cryptopim::obs {

Json& Json::set(const std::string& key, Json v) {
  kind_ = Kind::kObject;
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return old;
    }
  }
  obj_.emplace_back(key, std::move(v));
  return obj_.back().second;
}

bool Json::contains(const std::string& key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  throw std::out_of_range("Json::at: no member '" + key + "'");
}

namespace {

/// The one JSON string escaper: appends `s` as a quoted literal.
void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no Inf/NaN; match Chrome-trace convention
    return;
  }
  // Integral doubles print without a fraction, exactly up to 2^53.
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

}  // namespace

void Json::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber:
      if (unsigned_) {
        append_u64(out, u64_);
      } else {
        append_number(out, num_);
      }
      break;
    case Kind::kString: append_string(out, str_); break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        arr_[i].append_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        append_string(out, obj_[i].first);
        out += ':';
        obj_[i].second.append_to(out);
      }
      out += '}';
      break;
    }
  }
}

void Json::write(std::ostream& os) const { os << dump(); }

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

std::string& JsonLine::key(std::string_view k) {
  if (s_.size() > 1) s_ += ',';
  append_string(s_, k);
  s_ += ':';
  return s_;
}

JsonLine& JsonLine::u64(std::string_view k, std::uint64_t v) {
  append_u64(key(k), v);
  return *this;
}

JsonLine& JsonLine::str(std::string_view k, std::string_view v) {
  append_string(key(k), v);
  return *this;
}

JsonLine& JsonLine::flag(std::string_view k, bool v) {
  key(k) += v ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::raw(std::string_view k, std::string_view json) {
  key(k) += json;
  return *this;
}

bool operator==(const Json& a, const Json& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Json::Kind::kNull: return true;
    case Json::Kind::kBool: return a.bool_ == b.bool_;
    case Json::Kind::kNumber:
      return a.unsigned_ && b.unsigned_ ? a.u64_ == b.u64_
                                        : a.as_number() == b.as_number();
    case Json::Kind::kString: return a.str_ == b.str_;
    case Json::Kind::kArray: return a.arr_ == b.arr_;
    case Json::Kind::kObject: return a.obj_ == b.obj_;
  }
  return false;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonParseResult run() {
    JsonParseResult r;
    try {
      r.value = value();
      skip_ws();
      if (pos_ != s_.size()) fail("trailing garbage");
      r.ok = true;
    } catch (const std::runtime_error& e) {
      r.error = std::string(e.what()) + " at offset " + std::to_string(pos_);
      r.offset = pos_;
    }
    return r;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json(string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json();
    }
    return number();
  }

  Json object() {
    expect('{');
    Json j = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return j;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      j.set(key, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return j;
    }
  }

  Json array() {
    expect('[');
    Json j = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return j;
    }
    while (true) {
      j.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return j;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are beyond
          // what our own writers emit; reject them explicitly).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    // A plain unsigned integer literal that fits 64 bits is held exactly.
    std::uint64_t u = 0;
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    if (const auto [end, ec] = std::from_chars(first, last, u);
        ec == std::errc() && end == last) {
      return Json(u);
    }
    try {
      std::size_t used = 0;
      const double v = std::stod(s_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) fail("bad number");
      return Json(v);
    } catch (const std::logic_error&) {
      fail("bad number");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonParseResult parse_json(const std::string& text) {
  return Parser(text).run();
}

}  // namespace cryptopim::obs
