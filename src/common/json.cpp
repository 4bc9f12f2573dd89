#include "common/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace fsbb {

// Every control character (U+0000–U+001F) must be escaped — RFC 8259 — or
// a backend name / error string with a stray byte emits invalid JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::field(const std::string& key, const std::string& raw_value) {
  if (!body_.empty()) body_ += ",";
  // Appends rather than operator+ chains: `const char* + std::string&&`
  // trips GCC 12's -Wrestrict false positive (GCC PR105329) under -Werror.
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\":";
  body_ += raw_value;
}

void JsonWriter::str(const std::string& key, const std::string& value) {
  std::string quoted;
  quoted += '"';
  quoted += json_escape(value);
  quoted += '"';
  field(key, quoted);
}

void JsonWriter::real(const std::string& key, double value) {
  std::ostringstream ss;
  ss << value;
  field(key, ss.str());
}

void JsonWriter::boolean(const std::string& key, bool value) {
  field(key, value ? "true" : "false");
}

namespace {

/// Recursive-descent parser over the whole input string.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    FSBB_CHECK_MSG(pos_ == text_.size(),
                   "trailing characters after JSON value at offset " +
                       std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    FSBB_CHECK_MSG(false,
                   "JSON parse error at offset " + std::to_string(pos_) +
                       ": " + what);
    std::abort();  // unreachable; FSBB_CHECK_MSG(false, ...) throws
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }
  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue value();
  JsonValue string_value();
  JsonValue number_value();
  JsonValue array_value();
  JsonValue object_value();
  std::string raw_string();
  void append_utf8(std::string& out, unsigned code_point);
  unsigned hex4();

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue Parser::value() {
  switch (peek()) {
    case '{':
      return object_value();
    case '[':
      return array_value();
    case '"':
      return string_value();
    case 't':
      if (consume_literal("true")) return JsonValue::boolean(true);
      fail("invalid literal");
    case 'f':
      if (consume_literal("false")) return JsonValue::boolean(false);
      fail("invalid literal");
    case 'n':
      if (consume_literal("null")) return JsonValue::null();
      fail("invalid literal");
    default:
      return number_value();
  }
}

unsigned Parser::hex4() {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = next();
    code <<= 4;
    if (c >= '0' && c <= '9') {
      code |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      code |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      code |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      --pos_;
      fail("invalid \\u escape");
    }
  }
  return code;
}

void Parser::append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

std::string Parser::raw_string() {
  expect('"');
  std::string out;
  for (;;) {
    const char c = next();
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      --pos_;
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    const char esc = next();
    switch (esc) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        unsigned cp = hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // Surrogate pair: the low half must follow immediately.
          if (!consume_literal("\\u")) fail("unpaired surrogate");
          const unsigned low = hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("unpaired surrogate");
        }
        append_utf8(out, cp);
        break;
      }
      default:
        --pos_;
        fail("invalid escape");
    }
  }
}

JsonValue Parser::string_value() {
  return JsonValue::string(raw_string());
}

JsonValue Parser::number_value() {
  const std::size_t start = pos_;
  if (!eof() && peek() == '-') ++pos_;
  while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
  if (!eof() && text_[pos_] == '.') {
    ++pos_;
    while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
  }
  if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
  }
  const std::string token = text_.substr(start, pos_ - start);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) {
    pos_ = start;
    fail("invalid number");
  }
  // Integer-form tokens (no '.', 'e', 'E') must survive the double
  // round-trip exactly: values beyond 2^53 would silently lose low bits —
  // fatal for 64-bit job ids riding the NDJSON transport — so reject them
  // rather than hand back a corrupted id.
  if (token.find_first_of(".eE") == std::string::npos) {
    errno = 0;
    const long long exact = std::strtoll(token.c_str(), &end, 10);
    // The double→long long cast is only defined inside [-2^63, 2^63); the
    // range guard doubles as the round-trip check at the extremes (a value
    // that rounded up to 2^63 cannot equal any long long).
    constexpr double kTwo63 = 9223372036854775808.0;
    const bool round_trips =
        errno != ERANGE && end == token.c_str() + token.size() &&
        static_cast<double>(exact) == value && value >= -kTwo63 &&
        value < kTwo63 && static_cast<long long>(value) == exact;
    if (!round_trips) {
      pos_ = start;
      fail("integer too large to represent exactly");
    }
  }
  return JsonValue::number(value);
}

JsonValue Parser::array_value() {
  expect('[');
  JsonValue::Array items;
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    return JsonValue::array(std::move(items));
  }
  for (;;) {
    skip_ws();
    items.push_back(value());
    skip_ws();
    const char c = next();
    if (c == ']') return JsonValue::array(std::move(items));
    if (c != ',') {
      --pos_;
      fail("expected ',' or ']'");
    }
  }
}

JsonValue Parser::object_value() {
  expect('{');
  JsonValue::Object members;
  skip_ws();
  if (peek() == '}') {
    ++pos_;
    return JsonValue::object(std::move(members));
  }
  for (;;) {
    skip_ws();
    std::string key = raw_string();
    skip_ws();
    expect(':');
    skip_ws();
    members[std::move(key)] = value();  // last duplicate key wins
    skip_ws();
    const char c = next();
    if (c == '}') return JsonValue::object(std::move(members));
    if (c != ',') {
      --pos_;
      fail("expected ',' or '}'");
    }
  }
}

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).run();
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.value_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.value_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.value_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(Array items) {
  JsonValue v;
  v.value_ = std::make_shared<Array>(std::move(items));
  return v;
}

JsonValue JsonValue::object(Object members) {
  JsonValue v;
  v.value_ = std::make_shared<Object>(std::move(members));
  return v;
}

JsonValue::Type JsonValue::type() const {
  switch (value_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kNumber;
    case 3:
      return Type::kString;
    case 4:
      return Type::kArray;
    default:
      return Type::kObject;
  }
}

bool JsonValue::as_bool() const {
  FSBB_CHECK_MSG(is_bool(), "JSON value is not a boolean");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  FSBB_CHECK_MSG(is_number(), "JSON value is not a number");
  return std::get<double>(value_);
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  // Casting a double outside int64's range is undefined; 2^63 is the
  // first double past it.
  FSBB_CHECK_MSG(d >= -0x1p63 && d < 0x1p63,
                 "JSON number does not fit a 64-bit integer");
  const auto i = static_cast<std::int64_t>(d);
  FSBB_CHECK_MSG(static_cast<double>(i) == d, "JSON number is not integral");
  return i;
}

const std::string& JsonValue::as_string() const {
  FSBB_CHECK_MSG(is_string(), "JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  FSBB_CHECK_MSG(is_array(), "JSON value is not an array");
  return *std::get<std::shared_ptr<Array>>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  FSBB_CHECK_MSG(is_object(), "JSON value is not an object");
  return *std::get<std::shared_ptr<Object>>(value_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& object = as_object();
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::string_or(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return v ? v->as_string() : std::move(fallback);
}

std::int64_t JsonValue::int_or(const std::string& key,
                               std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v ? v->as_int() : fallback;
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v ? v->as_bool() : fallback;
}

}  // namespace fsbb
