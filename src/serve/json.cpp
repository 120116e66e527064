#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace serve {

namespace {

constexpr int kMaxDepth = 64;

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw JsonError{std::string{what} + " at offset " + std::to_string(offset)};
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

void escape_into(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content", pos_);
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json{parse_string()};
      case 't':
        if (consume_literal("true")) return Json{true};
        fail("bad literal", pos_);
      case 'f':
        if (consume_literal("false")) return Json{false};
        fail("bad literal", pos_);
      case 'n':
        if (consume_literal("null")) return Json{nullptr};
        fail("bad literal", pos_);
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json{std::move(object)};
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.insert_or_assign(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json{std::move(object)};
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json{std::move(array)};
    }
    for (;;) {
      array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json{std::move(array)};
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Append each run of plain characters in one go.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("control character in string", pos_ - 1);
      if (pos_ >= text_.size()) fail("bad escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate", pos_);
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate", pos_);
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate", pos_);
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("bad \\u escape", pos_);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad \\u escape", pos_ - 1);
      }
    }
    return value;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail("bad number", pos_);
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("bad number (leading zero)", int_start);
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number", pos_);
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("bad number", pos_);
    }
    // The grammar above already validated the lexeme; strtod handles the
    // over/underflow rounding (to ±inf / 0) that from_chars reports as an
    // error.
    std::string lexeme{text_.substr(start, pos_ - start)};
    const double value = std::strtod(lexeme.c_str(), nullptr);
    Json json;
    json.value_ = Json::Number{value, std::move(lexeme)};
    return json;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json::Json(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  value_ = Number{v, ec == std::errc{} ? std::string(buf, ptr) : "0"};
}

Json::Json(int v) : Json{static_cast<std::int64_t>(v)} {}

Json::Json(std::int64_t v) {
  value_ = Number{static_cast<double>(v), std::to_string(v)};
}

Json::Json(std::uint64_t v) {
  value_ = Number{static_cast<double>(v), std::to_string(v)};
}

Json Json::parse(std::string_view text) { return JsonParser{text}.run(); }

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  throw JsonError{"not a bool"};
}

double Json::as_double() const {
  if (const auto* n = std::get_if<Number>(&value_)) return n->value;
  throw JsonError{"not a number"};
}

std::int64_t Json::as_int64() const {
  const auto* n = std::get_if<Number>(&value_);
  if (n == nullptr) throw JsonError{"not a number"};
  std::int64_t exact = 0;
  const auto [ptr, ec] = std::from_chars(
      n->lexeme.data(), n->lexeme.data() + n->lexeme.size(), exact);
  if (ec == std::errc{} && ptr == n->lexeme.data() + n->lexeme.size()) {
    return exact;
  }
  // Fractional or huge lexeme: fall back to the double, but only inside
  // the representable range — casting an out-of-range double is UB. 2^63
  // is exact as a double; the half-open test keeps NaN out too.
  constexpr double kMin = -9223372036854775808.0;  // -2^63
  constexpr double kMax = 9223372036854775808.0;   // 2^63
  if (!(n->value >= kMin && n->value < kMax)) {
    throw JsonError{"number out of int64 range"};
  }
  return static_cast<std::int64_t>(n->value);
}

std::uint64_t Json::as_uint64() const {
  const auto* n = std::get_if<Number>(&value_);
  if (n == nullptr) throw JsonError{"not a number"};
  std::uint64_t exact = 0;
  const auto [ptr, ec] = std::from_chars(
      n->lexeme.data(), n->lexeme.data() + n->lexeme.size(), exact);
  if (ec == std::errc{} && ptr == n->lexeme.data() + n->lexeme.size()) {
    return exact;
  }
  if (n->value < 0) throw JsonError{"negative value for unsigned field"};
  // 2^64 is exact as a double; values at or above it (or NaN) cannot be
  // cast without UB.
  if (!(n->value < 18446744073709551616.0)) {
    throw JsonError{"number out of uint64 range"};
  }
  return static_cast<std::uint64_t>(n->value);
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw JsonError{"not a string"};
}

const Json::Array& Json::as_array() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  throw JsonError{"not an array"};
}

const Json::Object& Json::as_object() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  throw JsonError{"not an object"};
}

Json::Array& Json::as_array() {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  throw JsonError{"not an array"};
}

Json::Object& Json::as_object() {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  throw JsonError{"not an object"};
}

const Json* Json::find(std::string_view key) const noexcept {
  const auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  const auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

void Json::set(std::string key, Json value) {
  if (!is_object()) value_ = Object{};
  std::get<Object>(value_).insert_or_assign(std::move(key), std::move(value));
}

std::string Json::dump() const {
  std::string out;
  struct Dumper {
    std::string& out;
    void operator()(std::nullptr_t) const { out += "null"; }
    void operator()(bool b) const { out += b ? "true" : "false"; }
    void operator()(const Number& n) const {
      if (!std::isfinite(n.value)) {
        out += "null";  // JSON cannot spell inf/nan
        return;
      }
      out += n.lexeme;
    }
    void operator()(const std::string& s) const { escape_into(out, s); }
    void operator()(const Array& a) const {
      out.push_back('[');
      bool first = true;
      for (const Json& item : a) {
        if (!first) out.push_back(',');
        first = false;
        std::visit(Dumper{out}, item.value_);
      }
      out.push_back(']');
    }
    void operator()(const Object& o) const {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : o) {
        if (!first) out.push_back(',');
        first = false;
        escape_into(out, key);
        out.push_back(':');
        std::visit(Dumper{out}, item.value_);
      }
      out.push_back('}');
    }
  };
  std::visit(Dumper{out}, value_);
  return out;
}

}  // namespace serve
