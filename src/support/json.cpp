#include "support/json.h"

#include <charconv>
#include <cstdint>

namespace confcall::support {

namespace {

/// Appends a Unicode code point to `out` as UTF-8. Input is already
/// range-checked by the \u parser (<= 0x10FFFF, no lone surrogates).
void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out.push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

/// The reader driven into a value tree; recursion is bounded by the
/// reader's nesting cap.
JsonValue build_value(JsonReader& reader) {
  switch (reader.begin_value()) {
    case JsonReader::Kind::kNull:
      reader.read_null();
      return JsonValue::make_null();
    case JsonReader::Kind::kBool:
      return JsonValue::make_bool(reader.read_bool());
    case JsonReader::Kind::kNumber:
      return JsonValue::make_number(reader.read_number());
    case JsonReader::Kind::kString:
      return JsonValue::make_string(std::string(reader.read_string()));
    case JsonReader::Kind::kArray: {
      JsonValue::Array items;
      if (reader.enter_array()) {
        do {
          items.push_back(build_value(reader));
        } while (reader.next_element());
      }
      return JsonValue::make_array(std::move(items));
    }
    case JsonReader::Kind::kObject: {
      JsonValue::Object members;
      if (reader.enter_object()) {
        do {
          std::string key(reader.read_key());
          members.emplace_back(std::move(key), build_value(reader));
        } while (reader.next_member());
      }
      return JsonValue::make_object(std::move(members));
    }
  }
  return JsonValue::make_null();  // unreachable: every kind returns above
}

[[noreturn]] void type_mismatch(const char* wanted) {
  throw JsonError(std::string("JSON value is not ") + wanted, 0);
}

}  // namespace

void JsonReader::skip_whitespace() noexcept {
  while (!at_end()) {
    const char c = peek();
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

void JsonReader::fail(const std::string& message) const {
  throw JsonError(message, pos_);
}

void JsonReader::expect(char c) {
  if (at_end() || peek() != c) {
    fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

void JsonReader::expect_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    fail("invalid literal");
  }
  pos_ += literal.size();
}

JsonReader::Kind JsonReader::begin_value() {
  if (depth_ > max_depth_) fail("nesting too deep");
  skip_whitespace();
  if (at_end()) fail("unexpected end of input");
  switch (peek()) {
    case 'n': return Kind::kNull;
    case 't':
    case 'f': return Kind::kBool;
    case '"': return Kind::kString;
    case '[': return Kind::kArray;
    case '{': return Kind::kObject;
    default: return Kind::kNumber;
  }
}

void JsonReader::read_null() { expect_literal("null"); }

bool JsonReader::read_bool() {
  if (!at_end() && peek() == 't') {
    expect_literal("true");
    return true;
  }
  expect_literal("false");
  return false;
}

double JsonReader::read_number() {
  const std::size_t start = pos_;
  if (!at_end() && peek() == '-') ++pos_;
  // Integer part: 0, or a nonzero digit followed by digits.
  if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
  if (peek() == '0') {
    ++pos_;
  } else {
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
  }
  if (!at_end() && peek() == '.') {
    ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') {
      fail("digit required after decimal point");
    }
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
  }
  if (!at_end() && (peek() == 'e' || peek() == 'E')) {
    ++pos_;
    if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') {
      fail("digit required in exponent");
    }
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
  }
  double value = 0.0;
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    // Grammar already validated; only overflow can land here.
    throw JsonError("number out of range", start);
  }
  return value;
}

std::string_view JsonReader::read_string() {
  expect('"');
  // Plain run first: most strings (every key the wire uses) hold no
  // escape and are returned as a view of the input.
  const std::size_t start = pos_;
  while (true) {
    if (at_end()) fail("unterminated string");
    const char c = peek();
    if (c == '"') {
      ++pos_;
      return text_.substr(start, pos_ - 1 - start);
    }
    if (c == '\\') break;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    ++pos_;
  }
  scratch_.assign(text_.substr(start, pos_ - start));
  while (true) {
    if (at_end()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch_;
    if (static_cast<unsigned char>(c) < 0x20) {
      --pos_;
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      scratch_.push_back(c);
      continue;
    }
    if (at_end()) fail("unterminated escape");
    const char escape = text_[pos_++];
    switch (escape) {
      case '"': scratch_.push_back('"'); break;
      case '\\': scratch_.push_back('\\'); break;
      case '/': scratch_.push_back('/'); break;
      case 'b': scratch_.push_back('\b'); break;
      case 'f': scratch_.push_back('\f'); break;
      case 'n': scratch_.push_back('\n'); break;
      case 'r': scratch_.push_back('\r'); break;
      case 't': scratch_.push_back('\t'); break;
      case 'u': {
        std::uint32_t code_point = parse_hex4();
        if (code_point >= 0xD800 && code_point <= 0xDBFF) {
          // High surrogate: a \uDC00–\uDFFF low half must follow.
          if (text_.substr(pos_, 2) != "\\u") {
            fail("lone high surrogate");
          }
          pos_ += 2;
          const std::uint32_t low = parse_hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
          code_point =
              0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
        } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
          fail("lone low surrogate");
        }
        append_utf8(scratch_, code_point);
        break;
      }
      default:
        --pos_;
        fail("invalid escape character");
    }
  }
}

std::uint32_t JsonReader::parse_hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
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
      --pos_;
      fail("invalid hex digit in \\u escape");
    }
  }
  return value;
}

bool JsonReader::enter_array() {
  expect('[');
  skip_whitespace();
  if (!at_end() && peek() == ']') {
    ++pos_;
    return false;
  }
  ++depth_;
  return true;
}

bool JsonReader::next_element() {
  skip_whitespace();
  if (at_end()) fail("unterminated array");
  if (peek() == ',') {
    ++pos_;
    return true;
  }
  expect(']');
  --depth_;
  return false;
}

bool JsonReader::enter_object() {
  expect('{');
  skip_whitespace();
  if (!at_end() && peek() == '}') {
    ++pos_;
    return false;
  }
  ++depth_;
  return true;
}

std::string_view JsonReader::read_key() {
  skip_whitespace();
  if (at_end() || peek() != '"') fail("expected object key string");
  const std::string_view key = read_string();
  skip_whitespace();
  expect(':');
  return key;
}

bool JsonReader::next_member() {
  skip_whitespace();
  if (at_end()) fail("unterminated object");
  if (peek() == ',') {
    ++pos_;
    return true;
  }
  expect('}');
  --depth_;
  return false;
}

void JsonReader::skip(Kind kind) {
  switch (kind) {
    case Kind::kNull:
      read_null();
      return;
    case Kind::kBool:
      (void)read_bool();
      return;
    case Kind::kNumber:
      (void)read_number();
      return;
    case Kind::kString:
      (void)read_string();
      return;
    case Kind::kArray:
      if (enter_array()) {
        do {
          skip(begin_value());
        } while (next_element());
      }
      return;
    case Kind::kObject:
      if (enter_object()) {
        do {
          (void)read_key();
          skip(begin_value());
        } while (next_member());
      }
      return;
  }
}

void JsonReader::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) {
    fail("trailing characters after JSON document");
  }
}

JsonValue JsonValue::parse(std::string_view text, std::size_t max_depth) {
  JsonReader reader(text, max_depth);
  JsonValue value = build_value(reader);
  reader.finish();
  return value;
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_mismatch("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_mismatch("a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_mismatch("a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_mismatch("an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_mismatch("an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) type_mismatch("an object");
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_array(Array value) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_object(Object value) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(value);
  return v;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

}  // namespace confcall::support
