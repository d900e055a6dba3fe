// Minimal recursive-descent JSON reader — the read side of the wire.
//
// The repo has long had JSON *writers* (metric snapshots, trace events,
// bench reports); the batched POST /locate endpoint is what reads JSON:
// clients submit call batches and malformed input must be answered with
// a 400, not silently ignored. So the grammar is deliberately small:
//
//   * Strict RFC 8259 subset: null/true/false, numbers, strings
//     (including \uXXXX escapes with surrogate pairs, re-encoded as
//     UTF-8), arrays, objects. No comments, no trailing commas, no
//     NaN/Infinity literals.
//   * Every failure throws JsonError carrying the byte offset, so the
//     endpoint's 400 body can point at the problem.
//   * A nesting-depth cap (default 64) bounds recursion on adversarial
//     input — the HTTP layer already caps body size.
//
// There is one lexer, JsonReader: a pull reader over the input bytes.
// A caller asks for the next value's kind, then reads it (a number, a
// bool, a string view that points into the input unless it held
// escapes) or enters it (array elements and object members are pulled
// one at a time). Nothing is allocated but the decoded strings that
// needed escapes, so parse_locate_body (cellular/locate_api.h) decodes a
// request straight into its call specs without building a tree.
//
// JsonValue::parse is the same reader driven into a value tree, for
// callers that want a DOM (the tests, bench reports). Object members
// keep their source order (vector of pairs, not a map): callers that
// care about duplicates can see them, and `find` returns the first match
// like every mainstream parser.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace confcall::support {

/// Parse or access error; `offset` is the byte position in the input
/// where parsing failed (0 for type-mismatch accessor errors).
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset)
      : std::runtime_error(message), offset_(offset) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Pull reader over one JSON document. Usage: begin_value() names the
/// next value's kind; then exactly one of read_null/read_bool/
/// read_number/read_string/skip consumes a scalar, or enter_array/
/// enter_object opens a container (false: it was empty and is already
/// closed). Inside an array, read each element and call next_element()
/// (false: the array closed). Inside an object, read_key() then the
/// member's value, then next_member(). finish() checks that only
/// whitespace follows the document. Every grammar error throws
/// JsonError at the same byte offset JsonValue::parse reports.
class JsonReader {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  explicit JsonReader(std::string_view text, std::size_t max_depth = 64)
      : text_(text), max_depth_(max_depth) {}

  /// Skips whitespace and classifies the next value by its first byte
  /// (a malformed number or literal is reported when it is read).
  /// Throws at end of input or past the nesting cap.
  [[nodiscard]] Kind begin_value();

  void read_null();
  [[nodiscard]] bool read_bool();
  [[nodiscard]] double read_number();
  /// The decoded string. Points into the input when the string held no
  /// escapes, else into a buffer the next read_string/read_key reuses.
  [[nodiscard]] std::string_view read_string();

  [[nodiscard]] bool enter_array();
  [[nodiscard]] bool next_element();
  [[nodiscard]] bool enter_object();
  /// The next member's key (same lifetime as read_string), with the
  /// ':' after it consumed.
  [[nodiscard]] std::string_view read_key();
  [[nodiscard]] bool next_member();

  /// Consumes the rest of a value whose kind begin_value() returned,
  /// checking its grammar without keeping anything.
  void skip(Kind kind);

  /// Throws unless only whitespace is left.
  void finish();

  /// Byte offset of the next unread input byte.
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

 private:
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }
  void skip_whitespace() noexcept;
  [[noreturn]] void fail(const std::string& message) const;
  void expect(char c);
  void expect_literal(std::string_view literal);
  [[nodiscard]] std::uint32_t parse_hex4();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers entered and not yet closed
  std::size_t max_depth_;
  std::string scratch_;  ///< a string that held escapes, decoded
};

/// One parsed JSON value. Default-constructed = null.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  /// Parses exactly one JSON document; trailing non-whitespace is an
  /// error. Throws JsonError (with byte offset) on malformed input or
  /// nesting deeper than `max_depth`.
  [[nodiscard]] static JsonValue parse(std::string_view text,
                                       std::size_t max_depth = 64);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors throw JsonError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// First object member named `key`, or nullptr when absent. Throws
  /// JsonError when this value is not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Builders (used by the parser; handy in tests).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool value);
  static JsonValue make_number(double value);
  static JsonValue make_string(std::string value);
  static JsonValue make_array(Array value);
  static JsonValue make_object(Object value);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Used by handlers that hand-build
/// small JSON error bodies.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace confcall::support
