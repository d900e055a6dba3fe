// Response checks for POST /locate, independent of the product's own
// JSON code: a small strict parser (objects, arrays, strings, numbers,
// literals) and the per-call outcome rules the benchmark enforces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* find(std::string_view key) const {
    for (const auto& member : members) {
      if (member.first == key) return &member.second;
    }
    return nullptr;
  }
};

/// Strict parse of one JSON document (surrounding whitespace allowed).
/// False on any syntax error or trailing bytes.
inline bool parse_json(std::string_view in, Json* out) {
  struct Parser {
    std::string_view s;
    std::size_t i = 0;
    void ws() {
      while (i < s.size() &&
             (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t')) {
        ++i;
      }
    }
    bool lit(std::string_view word) {
      if (s.substr(i, word.size()) != word) return false;
      i += word.size();
      return true;
    }
    bool string(std::string* out) {
      if (i >= s.size() || s[i] != '"') return false;
      ++i;
      while (i < s.size() && s[i] != '"') {
        if (static_cast<unsigned char>(s[i]) < 0x20) return false;
        if (s[i] == '\\') {
          if (++i >= s.size()) return false;
          if (s[i] == 'u') {
            if (i + 4 >= s.size()) return false;
            i += 4;  // the checks never compare escaped text
          }
        }
        out->push_back(s[i++]);
      }
      if (i >= s.size()) return false;
      ++i;
      return true;
    }
    bool number(double* out) {
      const std::size_t start = i;
      if (i < s.size() && s[i] == '-') ++i;
      if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
      if (s[i] == '0') {
        ++i;
      } else {
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
      }
      if (i < s.size() && s[i] == '.') {
        ++i;
        if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
      }
      if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
        if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
      }
      *out = std::stod(std::string(s.substr(start, i - start)));
      return true;
    }
    bool value(Json* out, int depth) {
      if (depth > 32) return false;
      ws();
      if (i >= s.size()) return false;
      const char c = s[i];
      if (c == '{') {
        out->type = Json::Type::kObject;
        ++i;
        ws();
        if (i < s.size() && s[i] == '}') return ++i, true;
        for (;;) {
          ws();
          std::pair<std::string, Json> member;
          if (!string(&member.first)) return false;
          ws();
          if (i >= s.size() || s[i++] != ':') return false;
          if (!value(&member.second, depth + 1)) return false;
          out->members.push_back(std::move(member));
          ws();
          if (i >= s.size()) return false;
          if (s[i] == '}') return ++i, true;
          if (s[i++] != ',') return false;
        }
      }
      if (c == '[') {
        out->type = Json::Type::kArray;
        ++i;
        ws();
        if (i < s.size() && s[i] == ']') return ++i, true;
        for (;;) {
          Json item;
          if (!value(&item, depth + 1)) return false;
          out->items.push_back(std::move(item));
          ws();
          if (i >= s.size()) return false;
          if (s[i] == ']') return ++i, true;
          if (s[i++] != ',') return false;
        }
      }
      if (c == '"') {
        out->type = Json::Type::kString;
        return string(&out->text);
      }
      if (c == 't' || c == 'f') {
        out->type = Json::Type::kBool;
        out->boolean = c == 't';
        return lit(c == 't' ? "true" : "false");
      }
      if (c == 'n') return lit("null");
      out->type = Json::Type::kNumber;
      return number(&out->number);
    }
  } parser{in};
  if (!parser.value(out, 0)) return false;
  parser.ws();
  return parser.i == in.size();
}

/// The delay constraint d of the scenarios' service config: a fault-free
/// call never uses more paging rounds.
inline constexpr std::uint64_t kMaxRounds = 3;

/// What one checked POST /locate response contributed.
struct CallTally {
  std::uint64_t calls = 0;
  std::uint64_t pages = 0;
  std::uint64_t retries = 0;
  std::vector<std::uint64_t> rounds;  ///< one entry per answered call
};

/// Checks one 200 response against the request's participant counts:
/// valid JSON, one outcome per call (an array exactly when the request
/// was a batch), `participants` echoing the request, every call
/// admitted with integral counters. With `strict`, also retries == 0 and
/// rounds_used <= kMaxRounds.
/// Returns an empty string when the response passes, else the reason.
inline std::string check_locate_response(
    std::string_view body, const std::vector<std::uint8_t>& participants,
    bool batch, bool strict, CallTally* tally) {
  Json doc;
  if (!parse_json(body, &doc)) return "response is not valid JSON";
  std::vector<const Json*> outcomes;
  if (batch) {
    if (doc.type != Json::Type::kArray) return "batch answered by non-array";
    for (const Json& item : doc.items) outcomes.push_back(&item);
  } else {
    outcomes.push_back(&doc);
  }
  if (outcomes.size() != participants.size()) {
    return "expected " + std::to_string(participants.size()) +
           " outcomes, got " + std::to_string(outcomes.size());
  }
  const auto count = [](const Json& call, std::string_view key,
                        std::uint64_t* out) {
    const Json* field = call.find(key);
    if (field == nullptr || field->type != Json::Type::kNumber ||
        field->number < 0 || field->number > 1e15 ||
        field->number != static_cast<double>(
                             static_cast<std::uint64_t>(field->number))) {
      return false;
    }
    *out = static_cast<std::uint64_t>(field->number);
    return true;
  };
  for (std::size_t c = 0; c < outcomes.size(); ++c) {
    const Json& call = *outcomes[c];
    if (call.type != Json::Type::kObject) return "outcome is not an object";
    const Json* admitted = call.find("admitted");
    if (admitted == nullptr || admitted->type != Json::Type::kBool ||
        !admitted->boolean) {
      return "call not admitted";
    }
    std::uint64_t seen = 0, pages = 0, rounds = 0, retries = 0;
    if (!count(call, "participants", &seen) || seen != participants[c]) {
      return "participants does not match the request";
    }
    if (!count(call, "cells_paged", &pages) ||
        !count(call, "rounds_used", &rounds) ||
        !count(call, "retries", &retries)) {
      return "outcome lacks cells_paged/rounds_used/retries";
    }
    if (pages == 0 || rounds == 0) return "answered call paged nothing";
    if (strict && retries != 0) return "retries on a fault-free workload";
    if (strict && rounds > kMaxRounds) {
      return "rounds_used " + std::to_string(rounds) + " exceeds d = " +
             std::to_string(kMaxRounds);
    }
    tally->calls += 1;
    tally->pages += pages;
    tally->retries += retries;
    tally->rounds.push_back(rounds);
  }
  return "";
}

}  // namespace perfbench
