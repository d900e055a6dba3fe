#include "cellular/locate_api.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/json.h"

namespace confcall::cellular {

namespace {

using support::JsonReader;

[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument(message);
}

[[noreturn]] void reject_malformed(const support::JsonError& error) {
  reject(std::string("malformed JSON at byte ") +
         std::to_string(error.offset()) + ": " + error.what());
}

/// A member value must be a whole number in [0, bound).
[[nodiscard]] bool in_range(double raw, std::size_t bound) {
  return !(raw < 0 || raw != std::floor(raw) ||
           raw >= static_cast<double>(bound));
}

/// Decodes one body in a single pass over the reader. Rejections are
/// thrown where they are met, in document order.
class CallDecoder {
 public:
  CallDecoder(std::string_view body, std::size_t num_users,
              std::size_t num_areas)
      : reader_(body), num_users_(num_users), num_areas_(num_areas) {}

  LocateApiRequest decode() {
    LocateApiRequest request;
    const JsonReader::Kind kind = reader_.begin_value();
    if (kind == JsonReader::Kind::kArray) {
      request.batch = true;
      if (reader_.enter_array()) {
        do {
          read_call(reader_.begin_value(), request.calls.emplace_back());
        } while (reader_.next_element());
      }
    } else if (kind == JsonReader::Kind::kObject) {
      read_call(kind, request.calls.emplace_back());
    } else {
      reject("request body must be a call object or an array of call "
             "objects");
    }
    reader_.finish();
    return request;
  }

 private:
  void read_call(JsonReader::Kind kind, LocateCallSpec& spec) {
    if (kind != JsonReader::Kind::kObject) {
      reject("each call must be a JSON object");
    }
    if (!reader_.enter_object()) return;
    bool seen_area = false;
    bool seen_users = false;
    // A JSON object may repeat a key; a call may not: taking the last
    // "area" or concatenating two "users" lists would route the call, or
    // page a callee twice, behind the client's back.
    const auto once = [](bool& seen, std::string_view key) {
      if (seen) reject("repeated call member '" + std::string(key) + "'");
      seen = true;
    };
    do {
      const std::string_view key = reader_.read_key();
      if (key == "area") {
        once(seen_area, key);
        if (reader_.begin_value() != JsonReader::Kind::kNumber) {
          reject("\"area\" must be a number");
        }
        const double raw = reader_.read_number();
        if (!in_range(raw, num_areas_)) {
          reject("area out of range [0, " + std::to_string(num_areas_) +
                 ")");
        }
        spec.area = static_cast<std::size_t>(raw);
        continue;
      }
      if (key != "users") {
        reject("unknown call member '" + std::string(key) +
               "' (only \"users\" and \"area\" are known)");
      }
      once(seen_users, key);
      if (reader_.begin_value() != JsonReader::Kind::kArray) {
        reject("\"users\" must be an array of user ids");
      }
      if (!reader_.enter_array()) continue;
      do {
        if (reader_.begin_value() != JsonReader::Kind::kNumber) {
          reject("user ids must be numbers");
        }
        const double raw = reader_.read_number();
        if (!in_range(raw, num_users_)) {
          reject("user id out of range [0, " + std::to_string(num_users_) +
                 ")");
        }
        add_user(spec.users, static_cast<UserId>(raw));
      } while (reader_.next_element());
    } while (reader_.next_member());
  }

  /// Appends `user` unless the call already names it. A call holds at
  /// most num_users distinct ids, so the scan costs at most num_users²
  /// comparisons per call.
  static void add_user(std::vector<UserId>& users, UserId user) {
    if (std::find(users.begin(), users.end(), user) != users.end()) {
      reject("duplicate user id " + std::to_string(user));
    }
    if (users.empty()) users.reserve(8);
    users.push_back(user);
  }

  JsonReader reader_;
  std::size_t num_users_;
  std::size_t num_areas_;
};

}  // namespace

LocateApiRequest parse_locate_body(std::string_view body,
                                   std::size_t num_users,
                                   std::size_t num_areas) {
  // Historical contract: an empty body serves one synthetic call.
  const bool blank =
      body.find_first_not_of(" \t\r\n") == std::string_view::npos;
  if (blank) {
    LocateApiRequest request;
    request.calls.emplace_back();
    return request;
  }
  try {
    return CallDecoder(body, num_users, num_areas).decode();
  } catch (const support::JsonError& error) {
    reject_malformed(error);
  } catch (const std::invalid_argument&) {
    // A call was rejected mid-document. The body must be JSON before its
    // calls are judged, so a grammar error anywhere still wins: check the
    // whole body once more (rejections only, never the served path).
    try {
      JsonReader whole(body);
      whole.skip(whole.begin_value());
      whole.finish();
    } catch (const support::JsonError& error) {
      reject_malformed(error);
    }
    throw;
  }
}

void append_outcome_json(std::string& out, bool admitted,
                         std::size_t participants,
                         const LocationService::LocateOutcome* outcome) {
  if (!admitted) {
    out += "{\"admitted\": false, \"participants\": ";
    out += std::to_string(participants);
    out += "}";
    return;
  }
  out += "{\"admitted\": true, \"participants\": ";
  out += std::to_string(participants);
  out += ", \"cells_paged\": ";
  out += std::to_string(outcome->cells_paged);
  out += ", \"rounds_used\": ";
  out += std::to_string(outcome->rounds_used);
  out += ", \"retries\": ";
  out += std::to_string(outcome->retries);
  out += ", \"abandoned\": ";
  out += outcome->abandoned ? "true" : "false";
  out += ", \"degraded\": ";
  out += outcome->degraded ? "true" : "false";
  out += ", \"deadline_limited\": ";
  out += outcome->deadline_limited ? "true" : "false";
  out += "}";
}

}  // namespace confcall::cellular
