#include "cellular/locate_api.h"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "support/json.h"

namespace confcall::cellular {

namespace {

[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument(message);
}

LocateCallSpec parse_call_object(const support::JsonValue& value,
                                 std::size_t num_users,
                                 std::size_t num_areas) {
  if (!value.is_object()) {
    reject("each call must be a JSON object");
  }
  LocateCallSpec spec;
  bool seen_area = false;
  bool seen_users = false;
  // The JSON object keeps every member in order, a repeated key included:
  // taking the last "area" or concatenating two "users" lists would route
  // the call, or page a callee twice, behind the client's back.
  const auto once = [](bool& seen, const std::string& key) {
    if (seen) reject("repeated call member '" + key + "'");
    seen = true;
  };
  for (const auto& [key, member] : value.as_object()) {
    if (key == "area") {
      once(seen_area, key);
      if (!member.is_number()) {
        reject("\"area\" must be a number");
      }
      const double raw = member.as_number();
      if (raw < 0 || raw != std::floor(raw) ||
          raw >= static_cast<double>(num_areas)) {
        reject("area out of range [0, " + std::to_string(num_areas) + ")");
      }
      spec.area = static_cast<std::size_t>(raw);
      continue;
    }
    if (key != "users") {
      reject("unknown call member '" + key +
             "' (only \"users\" and \"area\" are known)");
    }
    once(seen_users, key);
    if (!member.is_array()) {
      reject("\"users\" must be an array of user ids");
    }
    std::unordered_set<UserId> seen;
    for (const support::JsonValue& id : member.as_array()) {
      if (!id.is_number()) {
        reject("user ids must be numbers");
      }
      const double raw = id.as_number();
      if (raw < 0 || raw != std::floor(raw) ||
          raw >= static_cast<double>(num_users)) {
        reject("user id out of range [0, " + std::to_string(num_users) +
               ")");
      }
      const auto user = static_cast<UserId>(raw);
      if (!seen.insert(user).second) {
        reject("duplicate user id " + std::to_string(user));
      }
      spec.users.push_back(user);
    }
  }
  return spec;
}

}  // namespace

LocateApiRequest parse_locate_body(std::string_view body,
                                   std::size_t num_users,
                                   std::size_t num_areas) {
  LocateApiRequest request;
  // Historical contract: an empty body serves one synthetic call.
  const bool blank =
      body.find_first_not_of(" \t\r\n") == std::string_view::npos;
  if (blank) {
    request.calls.emplace_back();
    return request;
  }
  support::JsonValue document;
  try {
    document = support::JsonValue::parse(body);
  } catch (const support::JsonError& error) {
    reject(std::string("malformed JSON at byte ") +
           std::to_string(error.offset()) + ": " + error.what());
  }
  if (document.is_array()) {
    request.batch = true;
    for (const support::JsonValue& element : document.as_array()) {
      request.calls.push_back(
          parse_call_object(element, num_users, num_areas));
    }
    return request;
  }
  if (document.is_object()) {
    request.calls.push_back(parse_call_object(document, num_users, num_areas));
    return request;
  }
  reject("request body must be a call object or an array of call objects");
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
