// The POST /locate wire format (cellular/locate_api.h): request grammar
// acceptance/rejection and the response object shape. The HTTP path on
// top of it is exercised end to end by bench_e16 and the CI serve
// smoke; here we pin the contract itself.
#include "cellular/locate_api.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "prob/rng.h"
#include "support/json.h"

namespace confcall::cellular {
namespace {

constexpr std::size_t kNumUsers = 96;

TEST(LocateApi, EmptyBodyIsOneSyntheticCall) {
  for (const char* body : {"", "   ", "\r\n \t"}) {
    const LocateApiRequest request = parse_locate_body(body, kNumUsers);
    EXPECT_FALSE(request.batch);
    ASSERT_EQ(request.calls.size(), 1u);
    EXPECT_TRUE(request.calls[0].users.empty());
  }
}

TEST(LocateApi, EmptyObjectIsOneSyntheticCall) {
  const LocateApiRequest request = parse_locate_body("{}", kNumUsers);
  EXPECT_FALSE(request.batch);
  ASSERT_EQ(request.calls.size(), 1u);
  EXPECT_TRUE(request.calls[0].users.empty());
}

TEST(LocateApi, ExplicitUsersParsed) {
  const LocateApiRequest request =
      parse_locate_body("{\"users\": [3, 17, 41]}", kNumUsers);
  EXPECT_FALSE(request.batch);
  ASSERT_EQ(request.calls.size(), 1u);
  EXPECT_EQ(request.calls[0].users,
            (std::vector<UserId>{3u, 17u, 41u}));
}

TEST(LocateApi, AreaMemberRoutesTheCall) {
  const LocateApiRequest request = parse_locate_body(
      "{\"users\": [3], \"area\": 5}", kNumUsers, /*num_areas=*/8);
  ASSERT_EQ(request.calls.size(), 1u);
  EXPECT_EQ(request.calls[0].area, 5u);
  EXPECT_EQ(request.calls[0].users, (std::vector<UserId>{3u}));
}

TEST(LocateApi, AreaDefaultsToZero) {
  const LocateApiRequest request =
      parse_locate_body("{\"users\": [3]}", kNumUsers, /*num_areas=*/8);
  ASSERT_EQ(request.calls.size(), 1u);
  EXPECT_EQ(request.calls[0].area, 0u);
}

TEST(LocateApi, AreaRejectedOutsideTheFleet) {
  // Single-service deployments (the num_areas = 1 default) accept only
  // area 0; everything else is a 400, not a silent clamp.
  EXPECT_NO_THROW((void)parse_locate_body("{\"area\": 0}", kNumUsers));
  const char* bad[] = {
      "{\"area\": 1}",          // out of range at the default num_areas
      "{\"area\": -1}",         // negative
      "{\"area\": 1.5}",        // non-integer
      "{\"area\": \"2\"}",      // non-numeric
  };
  for (const char* body : bad) {
    EXPECT_THROW((void)parse_locate_body(body, kNumUsers),
                 std::invalid_argument)
        << "accepted: " << body;
  }
  EXPECT_THROW((void)parse_locate_body("{\"area\": 8}", kNumUsers,
                                       /*num_areas=*/8),
               std::invalid_argument);
}

TEST(LocateApi, ArrayIsABatch) {
  const LocateApiRequest request = parse_locate_body(
      "[{\"users\": [1, 2]}, {}, {\"users\": [95]}]", kNumUsers);
  EXPECT_TRUE(request.batch);
  ASSERT_EQ(request.calls.size(), 3u);
  EXPECT_EQ(request.calls[0].users, (std::vector<UserId>{1u, 2u}));
  EXPECT_TRUE(request.calls[1].users.empty());
  EXPECT_EQ(request.calls[2].users, (std::vector<UserId>{95u}));
}

TEST(LocateApi, EmptyArrayIsAnEmptyBatch) {
  const LocateApiRequest request = parse_locate_body("[]", kNumUsers);
  EXPECT_TRUE(request.batch);
  EXPECT_TRUE(request.calls.empty());
}

TEST(LocateApi, RejectsMalformedBodies) {
  const char* bad[] = {
      "{\"users\": [1,",            // malformed JSON
      "42",                         // not object or array
      "\"users\"",                  // not object or array
      "{\"cells\": [1]}",           // unknown member
      "{\"users\": 3}",             // users not an array
      "{\"users\": [\"a\"]}",       // non-numeric id
      "{\"users\": [1.5]}",         // non-integer id
      "{\"users\": [-1]}",          // negative id
      "{\"users\": [96]}",          // out of range (num_users = 96)
      "{\"users\": [5, 5]}",        // duplicate within a call
      "[{\"users\": [1]}, 7]",      // non-object batch element
  };
  for (const char* body : bad) {
    EXPECT_THROW((void)parse_locate_body(body, kNumUsers),
                 std::invalid_argument)
        << "accepted: " << body;
  }
}

TEST(LocateApi, RepeatedCallMembersRejected) {
  // A JSON object may repeat a key; a call may not. Each body is valid
  // but for the repeat (areas 1 and 2 exist at num_areas = 8).
  const char* bad[] = {
      "{\"users\": [1, 2], \"users\": [1]}",
      "{\"area\": 1, \"area\": 2, \"users\": [3]}",
      "[{\"users\": [1]}, {\"users\": [2], \"area\": 1, \"users\": [3]}]",
  };
  for (const char* body : bad) {
    try {
      (void)parse_locate_body(body, kNumUsers, /*num_areas=*/8);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("repeated call member"),
                std::string::npos)
          << body << ": " << error.what();
    }
  }
}

TEST(LocateApi, DuplicatesAllowedAcrossBatchElements) {
  const LocateApiRequest request = parse_locate_body(
      "[{\"users\": [1, 2]}, {\"users\": [1, 2]}]", kNumUsers);
  EXPECT_EQ(request.calls.size(), 2u);
}

// ---------------------------------------------- differential reference
// parse_locate_body decodes in one pass over a pull reader. This is the
// grammar written the obvious way instead — a DOM first, then a walk
// over it — so the two can be checked against each other.

[[noreturn]] void reference_reject(const std::string& message) {
  throw std::invalid_argument(message);
}

LocateCallSpec reference_call(const support::JsonValue& value,
                              std::size_t num_users, std::size_t num_areas) {
  if (!value.is_object()) reference_reject("each call must be a JSON object");
  LocateCallSpec spec;
  bool seen_area = false;
  bool seen_users = false;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "area" || key == "users") {
      bool& seen = key == "area" ? seen_area : seen_users;
      if (seen) reference_reject("repeated call member '" + key + "'");
      seen = true;
    }
    if (key == "area") {
      if (!member.is_number()) reference_reject("\"area\" must be a number");
      const double raw = member.as_number();
      if (raw < 0 || raw != std::floor(raw) ||
          raw >= static_cast<double>(num_areas)) {
        reference_reject("area out of range [0, " +
                         std::to_string(num_areas) + ")");
      }
      spec.area = static_cast<std::size_t>(raw);
      continue;
    }
    if (key != "users") {
      reference_reject("unknown call member '" + key +
                       "' (only \"users\" and \"area\" are known)");
    }
    if (!member.is_array()) {
      reference_reject("\"users\" must be an array of user ids");
    }
    std::set<UserId> seen_ids;
    for (const support::JsonValue& id : member.as_array()) {
      if (!id.is_number()) reference_reject("user ids must be numbers");
      const double raw = id.as_number();
      if (raw < 0 || raw != std::floor(raw) ||
          raw >= static_cast<double>(num_users)) {
        reference_reject("user id out of range [0, " +
                         std::to_string(num_users) + ")");
      }
      const auto user = static_cast<UserId>(raw);
      if (!seen_ids.insert(user).second) {
        reference_reject("duplicate user id " + std::to_string(user));
      }
      spec.users.push_back(user);
    }
  }
  return spec;
}

LocateApiRequest reference_parse(std::string_view body, std::size_t num_users,
                                 std::size_t num_areas) {
  LocateApiRequest request;
  if (body.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    request.calls.emplace_back();
    return request;
  }
  support::JsonValue document;
  try {
    document = support::JsonValue::parse(body);
  } catch (const support::JsonError& error) {
    reference_reject("malformed JSON at byte " +
                     std::to_string(error.offset()) + ": " + error.what());
  }
  if (document.is_array()) {
    request.batch = true;
    for (const support::JsonValue& element : document.as_array()) {
      request.calls.push_back(reference_call(element, num_users, num_areas));
    }
    return request;
  }
  if (!document.is_object()) {
    reference_reject(
        "request body must be a call object or an array of call objects");
  }
  request.calls.push_back(reference_call(document, num_users, num_areas));
  return request;
}

/// The outcome of one parse as text: every call, or the rejection.
template <typename Parse>
std::string outcome_of(Parse parse, std::string_view body) {
  try {
    const LocateApiRequest request = parse(body);
    std::string out = request.batch ? "batch" : "single";
    for (const LocateCallSpec& call : request.calls) {
      out += " area " + std::to_string(call.area) + " users";
      for (const UserId user : call.users) out += ' ' + std::to_string(user);
      out += ';';
    }
    return out;
  } catch (const std::invalid_argument& error) {
    return std::string("rejected: ") + error.what();
  }
}

TEST(LocateApi, OnePassDecoderMatchesTheDomWalk) {
  constexpr std::size_t kAreas = 4;
  const auto decoder = [](std::string_view body) {
    return parse_locate_body(body, kNumUsers, kAreas);
  };
  const auto reference = [](std::string_view body) {
    return reference_parse(body, kNumUsers, kAreas);
  };
  // Every body the other LocateApi tests use, then seeded mutants of a
  // few well-formed ones (edits from the grammar's own alphabet, so most
  // mutants get deep before they break).
  std::vector<std::string> bodies = {
      "", "   ", "{}", "[]", "{\"users\": [3, 17, 41]}",
      "{\"users\": [3], \"area\": 5}", "{\"area\": 0}", "{\"area\": 1}",
      "{\"area\": -1}", "{\"area\": 1.5}", "{\"area\": \"2\"}",
      "[{\"users\": [1, 2]}, {}, {\"users\": [95]}]",
      "{\"users\": [1,", "42", "\"users\"", "{\"cells\": [1]}",
      "{\"users\": 3}", "{\"users\": [\"a\"]}", "{\"users\": [1.5]}",
      "{\"users\": [-1]}", "{\"users\": [96]}", "{\"users\": [5, 5]}",
      "[{\"users\": [1]}, 7]", "{\"users\": [1, 2], \"users\": [1]}",
      "{\"area\": 1, \"area\": 2, \"users\": [3]}",
      "[{\"users\": [1]}, {\"users\": [2], \"area\": 1, \"users\": [3]}]",
      "[{\"users\": [1, 2]}, {\"users\": [1, 2]}]",
      "{\"us\\u0065rs\": [1], \"\\u0061rea\": 3}",
      "{\"users\": [5, 5, \"a\"]} x", "[{\"users\": [1e1, -0, 2.0E0]}]",
  };
  std::string long_call = "{\"users\": [";
  for (std::size_t user = 0; user < kNumUsers; ++user) {
    long_call += (user > 0 ? ", " : "") + std::to_string(user);
  }
  bodies.push_back(long_call + "]}");
  bodies.push_back(long_call + ", 40]}");  // a repeat after every id
  const std::string seeds[] = {
      "{\"users\": [3, 17, 41], \"area\": 2}",
      "[{\"users\": [1, 2]}, {}, {\"users\": [95], \"area\": 3}]",
      "  [ {\"users\":[0,1,2]} , {\"area\" : 1} ]  ",
  };
  const std::string_view alphabet("{}[],:\" 0123456789.-+eEusra\\tfnl");
  prob::Rng rng(0x10ca7e);
  for (int iter = 0; iter < 6000; ++iter) {
    std::string body = seeds[iter % 3];
    const std::size_t edits = 1 + rng.next_below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.next_below(body.size());
      const char c = alphabet[rng.next_below(alphabet.size())];
      switch (rng.next_below(3)) {
        case 0: body[at] = c; break;
        case 1: body.insert(body.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        default: body.erase(at, 1); break;
      }
      if (body.empty()) body = "x";
    }
    bodies.push_back(std::move(body));
  }
  std::size_t accepted = 0;
  for (const std::string& body : bodies) {
    const std::string want = outcome_of(reference, body);
    ASSERT_EQ(outcome_of(decoder, body), want) << "body: " << body;
    accepted += want.rfind("rejected", 0) != 0 ? 1 : 0;
  }
  // The sweep must exercise both sides of the grammar.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(bodies.size() - accepted, 100u);
}

TEST(LocateApi, ShedOutcomeJson) {
  std::string out;
  append_outcome_json(out, /*admitted=*/false, /*participants=*/4,
                      nullptr);
  const support::JsonValue parsed = support::JsonValue::parse(out);
  EXPECT_FALSE(parsed.find("admitted")->as_bool());
  EXPECT_DOUBLE_EQ(parsed.find("participants")->as_number(), 4.0);
  EXPECT_EQ(parsed.find("cells_paged"), nullptr);
}

TEST(LocateApi, AdmittedOutcomeJsonCarriesTheContractFields) {
  LocationService::LocateOutcome outcome;
  outcome.cells_paged = 12;
  outcome.rounds_used = 2;
  outcome.retries = 1;
  outcome.abandoned = false;
  outcome.degraded = true;
  outcome.deadline_limited = false;
  std::string out;
  append_outcome_json(out, /*admitted=*/true, /*participants=*/3,
                      &outcome);
  const support::JsonValue parsed = support::JsonValue::parse(out);
  EXPECT_TRUE(parsed.find("admitted")->as_bool());
  EXPECT_DOUBLE_EQ(parsed.find("participants")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(parsed.find("cells_paged")->as_number(), 12.0);
  EXPECT_DOUBLE_EQ(parsed.find("rounds_used")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(parsed.find("retries")->as_number(), 1.0);
  EXPECT_FALSE(parsed.find("abandoned")->as_bool());
  EXPECT_TRUE(parsed.find("degraded")->as_bool());
  EXPECT_FALSE(parsed.find("deadline_limited")->as_bool());
}

}  // namespace
}  // namespace confcall::cellular
