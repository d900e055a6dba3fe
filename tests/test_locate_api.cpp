// The POST /locate wire format (cellular/locate_api.h): request grammar
// acceptance/rejection and the response object shape. The HTTP path on
// top of it is exercised end to end by bench_e16 and the CI serve
// smoke; here we pin the contract itself.
#include "cellular/locate_api.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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
