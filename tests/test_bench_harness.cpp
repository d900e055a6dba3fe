// bench/harness.h: the record, gates and exit code shared by the
// JSON-emitting experiment benches. CI reads these records (strict
// bench_compare paths, the gates.always smoke rule), so their shape is a
// contract: members keep insertion order, integer verdicts stay numbers,
// and "gates"/"pass" agree with the exit code.
#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "support/json.h"

namespace confcall::bench {
namespace {

using support::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Runs a harness over `gates` with --out in the test temp dir and
/// returns finish()'s exit code; `record_out` receives the parsed file.
int run_gates(const std::vector<std::pair<bool, Gate>>& gates,
              JsonValue* record_out) {
  const std::string path = ::testing::TempDir() + "bench_harness_gates.json";
  const char* argv[] = {"bench_test", "--smoke", "--out", path.c_str()};
  Harness harness("E99", "harness test", 4, argv);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    harness.gate("gate_" + std::to_string(i), gates[i].first, gates[i].second);
  }
  const int code = harness.finish();
  *record_out = JsonValue::parse(read_file(path));
  std::remove(path.c_str());
  return code;
}

TEST(BenchHarness, NestedRecordRoundTripsInInsertionOrder) {
  Json record;
  record["zeta"] = "first \"quoted\"";
  record["alpha"]["inner_b"] = 2.5;
  record["alpha"]["inner_a"] = false;
  record["cells"].append()["x"] = 1;
  record["cells"].append()["x"] = 2;
  record["empty"] = Json::object();
  record["series"] = std::vector<double>{0.5, 1.5};
  record["zeta"] = "overwritten in place";

  const JsonValue parsed = JsonValue::parse(record.dump());
  const JsonValue::Object& top = parsed.as_object();
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].first, "zeta");
  EXPECT_EQ(top[0].second.as_string(), "overwritten in place");
  EXPECT_EQ(top[1].first, "alpha");
  const JsonValue::Object& alpha = top[1].second.as_object();
  ASSERT_EQ(alpha.size(), 2u);
  EXPECT_EQ(alpha[0].first, "inner_b");
  EXPECT_DOUBLE_EQ(alpha[0].second.as_number(), 2.5);
  EXPECT_EQ(alpha[1].first, "inner_a");
  EXPECT_FALSE(alpha[1].second.as_bool());
  const JsonValue::Array& cells = top[2].second.as_array();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[1].find("x")->as_number(), 2.0);
  EXPECT_TRUE(top[3].second.is_object());
  EXPECT_TRUE(top[3].second.as_object().empty());
  ASSERT_EQ(top[4].second.as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(top[4].second.as_array()[1].as_number(), 1.5);
}

TEST(BenchHarness, IntegerLeavesStayNumbers) {
  Json record;
  record["determinism_identical"] = 1;
  record["exemplar_captured"] = 0;
  record["count"] = std::uint64_t{18446744073709551615ULL};
  record["not_finite"] = std::numeric_limits<double>::infinity();
  const std::string text = record.dump();
  EXPECT_NE(text.find("\"determinism_identical\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"count\": 18446744073709551615"), std::string::npos);

  const JsonValue parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.find("determinism_identical")->is_number());
  EXPECT_DOUBLE_EQ(parsed.find("determinism_identical")->as_number(), 1.0);
  ASSERT_TRUE(parsed.find("exemplar_captured")->is_number());
  EXPECT_DOUBLE_EQ(parsed.find("exemplar_captured")->as_number(), 0.0);
  EXPECT_TRUE(parsed.find("not_finite")->is_null());
}

TEST(BenchHarness, GatesAndExitCodeAgree) {
  JsonValue record;
  EXPECT_EQ(run_gates({{true, Gate::kAlways}, {true, Gate::kQuietHost}},
                      &record),
            0);
  EXPECT_TRUE(record.find("pass")->as_bool());
  EXPECT_TRUE(record.find("smoke")->as_bool());
  EXPECT_EQ(record.find("experiment")->as_string(), "E99");
  EXPECT_DOUBLE_EQ(record.find("hardware_concurrency")->as_number(),
                   static_cast<double>(support::resolve_threads(0)));
  const JsonValue* gates = record.find("gates");
  EXPECT_TRUE(gates->find("always")->find("gate_0")->as_bool());
  EXPECT_TRUE(gates->find("quiet_host")->find("gate_1")->as_bool());

  // A failing quiet-host gate still fails the exit code; CI's smoke rule
  // reads gates.always, which stays all-true.
  EXPECT_EQ(run_gates({{true, Gate::kAlways}, {false, Gate::kQuietHost}},
                      &record),
            1);
  EXPECT_FALSE(record.find("pass")->as_bool());
  gates = record.find("gates");
  EXPECT_TRUE(gates->find("always")->find("gate_0")->as_bool());
  EXPECT_FALSE(gates->find("quiet_host")->find("gate_1")->as_bool());

  EXPECT_EQ(run_gates({{false, Gate::kAlways}}, &record), 1);
  EXPECT_FALSE(record.find("pass")->as_bool());
  EXPECT_FALSE(record.find("gates")->find("always")->find("gate_0")->as_bool());
  EXPECT_TRUE(record.find("gates")->find("quiet_host")->as_object().empty());
}

TEST(BenchHarness, MalformedFlagsExitTwo) {
  const char* argv[] = {"bench_test", "--bogus"};
  EXPECT_EXIT(Harness("E99", "harness test", 2, argv),
              ::testing::ExitedWithCode(2), "unknown flag --bogus");
}

TEST(BenchHarness, BestOfInterleavedAlternatesSidesAndKeepsMaxima) {
  std::string order;
  const std::vector<double> a_results{3.0, 7.0, 5.0};
  const std::vector<double> b_results{-4.0, -2.0, -9.0};
  std::size_t a_calls = 0, b_calls = 0;
  const std::vector<double> best = best_of_interleaved(
      3, {[&] {
            order += 'a';
            return a_results[a_calls++];
          },
          [&] {
            order += 'b';
            return b_results[b_calls++];
          }});
  EXPECT_EQ(order, "ababab");
  ASSERT_EQ(best.size(), 2u);
  EXPECT_DOUBLE_EQ(best[0], 7.0);
  EXPECT_DOUBLE_EQ(best[1], -2.0);
}

}  // namespace
}  // namespace confcall::bench
