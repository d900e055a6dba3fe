// Randomized operation-sequence fuzzing: drive LocationService and the
// planners with random but legal operation streams and assert structural
// invariants after every step, and feed the text parsers hostile input.
// Complements the deterministic tests by exploring interleavings and
// byte soups no hand-written scenario covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cellular/locate_api.h"
#include "cellular/service.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/io.h"
#include "prob/distribution.h"
#include "support/http.h"
#include "test_util.h"

namespace confcall {
namespace {

using cellular::CellId;
using cellular::UserId;

TEST(Fuzz, LocationServiceInvariantsUnderRandomOps) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    prob::Rng rng(seed * 7919 + 13);
    const std::size_t rows = 2 + rng.next_below(5);
    const std::size_t cols = 2 + rng.next_below(5);
    const cellular::GridTopology grid(rows, cols, seed % 2 == 0);
    const cellular::LocationAreas areas = cellular::LocationAreas::tiles(
        grid, 1 + rng.next_below(rows), 1 + rng.next_below(cols));
    const cellular::MarkovMobility mobility(grid, 0.3);

    const std::size_t users = 2 + rng.next_below(6);
    std::vector<CellId> cells(users);
    for (auto& cell : cells) {
      cell = static_cast<CellId>(rng.next_below(grid.num_cells()));
    }
    cellular::LocationService::Config config;
    config.report_policy = static_cast<cellular::ReportPolicy>(
        rng.next_below(5));
    config.paging_policy =
        rng.next_below(2) == 0 ? cellular::PagingPolicy::kGreedy
                               : cellular::PagingPolicy::kBlanketArea;
    config.profile_kind = static_cast<cellular::ProfileKind>(
        rng.next_below(3));
    config.max_paging_rounds = 1 + rng.next_below(4);
    if (rng.next_below(3) == 0) config.detection_probability = 0.6;
    if (config.paging_policy == cellular::PagingPolicy::kGreedy &&
        rng.next_below(2) == 0) {
      config.retry.max_retries = rng.next_below(4);
      config.retry.backoff_base = rng.next_below(3);
      config.retry.page_budget = rng.next_below(2) == 0
                                     ? 0
                                     : 5 + rng.next_below(100);
    }
    cellular::LocationService service(grid, areas, mobility, config, cells);

    // Half the runs get random structured faults on top.
    cellular::FaultConfig fault_config;
    if (rng.next_below(2) == 0) {
      fault_config.cell_outage_rate = 0.2 * rng.next_double();
      fault_config.outage_duration = 1 + rng.next_below(30);
      fault_config.report_loss_rate = 0.4 * rng.next_double();
      fault_config.round_drop_rate = 0.3 * rng.next_double();
      fault_config.seed = seed ^ 0xfa17;
    }
    cellular::FaultPlan faults(fault_config, grid.num_cells());
    service.attach_faults(&faults);

    for (int op = 0; op < 300; ++op) {
      faults.begin_step();
      switch (rng.next_below(3)) {
        case 0: {  // move everyone one step
          for (std::size_t u = 0; u < users; ++u) {
            cells[u] = mobility.step(cells[u], rng);
            service.observe_move(static_cast<UserId>(u), cells[u]);
          }
          service.tick();
          break;
        }
        case 1: {  // locate a random nonempty subset
          std::vector<UserId> who;
          std::vector<CellId> truth;
          for (std::size_t u = 0; u < users; ++u) {
            if (rng.next_below(2) == 0) {
              who.push_back(static_cast<UserId>(u));
              truth.push_back(cells[u]);
            }
          }
          if (who.empty()) {
            who.push_back(0);
            truth.push_back(cells[0]);
          }
          const auto outcome = service.locate(who, truth, rng);
          // Sanity: a locate pages something and finishes.
          EXPECT_GE(outcome.cells_paged, 1u);
          // After a successful locate every callee's record is current.
          for (std::size_t k = 0; k < who.size(); ++k) {
            EXPECT_EQ(service.database().reported_cell(who[k]), truth[k]);
          }
          break;
        }
        default: {  // inspect profiles: always valid distributions
          const auto user = static_cast<UserId>(rng.next_below(users));
          const std::size_t area = service.database().reported_area(user);
          const auto profile = service.profile_for(user, area);
          double total = 0.0;
          for (const double p : profile) {
            EXPECT_GE(p, 0.0);
            total += p;
          }
          EXPECT_NEAR(total, 1.0, 1e-9);
          break;
        }
      }
      // Database coherence after every operation.
      for (std::size_t u = 0; u < users; ++u) {
        const CellId reported =
            service.database().reported_cell(static_cast<UserId>(u));
        EXPECT_LT(reported, grid.num_cells());
        EXPECT_EQ(service.database().reported_area(static_cast<UserId>(u)),
                  areas.area_of(reported));
      }
    }
    // Fault conservation: every report the plan swallowed was observed
    // by the service as lost, and vice versa.
    EXPECT_EQ(service.reports_lost(), faults.stats().reports_dropped);
  }
}

/// A few random edits of `text` — overwrite, insert or delete a byte
/// from `alphabet`, truncate, or repeat a short slice — so a mutant
/// stays close enough to a valid seed to reach deep into a grammar.
std::string mutate(std::string text, std::string_view alphabet,
                   prob::Rng& rng) {
  const std::size_t edits = 1 + rng.next_below(6);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : rng.next_below(text.size());
    const char c = alphabet[rng.next_below(alphabet.size())];
    switch (rng.next_below(5)) {
      case 0:
        if (!text.empty()) text[at] = c;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      case 2:
        if (!text.empty()) text.erase(at, 1);
        break;
      case 3:
        text.resize(at);
        break;
      default:
        text.insert(at, text.substr(at, rng.next_below(8)));
        break;
    }
  }
  return text;
}

TEST(Fuzz, ParsersRejectGarbageWithoutCrashing) {
  // Hostile-input sweep: random byte soup into every text parser. The
  // only acceptable outcomes are a parsed value or a rejection — a
  // std::invalid_argument, or a 4xx from the HTTP request parser —
  // never a crash, hang, or any other exception type.
  const char charset[] =
      "0123456789.eE+-{}|, \t\n#nanifconference-call-instance vmc";
  prob::Rng rng(0xbadf00d);
  for (int iter = 0; iter < 400; ++iter) {
    std::string text;
    const std::size_t length = rng.next_below(120);
    for (std::size_t k = 0; k < length; ++k) {
      text.push_back(charset[rng.next_below(sizeof(charset) - 1)]);
    }
    // Half the instance attempts get a valid header prefix so the row
    // parser and Instance validation see plenty of traffic too.
    std::string instance_text = text;
    if (iter % 2 == 0) {
      instance_text = "conference-call-instance v1 m 2 c 3\n" + text;
    }
    try {
      const core::Instance parsed = core::instance_from_text(instance_text);
      EXPECT_GE(parsed.num_devices(), 1u);
      EXPECT_GE(parsed.num_cells(), 1u);
    } catch (const std::invalid_argument&) {
      // expected for garbage
    }
    try {
      const core::Strategy parsed =
          core::strategy_from_text(text, 1 + rng.next_below(12));
      EXPECT_GE(parsed.num_rounds(), 1u);
    } catch (const std::invalid_argument&) {
      // expected for garbage
    }
  }

  // The HTTP request parser, on mutants of well-formed requests: a
  // complete parse carries exactly its Content-Length of body bytes.
  const std::string requests[] = {
      "POST /locate HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
      "Content-Type: application/json\r\nContent-Length: 21\r\n\r\n"
      "{\"users\": [0, 1, 2]}",
      "GET /metrics?name=x HTTP/1.0\r\nAccept: */*\r\n\r\n",
      " GET\t/readyz  HTTP/1.1 extra\r\nX-A:b\nContent-Length:  2 \r\n\r\nok",
  };
  const std::string_view http_alphabet(
      "GET POST/?:\r\n\t\v\f HTtp1.0123456789-Content-Length\0\xff", 50);
  support::HttpServerOptions options;
  options.max_request_bytes = 256;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string text = mutate(requests[iter % 3], http_alphabet, rng);
    support::HttpRequest request;
    support::HttpResponse error;
    std::size_t header_end = std::string_view::npos;
    const support::detail::RequestParse parsed = support::detail::parse_request(
        text, &header_end, options, &request, &error);
    if (parsed == support::detail::RequestParse::kRejected) {
      EXPECT_TRUE(error.status == 400 || error.status == 413 ||
                  error.status == 431)
          << error.status;
    } else if (parsed == support::detail::RequestParse::kComplete) {
      EXPECT_LE(header_end + 4 + request.body.size(), text.size());
      const std::string length = request.header("content-length");
      EXPECT_EQ(request.body.size(),
                length.empty() ? 0u : std::stoull(length));
      EXPECT_FALSE(request.method.empty());
    }
  }

  // The POST /locate decoder: whatever it accepts is a valid request.
  const std::string bodies[] = {
      "{\"users\": [3, 17, 41]}",
      "[{\"users\": [1, 2]}, {}, {\"users\": [95], \"area\": 2}]",
      "{\"area\": 1, \"users\": [5, 6, 7, 8]}",
      "[{\"us\\u0065rs\": [1, 2e0]}, {\"area\": 3}]",
  };
  const std::string_view json_alphabet("{}[],:\" 0123456789.-+eEusra\\tfn");
  constexpr std::size_t kUsers = 96;
  constexpr std::size_t kAreas = 4;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string body = mutate(bodies[iter % 4], json_alphabet, rng);
    try {
      const cellular::LocateApiRequest request =
          cellular::parse_locate_body(body, kUsers, kAreas);
      EXPECT_TRUE(request.batch || request.calls.size() == 1u);
      for (const cellular::LocateCallSpec& call : request.calls) {
        EXPECT_LT(call.area, kAreas);
        std::vector<UserId> users = call.users;
        std::sort(users.begin(), users.end());
        EXPECT_EQ(std::adjacent_find(users.begin(), users.end()), users.end());
        for (const UserId user : users) EXPECT_LT(user, kUsers);
      }
    } catch (const std::invalid_argument&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, PlannerOnRandomShapesNeverProducesInvalidStrategies) {
  prob::Rng rng(4242);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t m = 1 + rng.next_below(5);
    const std::size_t c = 2 + rng.next_below(14);
    const std::size_t d = 1 + rng.next_below(c);
    // Mix of spiky and flat rows, occasionally with zero entries.
    std::vector<prob::ProbabilityVector> rows;
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.next_below(4) == 0) {
        rows.push_back(prob::clustered_vector(c, 1 + rng.next_below(c),
                                              rng));
      } else {
        rows.push_back(prob::dirichlet_vector(c, 0.2 + rng.next_double(),
                                              rng));
      }
    }
    const core::Instance instance = core::Instance::from_rows(rows);
    const core::PlanResult plan = core::plan_greedy(instance, d);
    // Structural: partition validated by Strategy; EP within [1, c].
    EXPECT_EQ(plan.strategy.num_rounds(), d);
    EXPECT_GE(plan.expected_paging, 1.0 - 1e-9);
    EXPECT_LE(plan.expected_paging, static_cast<double>(c) + 1e-9);
    // Consistency with the evaluator.
    EXPECT_NEAR(plan.expected_paging,
                core::expected_paging(instance, plan.strategy), 1e-10);
  }
}

}  // namespace
}  // namespace confcall
