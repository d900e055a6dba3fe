// ServingNode: confcall_serve's serving node in-process, on port 0 and a
// ManualClock. Every HTTP route is checked against its contract (status
// codes, body shapes, /metrics byte-identity with an in-process render),
// checkpoint restore is checked to commit the fleet and the SLO
// controller together or not at all, and a concurrent storm of POSTs,
// scrapes, steps and checkpoints runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cellular/serving_node.h"
#include "cellular/simulator.h"
#include "support/http.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"
#include "support/state_io.h"

namespace confcall::cellular {
namespace {

/// The default 8x8 world: 32 users, calls of 2-4, short warm-up.
SimConfig small_world() {
  SimConfig config;
  config.warmup_steps = 20;
  config.call_rate = 1.0;
  config.seed = 11;
  return config;
}

/// small_world behind admission control and the resilient chain, with a
/// bucket that refills on the clock.
SimConfig overloaded_world() {
  SimConfig config = small_world();
  config.overload.enabled = true;
  config.overload.admission.bucket_capacity = 64.0;
  config.overload.admission.refill_per_sec = 4000.0;
  config.overload.call_deadline_ns = 8'000'000;
  config.overload.resilient_planner = true;
  config.overload.planner_node_limit = 50'000;
  return config;
}

/// A fresh temp file name, unique per test (ctest runs the tests of this
/// file in parallel processes sharing one temp dir).
std::string temp_path(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "serving_node_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  std::remove(path.c_str());
  return path;
}

struct Reply {
  int status = 0;
  std::string body;
  support::JsonValue json;
};

Reply call(const ServingNode& node, const std::string& method,
           const std::string& target, const std::string& body = "") {
  const support::HttpClientResponse response =
      support::http_request("127.0.0.1", node.port(), method, target, body);
  Reply reply{response.status, response.body, {}};
  if (target != "/metrics") reply.json = support::JsonValue::parse(reply.body);
  return reply;
}

std::uint64_t counter(ServingNode& node, const std::string& name,
                      const support::MetricLabels& labels = {}) {
  const support::RegistrySnapshot snap = node.registry().snapshot();
  const support::MetricSnapshot* metric = snap.find(name, labels);
  return metric == nullptr ? 0 : metric->counter_value;
}

/// The member `key` of a JSON object; throws (failing the test) when it
/// is absent.
const support::JsonValue& member(const support::JsonValue& object,
                                 const std::string& key) {
  const support::JsonValue* value = object.find(key);
  if (value == nullptr) throw std::runtime_error("no member '" + key + "'");
  return *value;
}

/// Checks one outcome object of a POST /locate response.
void expect_outcome(const support::JsonValue& outcome, bool admitted) {
  EXPECT_EQ(member(outcome, "admitted").as_bool(), admitted);
}

TEST(ServingNode, MetricsScrapeEqualsAnInProcessRender) {
  support::ManualClock clock;
  ServingNode node(small_world(), {}, clock);
  node.start();
  (void)node.restore_or_warm_up();
  for (int i = 0; i < 20; ++i) node.step();
  (void)call(node, "POST", "/locate", "[{\"users\": [0, 1]}, {}]");
  const Reply scraped = call(node, "GET", "/metrics");
  EXPECT_EQ(scraped.status, 200);
  EXPECT_EQ(scraped.body,
            support::to_prometheus(node.registry().snapshot()));
  EXPECT_NE(scraped.body.find("confcall_serve_steps_total 20"),
            std::string::npos);
}

TEST(ServingNode, VarsAndTracesRenderJson) {
  support::ManualClock clock;
  ServingOptions options;
  options.trace_every = 1;
  ServingNode node(small_world(), options, clock);
  node.start();
  (void)node.restore_or_warm_up();
  for (int i = 0; i < 5; ++i) node.step();

  const Reply vars = call(node, "GET", "/vars");
  EXPECT_EQ(vars.status, 200);
  EXPECT_EQ(member(member(vars.json, "counters"), "confcall_serve_steps_total")
                .as_number(),
            5.0);

  const Reply traces = call(node, "GET", "/traces");
  EXPECT_EQ(traces.status, 200);
  EXPECT_FALSE(member(traces.json, "traceEvents").as_array().empty());
}

TEST(ServingNode, ShedSingleCallIs503AndHealthzDrainsWithTheBucket) {
  // Four tokens and no refill on a frozen clock: one-callee calls drain
  // the bucket, then admission sheds and /healthz reports shedding.
  support::ManualClock clock;
  SimConfig config = small_world();
  config.overload.enabled = true;
  config.overload.admission.bucket_capacity = 4.0;
  config.overload.admission.refill_per_sec = 0.0;
  ServingNode node(config, {}, clock);
  node.start();
  (void)node.restore_or_warm_up();
  EXPECT_EQ(call(node, "GET", "/healthz").status, 200);

  Reply reply;
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    reply = call(node, "POST", "/locate", "{\"users\": [0]}");
    if (reply.status != 200) break;
    expect_outcome(reply.json, true);
    ++admitted;
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(reply.status, 503);
  expect_outcome(reply.json, false);
  EXPECT_EQ(counter(node, "confcall_admission_shed_total"), 1u);

  const Reply health = call(node, "GET", "/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(member(health.json, "health").as_string(), "shedding");
  // A batch still answers 200, with the verdict per element.
  const Reply batch = call(node, "POST", "/locate", "[{\"users\": [1]}]");
  EXPECT_EQ(batch.status, 200);
  ASSERT_EQ(batch.json.as_array().size(), 1u);
  expect_outcome(batch.json.as_array()[0], false);
}

TEST(ServingNode, ReadyzHolds503ThroughRestoreAndWarmUp) {
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;  // 8 areas
  options.state_out = temp_path("readyz.ckpt");
  {
    ServingNode writer(small_world(), options, clock);
    (void)writer.restore_or_warm_up();
    writer.drain();
  }
  options.state_in = options.state_out;
  ServingNode node(small_world(), options, clock);
  node.start();
  const Reply starting = call(node, "GET", "/readyz");
  EXPECT_EQ(starting.status, 503);
  EXPECT_EQ(member(starting.json, "state").as_string(), "starting");
  EXPECT_EQ(member(starting.json, "areas_ready").as_number(), 0.0);
  EXPECT_EQ(member(starting.json, "areas_total").as_number(), 8.0);

  // Poll while the node restores: every answer is 503 with the restore
  // progress in the body until the node is ready.
  std::atomic<bool> done{false};
  std::string line;
  std::thread restorer([&] {
    line = node.restore_or_warm_up();
    done.store(true);
  });
  while (!done.load()) {
    try {
      const Reply reply = call(node, "GET", "/readyz");
      const std::string state = member(reply.json, "state").as_string();
      const double ready = member(reply.json, "areas_ready").as_number();
      if (state == "ready") {
        EXPECT_EQ(reply.status, 200);
        EXPECT_EQ(ready, 8.0);
      } else {
        EXPECT_EQ(reply.status, 503) << state;
        EXPECT_TRUE(state == "starting" || state == "restoring" ||
                    state == "warmup")
            << state;
        EXPECT_LE(ready, 8.0);
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "/readyz poll: " << error.what();
      break;
    }
  }
  restorer.join();
  EXPECT_EQ(line.rfind("state: restored from", 0), 0u) << line;
  const Reply ready = call(node, "GET", "/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_TRUE(member(ready.json, "ready").as_bool());
  EXPECT_EQ(member(ready.json, "areas_ready").as_number(), 8.0);

  // A cold start (missing file) walks warm-up instead, also behind 503.
  options.state_in = temp_path("readyz_missing.ckpt");
  ServingNode cold(small_world(), options, clock);
  cold.start();
  EXPECT_EQ(call(cold, "GET", "/readyz").status, 503);
  EXPECT_EQ(cold.restore_or_warm_up().rfind("state: cold start (missing", 0),
            0u);
  EXPECT_EQ(call(cold, "GET", "/readyz").status, 200);
  EXPECT_EQ(counter(cold, "confcall_state_restore_total",
                    {{"result", "cold_missing"}}),
            1u);
}

TEST(ServingNode, FleetzRendersShardsPerShardRowsAndPlanCapacity) {
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;
  ServingNode node(small_world(), options, clock);
  node.start();
  (void)node.restore_or_warm_up();
  for (int i = 0; i < 16; ++i) node.step();

  const Reply fleetz = call(node, "GET", "/fleetz");
  EXPECT_EQ(fleetz.status, 200);
  EXPECT_EQ(member(fleetz.json, "shards").as_number(), 2.0);
  EXPECT_EQ(member(fleetz.json, "areas").as_number(), 8.0);
  EXPECT_EQ(member(fleetz.json, "areas_ready").as_number(), 8.0);
  EXPECT_EQ(member(fleetz.json, "phase").as_string(), "ready");
  const support::JsonValue& shared = member(fleetz.json, "shared_plan");
  EXPECT_EQ(member(shared, "capacity").as_number(),
            static_cast<double>(node.fleet().shared_table().plans.capacity()));
  EXPECT_GT(member(shared, "entries").as_number(), 0.0);
  const auto& per_shard = member(fleetz.json, "per_shard").as_array();
  ASSERT_EQ(per_shard.size(), 2u);
  double calls = 0.0;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    EXPECT_EQ(member(per_shard[s], "shard").as_number(),
              static_cast<double>(s));
    const double shard_calls = member(per_shard[s], "locate_calls").as_number();
    EXPECT_EQ(shard_calls,
              static_cast<double>(counter(node, "confcall_locate_calls_total",
                                          {{"shard", std::to_string(s)}})));
    calls += shard_calls;
    EXPECT_TRUE(member(per_shard[s], "exemplar_trace_ids").is_array());
  }
  EXPECT_EQ(calls, 16.0);  // call_rate 1: one loop call per step
}

/// The ostream rendering of /fleetz before it appended to a string, for a
/// ready node (every area ready) and the snapshot `snap`.
std::string reference_fleetz(const ServingNode& node,
                             const support::RegistrySnapshot& snap) {
  std::ostringstream body;
  const auto field = [&snap, &body](const char* key, std::string_view name,
                                    const support::MetricLabels& labels = {},
                                    const char* separator = ", ") {
    body << separator << "\"" << key << "\": ";
    const support::MetricSnapshot* metric = snap.find(name, labels);
    if (metric == nullptr) {
      body << 0;
    } else if (metric->type == support::MetricType::kCounter) {
      body << metric->counter_value;
    } else if (metric->type == support::MetricType::kGauge) {
      body << static_cast<std::uint64_t>(metric->gauge_value);
    } else {
      body << metric->histogram.quantile(0.99);
    }
  };
  const auto total = [&snap, &body](const char* key, std::string_view name,
                                    const char* separator = ", ") {
    const std::optional<support::MetricSnapshot> summed = snap.sum_by(name);
    body << separator << "\"" << key
         << "\": " << (summed ? summed->counter_value : 0);
  };
  const ServiceFleet& fleet = node.fleet();
  body << "{\"shards\": " << fleet.num_shards()
       << ", \"areas\": " << fleet.num_areas()
       << ", \"areas_ready\": " << fleet.num_areas() << ", \"phase\": \""
       << support::readiness_name(support::Readiness::kReady) << "\"";
  field("dispatches", "confcall_fleet_dispatches_total");
  total("requests", "confcall_locate_calls_total");
  body << ", \"shared_plan\": {";
  total("hits", "confcall_locate_plan_cache_hits_total", "");
  total("misses", "confcall_locate_plan_cache_misses_total");
  field("entries", "confcall_fleet_shared_plan_entries");
  field("evictions", "confcall_fleet_shared_plan_evictions_total");
  body << ", \"capacity\": " << fleet.shared_table().plans.capacity()
       << "}, \"per_shard\": [";
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const support::MetricLabels shard{{"shard", std::to_string(s)}};
    body << (s > 0 ? ", " : "") << "{\"shard\": " << s;
    field("tasks", "confcall_fleet_tasks_total", shard);
    field("task_p99_ns", "confcall_fleet_task_ns", shard);
    field("locate_calls", "confcall_locate_calls_total", shard);
    field("plan_cache_hits", "confcall_locate_plan_cache_hits_total", shard);
    field("plan_cache_misses", "confcall_locate_plan_cache_misses_total",
          shard);
    field("rounds_p99", "confcall_locate_rounds", shard);
    body << ", \"exemplar_trace_ids\": [";
    const char* separator = "";
    if (const support::MetricSnapshot* rounds =
            snap.find("confcall_locate_rounds", shard)) {
      for (const support::Exemplar& exemplar : rounds->histogram.exemplars) {
        if (!exemplar.valid()) continue;
        body << separator << "\"" << std::hex << std::setfill('0')
             << std::setw(16) << exemplar.trace_id << std::dec << "\"";
        separator = ", ";
      }
    }
    body << "]}";
  }
  body << "]}\n";
  return body.str();
}

TEST(ServingNode, FleetzMatchesTheStreamRendering) {
  // Every call traced, so the rounds histograms carry exemplar ids.
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;
  options.trace_every = 1;
  ServingNode node(small_world(), options, clock);
  node.start();
  (void)node.restore_or_warm_up();
  EXPECT_EQ(call(node, "GET", "/fleetz").body,
            reference_fleetz(node, node.registry().snapshot()));
  for (int i = 0; i < 24; ++i) node.step();
  EXPECT_EQ(call(node, "POST", "/locate",
                 "[{\"area\": 1}, {\"area\": 6}, {\"users\": [0, 1]}]")
                .status,
            200);
  const Reply fleetz = call(node, "GET", "/fleetz");
  EXPECT_EQ(fleetz.body, reference_fleetz(node, node.registry().snapshot()));
  std::size_t exemplars = 0;
  for (const support::JsonValue& shard :
       member(fleetz.json, "per_shard").as_array()) {
    exemplars += member(shard, "exemplar_trace_ids").as_array().size();
  }
  EXPECT_GT(exemplars, 0u);
}

TEST(ServingNode, FleetzTotalsAreLabelSumsOfTheLocateFamilies) {
  // /fleetz's fleet-wide request and plan-table counts are not a second
  // record: they are the per-shard locate families, summed.
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;
  ServingNode node(small_world(), options, clock);
  node.start();
  (void)node.restore_or_warm_up();
  for (int i = 0; i < 8; ++i) {
    const std::string area = std::to_string(i);
    const Reply reply =
        call(node, "POST", "/locate",
             "[{\"users\": [0, 1], \"area\": " + area +
                 "}, {\"users\": [2, 3, 4], \"area\": " + area +
                 "}, {\"area\": " + std::to_string(7 - i) + "}]");
    EXPECT_EQ(reply.status, 200);
  }

  const Reply fleetz = call(node, "GET", "/fleetz");
  ASSERT_EQ(fleetz.status, 200);
  const support::RegistrySnapshot snap = node.registry().snapshot();
  const auto summed = [&snap](const char* name) {
    const std::optional<support::MetricSnapshot> metric = snap.sum_by(name);
    return metric ? static_cast<double>(metric->counter_value) : -1.0;
  };
  const support::JsonValue& shared = member(fleetz.json, "shared_plan");
  EXPECT_EQ(member(fleetz.json, "requests").as_number(),
            summed("confcall_locate_calls_total"));
  EXPECT_EQ(member(fleetz.json, "requests").as_number(), 24.0);
  EXPECT_EQ(member(shared, "hits").as_number(),
            summed("confcall_locate_plan_cache_hits_total"));
  EXPECT_EQ(member(shared, "misses").as_number(),
            summed("confcall_locate_plan_cache_misses_total"));
  EXPECT_GT(member(shared, "hits").as_number(), 0.0);
  EXPECT_GT(member(shared, "misses").as_number(), 0.0);
  double shard_calls = 0.0;
  for (const support::JsonValue& shard :
       member(fleetz.json, "per_shard").as_array()) {
    shard_calls += member(shard, "locate_calls").as_number();
    EXPECT_EQ(shard.find("queue_depth"), nullptr);
  }
  EXPECT_EQ(shard_calls, 24.0);
}

TEST(ServingNode, LocateServesEmptySingleAndBatchBodies) {
  support::ManualClock clock;
  ServingNode node(overloaded_world(), {}, clock);
  node.start();
  (void)node.restore_or_warm_up();

  const Reply empty = call(node, "POST", "/locate");
  EXPECT_EQ(empty.status, 200);
  expect_outcome(empty.json, true);

  const Reply single = call(node, "POST", "/locate", "{\"users\": [0, 1, 2]}");
  EXPECT_EQ(single.status, 200);
  expect_outcome(single.json, true);
  EXPECT_EQ(member(single.json, "participants").as_number(), 3.0);

  const Reply batch = call(node, "POST", "/locate",
                           "[{\"users\": [0, 1, 2]}, {}, {\"users\": [5]}]");
  EXPECT_EQ(batch.status, 200);
  ASSERT_TRUE(batch.json.is_array());
  ASSERT_EQ(batch.json.as_array().size(), 3u);
  for (const support::JsonValue& outcome : batch.json.as_array()) {
    expect_outcome(outcome, true);
  }
  EXPECT_EQ(member(batch.json.as_array()[2], "participants").as_number(), 1.0);

  const Reply none = call(node, "POST", "/locate", "[]");
  EXPECT_EQ(none.status, 200);
  EXPECT_TRUE(none.json.as_array().empty());
  EXPECT_EQ(counter(node, "confcall_serve_calls_arrived_total"), 5u);
}

TEST(ServingNode, LocateRoutesTheAreaMemberToItsShard) {
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;
  ServingNode node(small_world(), options, clock);
  node.start();
  (void)node.restore_or_warm_up();
  const Reply reply =
      call(node, "POST", "/locate", "{\"users\": [0, 1], \"area\": 5}");
  EXPECT_EQ(reply.status, 200);
  expect_outcome(reply.json, true);
  EXPECT_EQ(counter(node, "confcall_locate_calls_total", {{"shard", "1"}}), 1u);
  EXPECT_EQ(counter(node, "confcall_locate_calls_total", {{"shard", "0"}}), 0u);

  const Reply batch = call(node, "POST", "/locate",
                           "[{\"users\": [0], \"area\": 0}, "
                           "{\"users\": [2], \"area\": 7}]");
  EXPECT_EQ(batch.status, 200);
  ASSERT_EQ(batch.json.as_array().size(), 2u);
  EXPECT_EQ(counter(node, "confcall_locate_calls_total", {{"shard", "0"}}), 1u);
  EXPECT_EQ(counter(node, "confcall_locate_calls_total", {{"shard", "1"}}), 2u);
}

TEST(ServingNode, LocateAnswersMalformedBodiesWith400AndAJsonError) {
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;
  ServingNode node(small_world(), options, clock);
  node.start();
  (void)node.restore_or_warm_up();
  for (const std::string body :
       {"{\"users\": [1,", "{\"users\": [0], \"area\": 99}",
        "{\"users\": [1000]}", "[{\"users\": [0]}, 7]",
        "{\"users\": [1, 2], \"users\": [1]}",
        "{\"area\": 0, \"area\": 1, \"users\": [3]}"}) {
    const Reply reply = call(node, "POST", "/locate", body);
    EXPECT_EQ(reply.status, 400) << body;
    EXPECT_FALSE(member(reply.json, "error").as_string().empty()) << body;
  }
  // Rejected bodies never reach admission or the fleet.
  EXPECT_EQ(counter(node, "confcall_serve_calls_arrived_total"), 0u);
}

/// A node with SLO control over overloaded_world, writing to `state_out`
/// and restoring from `state_in`.
ServingOptions slo_options(const std::string& state_in,
                           const std::string& state_out) {
  ServingOptions options;
  options.shards = 2;
  options.slo_p99_ms = 5;
  options.control_period_ms = 1;
  options.state_in = state_in;
  options.state_out = state_out;
  return options;
}

/// Runs `node` from start-up through `steps` steps to its drain
/// checkpoint.
void run_to_checkpoint(ServingNode& node, std::size_t steps) {
  (void)node.restore_or_warm_up();
  for (std::size_t i = 0; i < steps; ++i) node.step();
  node.drain();
}

support::StateBundle load(const std::string& path) {
  support::StateLoadResult loaded = support::load_state_file(path);
  EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.message;
  return std::move(loaded.bundle);
}

/// The checkpoint a cold SLO node writes after `steps` steps.
support::StateBundle cold_checkpoint(std::size_t steps) {
  const std::string path = temp_path("cold.ckpt");
  support::ManualClock clock;
  ServingNode node(overloaded_world(), slo_options("", path), clock);
  run_to_checkpoint(node, steps);
  return load(path);
}

void expect_same_sections(const support::StateBundle& actual,
                          const support::StateBundle& expected) {
  ASSERT_EQ(actual.sections().size(), expected.sections().size());
  for (std::size_t i = 0; i < expected.sections().size(); ++i) {
    const support::StateSection& want = expected.sections()[i];
    const support::StateSection& got = actual.sections()[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.version, want.version) << want.name;
    EXPECT_TRUE(got.payload == want.payload) << want.name;
  }
}

TEST(ServingNode, RestoreWithGoodFleetButNoSloSectionCommitsNothing) {
  // A checkpoint written without SLO control restores its fleet sections
  // fine, but a node WITH control needs the controller section too.
  const std::string no_slo = temp_path("no_slo.ckpt");
  {
    support::ManualClock clock;
    ServingOptions options;
    options.shards = 2;
    options.state_out = no_slo;
    ServingNode writer(overloaded_world(), options, clock);
    run_to_checkpoint(writer, 30);
  }
  ASSERT_EQ(load(no_slo).find(support::SloController::kStateSection),
            nullptr);

  const std::string out = temp_path("no_slo_restored.ckpt");
  support::ManualClock clock;
  ServingNode node(overloaded_world(), slo_options(no_slo, out), clock);
  (void)node.restore_or_warm_up();
  EXPECT_EQ(counter(node, "confcall_state_restore_total",
                    {{"result", "cold_section_mismatch"}}),
            1u);
  EXPECT_EQ(counter(node, "confcall_state_restore_total",
                    {{"result", "restored"}}),
            0u);
  for (int i = 0; i < 10; ++i) node.step();
  node.drain();
  // Exactly a cold node's state: the fleet kept nothing of the file.
  expect_same_sections(load(out), cold_checkpoint(10));
}

TEST(ServingNode, VersionThreeAreaSectionsRestoreAsACountedColdStart) {
  // A version 3 clock read one step more after a mobility report than a
  // version 4 clock does, so a version 3 checkpoint is a cold start.
  const std::string current = temp_path("current.ckpt");
  support::ManualClock clock;
  ServingOptions options;
  options.shards = 2;  // 8 areas
  options.state_out = current;
  {
    ServingNode writer(small_world(), options, clock);
    run_to_checkpoint(writer, 30);
  }
  const support::StateBundle written = load(current);
  const auto with_area_version = [&](std::uint32_t version,
                                     const std::string& name) {
    support::StateBundle bundle;
    for (const support::StateSection& section : written.sections()) {
      bool area = false;
      for (std::size_t a = 0; a < 8; ++a) {
        area |= section.name == ServiceFleet::area_section_name(a);
      }
      bundle.add(section.name, area ? version : section.version,
                 section.payload);
    }
    const std::string path = temp_path(name);
    (void)support::save_state_file(path, bundle);
    return path;
  };
  ASSERT_EQ(LocationService::kStateVersion, 4u);
  options.state_in = with_area_version(3, "v3.ckpt");
  options.state_out.clear();
  ServingNode old_node(small_world(), options, clock);
  EXPECT_EQ(old_node.restore_or_warm_up(),
            "state: cold start (section missing, version skew, or shape "
            "mismatch)");
  EXPECT_EQ(counter(old_node, "confcall_state_restore_total",
                    {{"result", "cold_section_mismatch"}}),
            1u);
  // The same payloads at the current version restore.
  options.state_in = with_area_version(4, "v4.ckpt");
  ServingNode node(small_world(), options, clock);
  EXPECT_EQ(node.restore_or_warm_up().rfind("state: restored from", 0), 0u);
  EXPECT_EQ(counter(node, "confcall_state_restore_total",
                    {{"result", "restored"}}),
            1u);
}

TEST(ServingNode, RestoreWithCorruptFleetSectionRollsBackTheSlo) {
  // Write a checkpoint whose controller has moved off its cold point.
  const std::string good = temp_path("warm.ckpt");
  {
    support::ManualClock clock;
    ServingNode writer(overloaded_world(), slo_options("", good), clock);
    (void)writer.restore_or_warm_up();
    for (int i = 0; i < 200; ++i) {
      writer.step();
      clock.advance(100'000);  // ten calls per 1 ms control period
    }
    writer.drain();
    ASSERT_GT(writer.overload().slo()->control_steps(), 0u);
  }
  const support::StateBundle warm = load(good);
  const support::StateBundle cold = cold_checkpoint(0);
  const support::StateSection* warm_slo =
      warm.find(support::SloController::kStateSection);
  ASSERT_NE(warm_slo, nullptr);
  ASSERT_FALSE(warm_slo->payload ==
               cold.find(support::SloController::kStateSection)->payload);

  // Same file with one area section damaged in a checksum-valid way.
  support::StateBundle damaged;
  for (const support::StateSection& section : warm.sections()) {
    damaged.add(section.name, section.version,
                section.name == ServiceFleet::area_section_name(3)
                    ? std::string("not an area")
                    : section.payload);
  }
  const std::string bad = temp_path("damaged.ckpt");
  (void)support::save_state_file(bad, damaged);

  const std::string out = temp_path("damaged_restored.ckpt");
  support::ManualClock clock;
  ServingNode node(overloaded_world(), slo_options(bad, out), clock);
  EXPECT_EQ(node.restore_or_warm_up(),
            "state: cold start (section missing, version skew, or shape "
            "mismatch)");
  EXPECT_EQ(counter(node, "confcall_state_restore_total",
                    {{"result", "cold_section_mismatch"}}),
            1u);
  for (int i = 0; i < 10; ++i) node.step();
  node.drain();
  expect_same_sections(load(out), cold_checkpoint(10));
}

TEST(ServingNode, WarmRestartResumesEverySection) {
  const std::string first = temp_path("warm_first.ckpt");
  support::ManualClock clock;
  {
    ServingNode writer(overloaded_world(), slo_options("", first), clock);
    (void)writer.restore_or_warm_up();
    for (int i = 0; i < 40; ++i) {
      writer.step();
      clock.advance(100'000);
    }
    writer.drain();
  }
  const std::string second = temp_path("warm_second.ckpt");
  ServingNode node(overloaded_world(), slo_options(first, second), clock);
  const std::string line = node.restore_or_warm_up();
  EXPECT_EQ(line.rfind("state: restored from " + first, 0), 0u) << line;
  EXPECT_EQ(counter(node, "confcall_state_restore_total",
                    {{"result", "restored"}}),
            1u);
  node.drain();  // no step in between: the state round-trips unchanged
  expect_same_sections(load(second), load(first));
}

TEST(ServingNode, ConcurrentPostsScrapesStepsAndCheckpointsAreRaceFree) {
  support::ManualClock clock;
  SimConfig config = overloaded_world();
  config.overload.admission.bucket_capacity = 24.0;  // some calls shed
  ServingOptions options;
  options.shards = 2;
  options.fleet_areas = 4;
  options.trace_every = 4;
  options.state_out = temp_path("storm.ckpt");
  options.checkpoint_every_ms = 1;
  ServingNode node(config, options, clock);
  node.start();
  (void)node.restore_or_warm_up();

  std::atomic<bool> stop{false};
  std::atomic<int> bad_replies{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 25; ++i) {
        const std::string area = std::to_string((c + i) % 4);
        const std::string body =
            i % 2 == 0 ? "{\"users\": [" + std::to_string(c) +
                             ", 9], \"area\": " + area + "}"
                       : "[{\"users\": [1, 2], \"area\": " + area +
                             "}, {}, {\"users\": [3]}]";
        try {
          const int status =
              support::http_request("127.0.0.1", node.port(), "POST",
                                    "/locate", body)
                  .status;
          if (status != 200 && status != 503) ++bad_replies;
        } catch (const std::exception&) {
          ++bad_replies;
        }
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load()) {
      for (const char* target : {"/metrics", "/fleetz", "/healthz"}) {
        try {
          const int status =
              support::http_get("127.0.0.1", node.port(), target).status;
          if (status != 200 && status != 503) ++bad_replies;
        } catch (const std::exception&) {
          ++bad_replies;
        }
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    node.step();
    clock.advance(250'000);
    (void)node.poll_checkpoint();
  }
  for (std::thread& client : clients) client.join();
  stop.store(true);
  scraper.join();
  node.drain();

  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_GT(node.checkpoints_written(), 40u);
  const auto located =
      node.registry().snapshot().sum_by("confcall_locate_calls_total");
  ASSERT_TRUE(located.has_value());
  const std::uint64_t arrived =
      counter(node, "confcall_serve_calls_arrived_total");
  const std::uint64_t shed = counter(node, "confcall_admission_shed_total");
  // 200 loop calls, and per client 13 single calls plus 12 batches of 3.
  EXPECT_EQ(arrived, 200u + 4u * (13u * 1u + 12u * 3u));
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(located->counter_value, arrived - shed);
  EXPECT_TRUE(load(options.state_out).find(
                  ServiceFleet::area_section_name(3)) != nullptr);
}

}  // namespace
}  // namespace confcall::cellular
