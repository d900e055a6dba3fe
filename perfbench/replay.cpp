// perfbench_replay — the per-layer half of the benchmark.
//
// Builds the serving stack confcall_serve builds, through the same
// public constructors, and replays the wire run's reference request
// stream (schedule.h, same seed and shape) in process, timing each call
// into a layer's public functions:
//
//   locate_api   parse_locate_body, append_outcome_json
//   dispatch     ServiceFleet::locate_many (--shards) or
//                LocationService::locate_many (single service)
//   step         the daemon's locate-loop step: ServiceFleet::step_all,
//                or the single-service step (faults, moves, reports,
//                tick), then the step's background call draw and, when
//                a call arrives, its locate; run on the daemon's step
//                cadence in the schedule's virtual time
//   service      plan / page_rounds / recovery span self times, from a
//                full support::Tracer on LocationService::Config::tracer
//   state_io     checkpoint (sections + save_state_file) and restore
//   metrics      registry snapshot + to_prometheus
//
// Two identical stacks, one untraced and one traced, serve every request
// in alternating order; their outcomes must match bit for bit, and the
// ratio of their dispatch times gives the tracing overhead. A bare
// support::HttpServer with a constant handler, driven by the wire run's
// open-loop generator, gives the transport's own cost. Results go to
// --out as JSON.
//
//   perfbench_replay --seed N --out FILE --workdir DIR
//       --scenario NAME [--shards N --areas A] [--step-ms MS] [--batch B]
//       [--process poisson|mmpp] [--rate R] [--seconds S]
//       [--max-requests N] [--echo-rate R] [--echo-seconds S]
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cellular/events.h"
#include "cellular/faults.h"
#include "cellular/locate_api.h"
#include "cellular/service.h"
#include "cellular/service_fleet.h"
#include "cellular/simulator.h"
#include "cellular/workload.h"
#include "openloop.h"
#include "prob/rng.h"
#include "schedule.h"
#include "stats.h"
#include "support/http.h"
#include "support/metrics.h"
#include "support/state_io.h"
#include "support/trace.h"

namespace {

using namespace confcall;
using perfbench::JsonOut;
using perfbench::now_ns;
using perfbench::summarize;
using Outcome = cellular::LocationService::LocateOutcome;

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Options {
  std::string scenario = "dense-urban";
  std::size_t shards = 0;  ///< 0 = the single-service path
  std::size_t areas = 0;   ///< fleet areas (with shards)
  std::uint64_t step_ms = 10;
  std::string workdir = ".";
};

/// Wall-clock samples (us) per layer, and the outcomes, of one replay.
struct ReplayRun {
  std::vector<double> parse, dispatch, encode, step;
  std::vector<double> parse_ns_per_call;
  std::vector<Outcome> outcomes;
  double dispatch_total_us = 0;
  std::size_t calls = 0;
  std::vector<support::SpanRecord> spans;
  std::uint64_t spans_recorded = 0;
  std::optional<support::MetricSnapshot> task_ns;
  std::vector<double> checkpoint_ms, restore_ms, render_us;
  double checkpoint_bytes = 0, scrape_bytes = 0;
};

bool same(const Outcome& a, const Outcome& b) {
  return a.cells_paged == b.cells_paged && a.rounds_used == b.rounds_used &&
         a.fallback_pages == b.fallback_pages &&
         a.missed_detections == b.missed_detections &&
         a.outage_pages == b.outage_pages &&
         a.dropped_rounds == b.dropped_rounds && a.retries == b.retries &&
         a.backoff_rounds == b.backoff_rounds &&
         a.forced_registrations == b.forced_registrations &&
         a.budget_exhausted == b.budget_exhausted &&
         a.degraded == b.degraded && a.abandoned == b.abandoned &&
         a.deadline_limited == b.deadline_limited;
}

cellular::Scenario find_scenario(const std::string& name) {
  // The daemon's default --seed is 1; the benchmark never overrides it.
  for (cellular::Scenario& scenario : cellular::all_scenarios(1)) {
    if (scenario.name == name) return std::move(scenario);
  }
  throw std::invalid_argument("unknown scenario " + name);
}

/// One serving stack, assembled as tools/confcall_serve assembles it for
/// the given flags (cold start: warm-up steps, no checkpoint). None of
/// the benchmark's scenarios enables admission control, so no call is
/// shed or degraded and the stack leaves it out.
class Stack {
 public:
  Stack(const Options& options, support::Tracer* tracer)
      : scenario_(find_scenario(options.scenario)),
        config_(scenario_.config),
        grid_(config_.grid_rows, config_.grid_cols, config_.toroidal,
              config_.neighborhood),
        areas_(cellular::LocationAreas::tiles(grid_, config_.la_tile_rows,
                                              config_.la_tile_cols)),
        mobility_(grid_, config_.stay_probability),
        rng_(config_.seed),
        faults_(config_.faults, grid_.num_cells()),
        calls_(config_.call_rate, config_.num_users, config_.group_min,
               config_.group_max) {
    config_.validate();
    for (std::size_t u = 0; u < config_.num_users; ++u) {
      user_cells_.push_back(
          static_cast<cellular::CellId>(rng_.next_below(grid_.num_cells())));
    }
    cellular::LocationService::Config service_cfg = config_.service_config();
    service_cfg.tracer = tracer;
    if (options.shards > 0) {
      service_cfg.planner = nullptr;
      cellular::FleetConfig fleet_cfg;
      fleet_cfg.num_shards = options.shards;
      fleet_cfg.num_areas = options.areas;
      fleet_cfg.seed = config_.seed;
      fleet_cfg.registry = &registry_;
      fleet_cfg.pin_threads = true;
      fleet_ = std::make_unique<cellular::ServiceFleet>(
          grid_, areas_, mobility_, service_cfg, user_cells_, fleet_cfg);
    } else {
      service_cfg.metrics = cellular::ServiceMetrics::create(registry_);
      service_ = std::make_unique<cellular::LocationService>(
          grid_, areas_, mobility_, service_cfg, user_cells_);
      if (config_.paging_policy != cellular::PagingPolicy::kAdaptive) {
        service_->attach_faults(&faults_);
      }
      if (config_.burst.enabled) {
        bursty_.emplace(config_.burst, config_.num_users, config_.group_min,
                        config_.group_max);
      }
    }
    // Warm-up moves users only, as the daemon's does.
    for (std::size_t t = 0; t < config_.warmup_steps; ++t) move();
  }

  [[nodiscard]] std::size_t num_users() const { return config_.num_users; }
  [[nodiscard]] std::size_t num_areas() const {
    return fleet_ ? fleet_->num_areas() : 1;
  }
  support::MetricRegistry& registry() { return registry_; }

  /// One step of the daemon's locate loop: move everyone, then draw the
  /// step's background call and locate it (step_once in
  /// tools/confcall_serve; the fleet path rotates its calls over areas).
  void step() {
    move();
    if (fleet_) {
      const cellular::CallEvent event = calls_.maybe_call(rng_);
      if (event.participants.empty()) return;
      cellular::ServiceFleet::Request request;
      request.area = area_rotor_++ % fleet_->num_areas();
      request.users = event.participants;
      (void)fleet_->locate_many({&request, 1});
      return;
    }
    const cellular::CallEvent event =
        bursty_ ? bursty_->maybe_call(rng_) : calls_.maybe_call(rng_);
    if (event.participants.empty()) return;
    std::vector<cellular::CellId> cells;
    for (const cellular::UserId user : event.participants) {
      cells.push_back(user_cells_[user]);
    }
    (void)service_->locate(event.participants, cells, rng_);
  }

  std::vector<Outcome> dispatch(const cellular::LocateApiRequest& api) {
    if (fleet_) {
      std::vector<cellular::ServiceFleet::Request> requests;
      requests.reserve(api.calls.size());
      for (const cellular::LocateCallSpec& spec : api.calls) {
        cellular::ServiceFleet::Request request;
        request.area = spec.area;
        request.users = spec.users;
        requests.push_back(std::move(request));
      }
      return fleet_->locate_many(requests);
    }
    std::vector<std::vector<cellular::CellId>> cells(api.calls.size());
    std::vector<cellular::LocationService::LocateRequest> requests;
    requests.reserve(api.calls.size());
    for (std::size_t i = 0; i < api.calls.size(); ++i) {
      for (const cellular::UserId user : api.calls[i].users) {
        cells[i].push_back(user_cells_[user]);
      }
      requests.push_back({api.calls[i].users, cells[i], {}});
    }
    return service_->locate_many(requests, rng_);
  }

  support::StateBundle checkpoint_bundle() const {
    support::StateBundle bundle;
    if (fleet_) {
      fleet_->add_state_sections(bundle);
    } else {
      bundle.add(cellular::LocationService::kStateSection,
                 cellular::LocationService::kStateVersion,
                 service_->save_state());
    }
    return bundle;
  }

  bool restore(const support::StateBundle& bundle) {
    if (fleet_) return fleet_->restore_state_sections(bundle);
    const support::StateSection* section =
        bundle.find(cellular::LocationService::kStateSection);
    return section != nullptr &&
           service_->restore_state(section->payload, section->version);
  }

 private:
  /// Movement only: faults, moves, location reports, tick.
  void move() {
    if (fleet_) {
      fleet_->step_all();
      return;
    }
    faults_.begin_step();
    for (std::size_t u = 0; u < config_.num_users; ++u) {
      user_cells_[u] = mobility_.step(user_cells_[u], rng_);
      (void)service_->observe_move(static_cast<cellular::UserId>(u),
                                   user_cells_[u]);
    }
    service_->tick();
  }

  cellular::Scenario scenario_;
  cellular::SimConfig config_;
  cellular::GridTopology grid_;
  cellular::LocationAreas areas_;
  cellular::MarkovMobility mobility_;
  prob::Rng rng_;
  cellular::FaultPlan faults_;
  cellular::CallGenerator calls_;
  std::optional<cellular::BurstyCallGenerator> bursty_;
  std::uint64_t area_rotor_ = 0;
  std::vector<cellular::CellId> user_cells_;
  support::MetricRegistry registry_;
  std::unique_ptr<cellular::ServiceFleet> fleet_;
  std::unique_ptr<cellular::LocationService> service_;
};

/// Serves one request on `stack`, timing each layer into `run`.
void serve(Stack& stack, const perfbench::ScheduledRequest& request,
           ReplayRun& run) {
  const std::uint64_t t0 = now_ns();
  const cellular::LocateApiRequest api = cellular::parse_locate_body(
      request.body, stack.num_users(), stack.num_areas());
  const std::uint64_t t1 = now_ns();
  const std::vector<Outcome> outcomes = stack.dispatch(api);
  const std::uint64_t t2 = now_ns();
  std::string body;
  if (api.batch) body += "[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) body += ", ";
    cellular::append_outcome_json(body, true, api.calls[i].users.size(),
                                  &outcomes[i]);
  }
  body += api.batch ? "]\n" : "\n";
  const std::uint64_t t3 = now_ns();
  run.parse.push_back(us(t1 - t0));
  run.parse_ns_per_call.push_back(static_cast<double>(t1 - t0) /
                                  static_cast<double>(api.calls.size()));
  run.dispatch.push_back(us(t2 - t1));
  run.dispatch_total_us += us(t2 - t1);
  run.encode.push_back(us(t3 - t2));
  run.calls += outcomes.size();
  run.outcomes.insert(run.outcomes.end(), outcomes.begin(), outcomes.end());
}

/// Replays `schedule` on two identical stacks, one untraced and one
/// with a full Tracer, request by request in alternating order so drift
/// (caches, frequency, neighbours) falls on both sides alike. Mobility
/// steps run on the daemon's cadence in the schedule's virtual time.
/// Returns {untraced, traced}; the untraced stack then also times
/// checkpoint, restore and metrics rendering.
std::pair<ReplayRun, ReplayRun> replay(
    const Options& options,
    const std::vector<perfbench::ScheduledRequest>& schedule) {
  std::size_t calls = 0;
  for (const auto& request : schedule) calls += request.participants.size();
  // Every span of the run must fit: a batch root, and per call a locate
  // root, plan + page_rounds per paged area, and recovery.
  support::Tracer tracer(calls * 24 + 1024);
  Stack plain_stack(options, nullptr);
  Stack traced_stack(options, &tracer);
  ReplayRun plain;
  ReplayRun traced;
  const std::uint64_t step_ns = options.step_ms * 1'000'000ULL;
  std::uint64_t next_step_ns = step_ns;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const perfbench::ScheduledRequest& request = schedule[i];
    while (step_ns != 0 && next_step_ns <= request.due_ns) {
      for (auto [stack, run] : {std::pair{&plain_stack, &plain},
                                std::pair{&traced_stack, &traced}}) {
        const std::uint64_t t0 = now_ns();
        stack->step();
        run->step.push_back(us(now_ns() - t0));
      }
      next_step_ns += step_ns;
    }
    if (i % 2 == 0) {
      serve(plain_stack, request, plain);
      serve(traced_stack, request, traced);
    } else {
      serve(traced_stack, request, traced);
      serve(plain_stack, request, plain);
    }
  }
  traced.spans = tracer.snapshot();
  traced.spans_recorded = tracer.recorded();
  plain.task_ns =
      plain_stack.registry().snapshot().sum_by("confcall_fleet_task_ns");

  // state_io: checkpoint the replayed state, then restore it.
  const std::string path = options.workdir + "/replay.ckpt";
  for (int k = 0; k < 21; ++k) {
    const std::uint64_t t0 = now_ns();
    const support::StateBundle bundle = plain_stack.checkpoint_bundle();
    const std::size_t bytes = support::save_state_file(path, bundle);
    plain.checkpoint_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    plain.checkpoint_bytes = static_cast<double>(bytes);
  }
  for (int k = 0; k < 7; ++k) {
    const std::uint64_t t0 = now_ns();
    const support::StateLoadResult loaded = support::load_state_file(path);
    if (!loaded.ok() || !plain_stack.restore(loaded.bundle)) {
      throw std::runtime_error("replay: checkpoint did not restore");
    }
    plain.restore_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  // metrics: what one /metrics scrape renders.
  for (int k = 0; k < 51; ++k) {
    const std::uint64_t t0 = now_ns();
    const std::string text =
        support::to_prometheus(plain_stack.registry().snapshot());
    plain.render_us.push_back(us(now_ns() - t0));
    plain.scrape_bytes = static_cast<double>(text.size());
  }
  return {std::move(plain), std::move(traced)};
}

/// Self time (us) of every span named `name`: its duration minus the
/// part its direct children cover.
std::vector<double> self_times(const std::vector<support::SpanRecord>& spans,
                               const char* name) {
  std::map<std::uint64_t, std::uint64_t> child_ns;
  for (const support::SpanRecord& span : spans) {
    if (span.parent_id != 0) child_ns[span.parent_id] += span.duration_ns();
  }
  std::vector<double> out;
  for (const support::SpanRecord& span : spans) {
    if (std::strcmp(span.name, name) != 0) continue;
    const auto it = child_ns.find(span.span_id);
    const std::uint64_t children = it == child_ns.end() ? 0 : it->second;
    out.push_back(
        us(span.duration_ns() > children ? span.duration_ns() - children : 0));
  }
  return out;
}

/// The bare transport: a support::HttpServer whose POST /locate answers a
/// constant outcome, driven open-loop like the daemon.
perfbench::PhaseRun echo(
    const std::vector<perfbench::ScheduledRequest>& schedule,
    std::size_t batch) {
  support::HttpServerOptions http_options;
  http_options.workers = 2;  // the daemon's default --workers
  support::HttpServer server(http_options);
  // A response the size of the daemon's: one outcome per call.
  const std::string outcome =
      "{\"admitted\": true, \"participants\": 4, \"cells_paged\": 20, "
      "\"rounds_used\": 2, \"retries\": 0, \"abandoned\": false, "
      "\"degraded\": false, \"deadline_limited\": false}";
  std::string body = batch > 1 ? "[" : "";
  for (std::size_t i = 0; i < batch; ++i) {
    body += (i > 0 ? ", " : "") + outcome;
  }
  body += batch > 1 ? "]\n" : "\n";
  server.handle("POST", "/locate", [&body](const support::HttpRequest&) {
    support::HttpResponse response;
    response.content_type = "application/json";
    response.body = body;
    return response;
  });
  server.start();
  perfbench::OpenLoopOptions options;
  options.port = server.port();
  options.keep_bodies = false;
  perfbench::PhaseRun run = perfbench::run_open_loop(schedule, options);
  server.stop();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Flags flags(argc, argv);
    Options options;
    options.scenario = flags.get("scenario", "dense-urban");
    options.shards = static_cast<std::size_t>(flags.num("shards", 0));
    options.areas = static_cast<std::size_t>(flags.num("areas", 0));
    options.step_ms = static_cast<std::uint64_t>(flags.num("step-ms", 10));
    options.workdir = flags.get("workdir", ".");
    const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));

    perfbench::ScheduleShape shape;
    shape.process = flags.get("process", "poisson") == "mmpp"
                        ? perfbench::Process::kMmpp
                        : perfbench::Process::kPoisson;
    shape.batch = static_cast<std::size_t>(flags.num("batch", 1));
    shape.num_areas = options.shards > 0 ? options.areas : 0;
    shape.rate = flags.num("rate", 1000);
    shape.seconds = flags.num("seconds", 5);
    // Stream 1 is the wire run's reference phase.
    std::vector<perfbench::ScheduledRequest> schedule =
        perfbench::make_schedule(seed, 1, shape);
    const auto max_requests =
        static_cast<std::size_t>(flags.num("max-requests", 1e9));
    if (schedule.size() > max_requests) schedule.resize(max_requests);

    // Transport first, on its own: the workload's bodies at the echo rate.
    perfbench::ScheduleShape echo_shape = shape;
    echo_shape.process = perfbench::Process::kPoisson;
    echo_shape.rate = flags.num("echo-rate", 500);
    echo_shape.seconds = flags.num("echo-seconds", 2);
    const perfbench::PhaseRun transport = echo(
        perfbench::make_schedule(seed, 1, echo_shape), shape.batch);
    std::vector<double> connect, server_time, rtt;
    std::size_t echo_errors = 0;
    for (const perfbench::Exchange& x : transport.requests) {
      if (x.status != 200) {
        ++echo_errors;
        continue;
      }
      connect.push_back(us(x.connected - x.start));
      server_time.push_back(us(x.first_byte - x.sent));
      rtt.push_back(us(x.done - x.start));
    }

    const auto [plain, traced] = replay(options, schedule);
    bool identical = plain.outcomes.size() == traced.outcomes.size();
    for (std::size_t i = 0; identical && i < plain.outcomes.size(); ++i) {
      identical = same(plain.outcomes[i], traced.outcomes[i]);
    }
    const bool spans_complete = traced.spans_recorded == traced.spans.size();

    // The task histogram's buckets are powers of two, so its quantiles
    // are bucket bounds; the exact sum over count is the measurement. The
    // single-service path runs each dispatch inline as its one task.
    double task_mean_us = summarize(plain.dispatch).mean;
    if (plain.task_ns && plain.task_ns->histogram.count > 0) {
      task_mean_us = plain.task_ns->histogram.sum /
                     static_cast<double>(plain.task_ns->histogram.count) / 1e3;
    }
    JsonOut out;
    out.num("requests", static_cast<double>(schedule.size()))
        .num("calls", static_cast<double>(plain.calls))
        .num("identical", identical ? 1 : 0)
        .num("spans_complete", spans_complete ? 1 : 0)
        .num("spans", static_cast<double>(traced.spans.size()))
        .num("echo_errors", static_cast<double>(echo_errors))
        .summary("echo_connect_us", summarize(connect))
        .summary("echo_server_us", summarize(server_time))
        .summary("echo_rtt_us", summarize(rtt))
        .summary("parse_us", summarize(plain.parse))
        .summary("parse_ns_per_call", summarize(plain.parse_ns_per_call))
        .summary("dispatch_us", summarize(plain.dispatch))
        .summary("encode_us", summarize(plain.encode))
        .summary("step_us", summarize(plain.step))
        .num("task_us_mean", task_mean_us)
        .summary("plan_us", summarize(self_times(traced.spans, "plan")))
        .summary("page_rounds_us",
                 summarize(self_times(traced.spans, "page_rounds")))
        .summary("recovery_us",
                 summarize(self_times(traced.spans, "recovery")))
        .summary("checkpoint_ms", summarize(plain.checkpoint_ms))
        .summary("restore_ms", summarize(plain.restore_ms))
        .summary("render_us", summarize(plain.render_us))
        .num("checkpoint_bytes", plain.checkpoint_bytes)
        .num("scrape_bytes", plain.scrape_bytes)
        .num("dispatch_total_untraced_us", plain.dispatch_total_us)
        .num("dispatch_total_traced_us", traced.dispatch_total_us);
    std::ofstream file(flags.get("out", options.workdir + "/replay.json"));
    file << out.text() << "\n";
    return file ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_replay: " << error.what() << "\n";
    return 1;
  }
}
