// confcall_serve — the location-management service as a long-running
// daemon with a live observability surface.
//
// Loads a named scenario (cellular/workload.h), builds the same stack the
// simulator builds — grid, location areas, mobility, fault plans,
// admission control, resilient planner — as a cellular::ServiceFleet
// (DESIGN.md §14), and drives it on the REAL clock: a paced locate loop
// moves users and serves arriving conference calls while an embedded
// HTTP server (support/http.h) exposes
//
//   GET  /metrics   Prometheus text, one consistent registry snapshot
//   GET  /vars      the same snapshot as JSON
//   GET  /healthz   JSON health: admission state plus, with
//                   --slo-p99-ms, the SLO controller's verdict and
//                   target vs observed p99. healthy/degraded -> 200,
//                   shedding -> 503; a "degrading" controller verdict
//                   (projected breach) also answers 503 so a load
//                   balancer drains BEFORE the SLO is broken
//                   (scenarios without admission control always
//                   report healthy)
//   GET  /readyz    the startup lifecycle (below), with areas_ready /
//                   areas_total in the body
//   GET  /traces    recent sampled spans, Chrome trace_event JSON
//   GET  /fleetz    per-shard JSON drill-down (queue depth, steals,
//                   task p99, plan-cache hits, exemplar trace ids)
//   POST /locate    serve conference calls right now and report the
//                   outcomes as JSON. The body grammar lives in
//                   cellular/locate_api.h: empty body or one object =
//                   one call (503 when admission sheds it); a JSON
//                   array = a batch served through
//                   ServiceFleet::locate_many (200 with per-element
//                   "admitted" verdicts); an optional "area" member
//                   routes a call. Malformed bodies get 400 with a
//                   JSON error.
//
// There is one serving path. A single service is a one-area, one-shard
// fleet: without --shards the daemon runs exactly that. --shards N|auto
// runs N per-core lanes over --fleet-areas independent serving areas
// (default 4 per shard), each a full location-management domain over
// the scenario's topology. Requests route by area (loop arrivals rotate
// areas round-robin), shards steal work when a lane backs up, and every
// area's planner shares one process-wide signature -> strategy table
// and one resilient-planner chain. Locate metrics carry a `shard` label
// (confcall_locate_*{shard=...}, confcall_fleet_*).
//
// Tracing is always on at a deterministic 1-in-N sample (--trace-every,
// default 64; 0 disables) through support::SamplingTracer, so /traces
// stays populated at well under the 5% overhead budget (bench_e16).
//
// Shutdown is graceful: SIGINT/SIGTERM stop the locate loop, drain the
// HTTP server (accepted connections are still answered), dump a final
// registry snapshot (--snapshot-out, JSON, written atomically), and
// exit 0.
//
// Crash safety (DESIGN.md §13): --state-out F checkpoints the learned
// serving state — one section per area (location database, visit
// statistics, ground-truth cells) plus the SLO actuator positions —
// through support/state_io's atomic versioned+checksummed writer, every
// --checkpoint-every-ms on the clock's period grid plus once at
// shutdown. --state-in F restores a checkpoint at startup; a valid one
// skips warmup entirely (warm restart: the DB and controller resume at
// their converged operating point; the plan table refills from its
// first lookups), while a
// missing, torn, corrupt, version-skewed or differently shaped file is
// REJECTED into a counted cold start
// (confcall_state_restore_total{result=...}) — never a crash. The
// restore is all-or-nothing across the fleet, and GET /readyz stays 503
// through restore and warmup so a balancer holds traffic until the
// process is actually warm. --supervise wraps the whole daemon in a
// fork/exec supervisor: the child is restarted on any unclean exit with
// exponential backoff and a bounded crash-loop budget (--max-restarts,
// reset after a healthy run).
//
// --slo-p99-ms T attaches a closed-loop SloController (requires a
// scenario with admission control, e.g. overloaded-urban): every
// --control-period-ms of wall time it reads the label-summed fleet-wide
// admitted-rounds histogram delta (RegistrySnapshot::sum_by) and adapts
// the admission token rate, degrade threshold and breaker cooldowns to
// hold an admitted-latency p99 of T ms, with bit-identical control
// trajectories at every shard count (the E21 gate). 0 (the default)
// leaves the static thresholds in charge. --metrics-exemplars opts
// /metrics into OpenMetrics exemplar suffixes that carry a sampled trace
// id on each latency bucket (off by default so the exposition stays
// byte-identical).
//
//   confcall_serve [--scenario dense-urban|campus|highway|degraded-urban|
//                              overloaded-urban]
//                  [--port P] [--port-file FILE] [--workers N]
//                  [--steps N] [--step-ms MS]
//                  [--shards N|auto] [--fleet-areas N]
//                  [--trace-every N] [--trace-capacity N]
//                  [--slo-p99-ms MS] [--control-period-ms MS]
//                  [--metrics-exemplars]
//                  [--seed S] [--snapshot-out FILE]
//                  [--state-in FILE] [--state-out FILE]
//                  [--checkpoint-every-ms MS]
//                  [--supervise] [--max-restarts N]
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// resolved port for scripts (the CI smoke test starts the daemon with an
// ephemeral port, reads the file, curls /healthz and /metrics, then
// SIGTERMs and asserts a clean exit). --steps 0 runs until a signal.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cellular/locate_api.h"
#include "cellular/service_fleet.h"
#include "cellular/simulator.h"
#include "cellular/workload.h"
#include "core/planner.h"
#include "core/resilient_planner.h"
#include "prob/rng.h"
#include "support/cli.h"
#include "support/http.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"
#include "support/state_io.h"
#include "support/trace.h"

namespace {

using namespace confcall;

// Async-signal-safe stop flag: the handlers only store.
std::atomic<bool> g_stop{false};

void on_signal(int /*signum*/) { g_stop.store(true); }

// Supervisor state: the live child's pid for signal forwarding.
std::atomic<pid_t> g_child{0};
std::atomic<bool> g_supervisor_stop{false};

void on_supervisor_signal(int signum) {
  g_supervisor_stop.store(true);
  const pid_t child = g_child.load();
  if (child > 0) (void)::kill(child, signum);  // async-signal-safe
}

/// --supervise: fork/exec the same command line (minus the supervisor
/// flags) and keep it alive. A clean child exit (status 0) ends the
/// supervisor; any crash or unclean exit earns an exponential-backoff
/// restart from a bounded crash-loop budget. A child that stays up past
/// the healthy threshold refills the budget, so a daemon that crashes
/// once a day restarts forever while a boot-loop dies fast and loudly.
/// SIGINT/SIGTERM are forwarded to the child so graceful drain still
/// works through the supervisor.
int run_supervisor(int argc, char** argv, std::int64_t max_restarts) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--supervise" || arg.rfind("--supervise=", 0) == 0 ||
        arg.rfind("--max-restarts=", 0) == 0) {
      continue;
    }
    if (arg == "--max-restarts") {
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) ++i;
      continue;
    }
    args.push_back(arg);
  }

  (void)std::signal(SIGINT, on_supervisor_signal);
  (void)std::signal(SIGTERM, on_supervisor_signal);

  constexpr std::uint64_t kHealthyRunNs = 10'000'000'000;  // 10 s
  constexpr std::uint64_t kBackoffStartMs = 100;
  constexpr std::uint64_t kBackoffCapMs = 5'000;
  const support::ClockSource& clock = support::SteadyClockSource::shared();
  std::int64_t restarts_left = max_restarts;
  std::uint64_t backoff_ms = kBackoffStartMs;

  while (true) {
    const std::uint64_t started_ns = clock.now_ns();
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "confcall_serve: supervisor fork failed\n";
      return 1;
    }
    if (pid == 0) {
      std::vector<char*> child_argv;
      child_argv.reserve(args.size() + 1);
      for (const std::string& a : args) {
        child_argv.push_back(const_cast<char*>(a.c_str()));
      }
      child_argv.push_back(nullptr);
      // /proc/self/exe instead of argv[0]: execv does not search PATH,
      // and the supervisor must relaunch THIS binary regardless of how
      // it was invoked.
      (void)::execv("/proc/self/exe", child_argv.data());
      ::_exit(127);  // exec failed; plain exit would re-run atexit state
    }
    g_child.store(pid);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        status = -1;
        break;
      }
    }
    g_child.store(0);

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      std::cout << "confcall_serve: supervised child exited cleanly"
                << std::endl;
      return 0;
    }
    const std::string how =
        WIFSIGNALED(status)
            ? "killed by signal " + std::to_string(WTERMSIG(status))
            : "exited with status " +
                  std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                   : -1);
    if (g_supervisor_stop.load()) {
      // We asked it to stop; an unclean death during drain is still the
      // end of the line, not a restart.
      std::cerr << "confcall_serve: supervised child " << how
                << " during shutdown\n";
      return 1;
    }
    if (clock.now_ns() - started_ns >= kHealthyRunNs) {
      restarts_left = max_restarts;
      backoff_ms = kBackoffStartMs;
    }
    if (restarts_left <= 0) {
      std::cerr << "confcall_serve: supervised child " << how
                << "; crash-loop budget exhausted, giving up\n";
      return 1;
    }
    --restarts_left;
    std::cout << "confcall_serve: supervised child " << how
              << "; restarting in " << backoff_ms << " ms ("
              << restarts_left << " restarts left)" << std::endl;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    if (g_supervisor_stop.load()) return 1;
    backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
  }
}

constexpr const char* kUsage =
    "usage: confcall_serve"
    " [--scenario dense-urban|campus|highway|degraded-urban|"
    "overloaded-urban]"
    " [--port P] [--port-file FILE] [--workers N]"
    " [--steps N] [--step-ms MS]"
    " [--shards N|auto] [--fleet-areas N]"
    " [--trace-every N] [--trace-capacity N]"
    " [--slo-p99-ms MS] [--control-period-ms MS]"
    " [--metrics-exemplars]"
    " [--seed S] [--snapshot-out FILE]"
    " [--state-in FILE] [--state-out FILE] [--checkpoint-every-ms MS]"
    " [--supervise] [--max-restarts N]\n"
    "\n"
    "Runs the location-management service as a daemon: a paced locate\n"
    "loop over the chosen scenario plus an HTTP observability surface\n"
    "(GET /metrics /vars /healthz /readyz /traces /fleetz and POST\n"
    "/locate).\n"
    "--port 0 binds an ephemeral port (--port-file writes the resolved\n"
    "one); --steps 0 serves until SIGINT/SIGTERM, which drain gracefully\n"
    "and dump a final snapshot to --snapshot-out. --slo-p99-ms T closes\n"
    "the loop: an SloController holds the admitted-latency p99 at T ms\n"
    "by adapting admission and breaker knobs every --control-period-ms\n"
    "(default 1000; needs a scenario with admission control).\n"
    "\n"
    "Crash safety: --state-out F writes an atomic, checksummed\n"
    "checkpoint of the learned serving state every --checkpoint-every-ms\n"
    "(0 = only at shutdown) and --state-in F restores one at startup —\n"
    "a valid checkpoint skips warmup (warm restart), a damaged one is a\n"
    "counted cold start, never a crash. /readyz answers 503 until the\n"
    "process is warm. --supervise runs the daemon under a fork/exec\n"
    "supervisor with exponential-backoff restarts bounded by\n"
    "--max-restarts (default 5, refilled after a 10 s healthy run).\n"
    "\n"
    "Serving runs a ServiceFleet: one shard and one area by default.\n"
    "--shards N (or 'auto' = hardware threads) runs N per-core lanes\n"
    "with work stealing over --fleet-areas independent serving areas\n"
    "(default 1, or 4 per shard with --shards) and one bounded shared\n"
    "plan table. POST /locate takes an \"area\" member; metrics carry a\n"
    "shard label; checkpoints restore all-or-nothing across every area\n"
    "before /readyz goes 200 (its body reports areas_ready/areas_total).\n"
    "GET /fleetz renders a per-shard JSON drill-down. The SLO controller\n"
    "senses the label-summed fleet-wide rounds window, so control\n"
    "trajectories are bit-identical at every shard count.\n"
    "--metrics-exemplars opts /metrics into OpenMetrics exemplar\n"
    "suffixes (sampled trace ids on latency buckets).\n";

/// Resolves --shards: absent/"0" = 0 (one shard, one area), "auto" =
/// one shard per hardware thread, otherwise a positive count.
std::size_t parse_shards_flag(const std::string& raw) {
  if (raw.empty() || raw == "0") return 0;
  if (raw == "auto") {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  std::size_t pos = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(raw, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("--shards must be a positive count or 'auto'");
  }
  if (pos != raw.size() || value == 0) {
    throw std::invalid_argument("--shards must be a positive count or 'auto'");
  }
  return static_cast<std::size_t>(value);
}

cellular::Scenario find_scenario(const std::string& name,
                                 std::uint64_t seed) {
  for (cellular::Scenario& scenario : cellular::all_scenarios(seed)) {
    if (scenario.name == name) return std::move(scenario);
  }
  std::string names;
  for (const cellular::Scenario& scenario : cellular::all_scenarios(seed)) {
    names += names.empty() ? scenario.name : "|" + scenario.name;
  }
  throw std::invalid_argument("unknown scenario '" + name + "' (" + names +
                              ")");
}

}  // namespace


int main(int argc, char** argv) {
  try {
    const support::Cli cli(argc, argv);
    if (cli.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    if (cli.has("supervise")) {
      const std::int64_t max_restarts = cli.get_int("max-restarts", 5);
      if (max_restarts < 0) {
        throw std::invalid_argument("--max-restarts must be >= 0");
      }
      return run_supervisor(argc, argv, max_restarts);
    }
    const std::string scenario_name =
        cli.get_string("scenario", "dense-urban");
    const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
    const std::string port_file = cli.get_string("port-file", "");
    const auto workers = static_cast<std::size_t>(cli.get_int("workers", 2));
    const std::int64_t steps = cli.get_int("steps", 0);
    const std::int64_t step_ms = cli.get_int("step-ms", 10);
    const std::int64_t trace_every = cli.get_int("trace-every", 64);
    const std::int64_t trace_capacity = cli.get_int("trace-capacity", 2048);
    const std::int64_t slo_p99_ms = cli.get_int("slo-p99-ms", 0);
    const std::int64_t control_period_ms =
        cli.get_int("control-period-ms", 1000);
    const bool metrics_exemplars = cli.has("metrics-exemplars");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const std::string snapshot_out = cli.get_string("snapshot-out", "");
    const std::string state_in = cli.get_string("state-in", "");
    const std::string state_out = cli.get_string("state-out", "");
    const std::int64_t checkpoint_every_ms =
        cli.get_int("checkpoint-every-ms", 0);
    const std::size_t shards_flag =
        parse_shards_flag(cli.get_string("shards", ""));
    const std::int64_t fleet_areas_flag = cli.get_int("fleet-areas", 0);
    (void)cli.get_int("max-restarts", 5);  // consumed by the supervisor
    for (const auto& flag : cli.unused()) {
      throw std::invalid_argument("unknown flag --" + flag);
    }
    if (checkpoint_every_ms < 0) {
      throw std::invalid_argument("--checkpoint-every-ms must be >= 0");
    }
    if (checkpoint_every_ms > 0 && state_out.empty()) {
      throw std::invalid_argument("--checkpoint-every-ms needs --state-out");
    }
    if (steps < 0 || step_ms < 0 || trace_every < 0 || trace_capacity < 1) {
      throw std::invalid_argument(
          "--steps/--step-ms/--trace-every must be >= 0, "
          "--trace-capacity >= 1");
    }
    if (slo_p99_ms < 0 || control_period_ms < 1) {
      throw std::invalid_argument(
          "--slo-p99-ms must be >= 0, --control-period-ms >= 1");
    }
    if (fleet_areas_flag < 0) {
      throw std::invalid_argument("--fleet-areas must be >= 0");
    }
    // A single service is a one-area, one-shard fleet; --shards N keeps
    // the 4-areas-per-shard default.
    const std::size_t num_shards = std::max<std::size_t>(1, shards_flag);
    const std::size_t num_areas =
        fleet_areas_flag > 0 ? static_cast<std::size_t>(fleet_areas_flag)
        : shards_flag > 0    ? shards_flag * 4
                             : 1;

    const cellular::Scenario scenario = find_scenario(scenario_name, seed);
    const cellular::SimConfig& config = scenario.config;
    config.validate();

    // The simulator's stack, assembled on the REAL clock: token refill,
    // call deadlines and breaker cooldowns all track wall time here,
    // where run_simulation drives them from a virtual ManualClock.
    const support::ClockSource& clock = support::SteadyClockSource::shared();
    const cellular::GridTopology grid(config.grid_rows, config.grid_cols,
                                      config.toroidal, config.neighborhood);
    const cellular::LocationAreas areas = cellular::LocationAreas::tiles(
        grid, config.la_tile_rows, config.la_tile_cols);
    const cellular::MarkovMobility mobility(grid, config.stay_probability);
    // Every area starts from the same initial cells; divergence comes
    // from the fleet's per-area mobility substreams.
    prob::Rng rng(config.seed);
    std::vector<cellular::CellId> user_cells;
    user_cells.reserve(config.num_users);
    for (std::size_t u = 0; u < config.num_users; ++u) {
      user_cells.push_back(
          static_cast<cellular::CellId>(rng.next_below(grid.num_cells())));
    }

    support::MetricRegistry registry;
    // One process-wide tracer shared by every area: root sampling is a
    // single atomic counter (exactly 1-in-N fleet-wide) and span stacks
    // are thread_local, so shard lanes trace safely (trace.h audit).
    std::unique_ptr<support::SamplingTracer> tracer;
    if (trace_every > 0) {
      tracer = std::make_unique<support::SamplingTracer>(
          static_cast<std::size_t>(trace_every),
          static_cast<std::size_t>(trace_capacity), clock);
    }
    const cellular::OverloadConfig& overload = config.overload;
    // One resilient-planner chain serves every lane: its breakers and
    // tier telemetry are atomic or internally locked (resilient_planner.h).
    std::unique_ptr<core::ResilientPlanner> resilient;
    std::optional<support::AdmissionController> admission;
    cellular::LocationService::Config service_cfg = config.service_config();
    service_cfg.tracer = tracer.get();  // carried into every area
    if (overload.enabled) {
      if (overload.resilient_planner) {
        std::vector<std::unique_ptr<core::Planner>> chain;
        chain.push_back(std::make_unique<core::TypedExactPlanner>(
            core::Objective::all_of(), overload.planner_node_limit));
        chain.push_back(std::make_unique<core::GreedyPlanner>());
        chain.push_back(std::make_unique<core::BlanketPlanner>());
        resilient = std::make_unique<core::ResilientPlanner>(
            std::move(chain), core::ResilientPlanner::Budget{0.0}, clock,
            overload.breaker, &registry);
        service_cfg.planner = resilient.get();
      }
      service_cfg.clock = &clock;
      service_cfg.round_duration_ns = overload.round_duration_ns;
      admission.emplace(overload.admission, clock);
      admission->bind_metrics(registry);
    }
    // The fleet-wide closed loop: ONE controller over ONE shared
    // admission throttle. It senses sum_by("confcall_locate_rounds") —
    // the label-erased union of every shard's window — which is
    // invariant under resharding, so the control trajectory is
    // bit-identical at every shard count (the E21 gate).
    std::unique_ptr<support::SloController> slo;
    if (slo_p99_ms > 0) {
      if (!admission) {
        throw std::invalid_argument(
            "--slo-p99-ms needs a scenario with admission control "
            "(e.g. overloaded-urban)");
      }
      support::SloOptions slo_options = overload.slo;
      slo_options.enabled = true;
      slo_options.target_p99_ns =
          static_cast<std::uint64_t>(slo_p99_ms) * 1'000'000ULL;
      slo_options.control_period_ns =
          static_cast<std::uint64_t>(control_period_ms) * 1'000'000ULL;
      slo = std::make_unique<support::SloController>(
          slo_options, registry, *admission, clock,
          overload.round_duration_ns);
      if (resilient) {
        for (std::size_t i = 0; i + 1 < resilient->num_tiers(); ++i) {
          slo->add_breaker(&resilient->mutable_breaker(i));
        }
      }
      slo->bind_metrics(registry);
    }

    cellular::FleetConfig fleet_cfg;
    fleet_cfg.num_shards = num_shards;
    fleet_cfg.num_areas = num_areas;
    fleet_cfg.seed = config.seed;
    fleet_cfg.registry = &registry;
    fleet_cfg.pin_threads = true;
    fleet_cfg.faults = config.faults;
    cellular::ServiceFleet fleet(grid, areas, mobility, service_cfg,
                                 user_cells, fleet_cfg);

    const cellular::CallGenerator calls(config.call_rate, config.num_users,
                                        config.group_min, config.group_max);
    // Forced arrivals for POST /locate: same group-size law, rate 1.
    const cellular::CallGenerator forced_calls(1.0, config.num_users,
                                               config.group_min,
                                               config.group_max);
    std::optional<cellular::BurstyCallGenerator> bursty;
    if (config.burst.enabled) {
      bursty.emplace(config.burst, config.num_users, config.group_min,
                     config.group_max);
    }

    const support::Counter steps_metric = registry.counter(
        "confcall_serve_steps_total", "Locate-loop steps the daemon ran");
    const support::Counter arrivals_metric = registry.counter(
        "confcall_serve_calls_arrived_total",
        "Conference-call arrivals (loop traffic plus POST /locate)");
    const support::Counter shed_metric = registry.counter(
        "confcall_serve_calls_shed_total",
        "Arrivals rejected by admission control");
    const support::Counter checkpoints_metric = registry.counter(
        "confcall_state_checkpoints_total",
        "State checkpoints written successfully");
    const support::Counter checkpoint_failed_metric = registry.counter(
        "confcall_state_checkpoint_failed_total",
        "State checkpoint writes that failed (I/O)");
    const support::Gauge checkpoint_bytes_metric = registry.gauge(
        "confcall_state_checkpoint_bytes",
        "Size of the last checkpoint file written");
    const auto count_restore = [&registry](const std::string& result) {
      registry
          .counter("confcall_state_restore_total",
                   "Startup state-restore attempts by result: restored, "
                   "or the cold-start cause",
                   {{"result", result}})
          .inc();
    };

    // One mutex serializes every fleet dispatch (loop vs POST /locate vs
    // checkpoints) and the daemon's rng and generators; parallelism
    // happens INSIDE a dispatch, across the fleet's shard lanes.
    // Registry, tracer and admission are internally locked and stay
    // readable by the scrape handlers without it.
    std::mutex sim_mutex;
    support::ReadinessGate readiness;

    std::uint64_t checkpoints_written = 0;
    const auto write_checkpoint = [&] {
      support::StateBundle bundle;
      {
        std::lock_guard<std::mutex> lock(sim_mutex);
        fleet.add_state_sections(bundle);
      }
      if (slo) {
        bundle.add(support::SloController::kStateSection,
                   support::SloController::kStateVersion, slo->save_state());
      }
      try {
        const std::size_t bytes = support::save_state_file(state_out, bundle);
        checkpoints_metric.inc();
        checkpoint_bytes_metric.set(static_cast<double>(bytes));
        ++checkpoints_written;
        return true;
      } catch (const std::exception& error) {
        // A full disk must degrade durability, never serving.
        checkpoint_failed_metric.inc();
        std::cerr << "confcall_serve: checkpoint failed: " << error.what()
                  << "\n";
        return false;
      }
    };

    const auto admit = [&](std::size_t participants,
                           cellular::LocationService::LocateContext*
                               context) {
      arrivals_metric.inc();
      if (!admission) return true;
      const support::AdmissionController::Decision decision =
          admission->admit(static_cast<double>(participants));
      if (decision == support::AdmissionController::Decision::kShed) {
        shed_metric.inc();
        return false;
      }
      if (decision == support::AdmissionController::Decision::kAdmitDegraded) {
        context->plan_cheap = true;
      }
      if (overload.call_deadline_ns != 0) {
        context->deadline =
            support::Deadline::after(overload.call_deadline_ns, clock);
      }
      return true;
    };

    // One paced step: move everyone, then maybe serve one arriving call.
    // Loop arrivals rotate areas round-robin so every serving domain
    // sees loop traffic.
    std::uint64_t area_rotor = 0;
    const auto step_once = [&] {
      std::lock_guard<std::mutex> lock(sim_mutex);
      fleet.step_all();
      steps_metric.inc();
      const cellular::CallEvent event =
          bursty ? bursty->maybe_call(rng) : calls.maybe_call(rng);
      if (!event.participants.empty()) {
        cellular::ServiceFleet::Request request;
        request.area = area_rotor++ % num_areas;
        request.users = event.participants;
        if (admit(request.users.size(), &request.context)) {
          (void)fleet.locate_many({&request, 1});
        }
      }
      // Controller steps land on the wall-clock period grid; polling it
      // every loop step is one clock read when no boundary passed.
      if (slo) (void)slo->maybe_step();
    };

    // Areas whose state is live: all of them once ready, the restore's
    // progress while one is in flight, none before.
    const auto areas_ready = [&fleet, num_areas](support::Readiness phase) {
      switch (phase) {
        case support::Readiness::kReady:
        case support::Readiness::kDraining:
          return num_areas;
        case support::Readiness::kRestoring:
          return fleet.areas_restored();
        default:
          return std::size_t{0};
      }
    };

    support::HttpServerOptions http_options;
    http_options.port = port;
    http_options.workers = workers;
    support::HttpServer server(http_options);
    server.bind_metrics(registry);
    support::ObservabilityOptions observability;
    observability.exemplars = metrics_exemplars;
    observability.readyz_detail = [&areas_ready, &readiness, num_areas] {
      return "\"areas_ready\": " +
             std::to_string(areas_ready(readiness.state())) +
             ", \"areas_total\": " + std::to_string(num_areas);
    };
    support::install_observability_routes(
        server, &registry, tracer.get(), admission ? &*admission : nullptr,
        slo.get(), &readiness, observability);
    // Fleet drill-down: ONE consistent registry snapshot rendered as
    // per-shard JSON — queue depth, work stealing, task latency, plan
    // cache traffic and the exemplar trace ids that bridge the rounds
    // histogram to /traces. Counters come from the snapshot rather
    // than FleetStats: the snapshot is a race-free consistent cut the
    // dispatcher thread never has to pause for.
    server.handle("GET", "/fleetz", [&](const support::HttpRequest&) {
      support::HttpResponse response;
      response.content_type = "application/json";
      const support::RegistrySnapshot snap = registry.snapshot();
      const auto find = [&snap](std::string_view name,
                                const std::string& shard)
          -> const support::MetricSnapshot* {
        for (const support::MetricSnapshot& metric : snap.metrics) {
          if (metric.name != name) continue;
          if (shard.empty() && metric.labels.empty()) return &metric;
          for (const auto& label : metric.labels) {
            if (label.first == "shard" && label.second == shard) {
              return &metric;
            }
          }
        }
        return nullptr;
      };
      const auto counter = [&find](std::string_view name,
                                   const std::string& shard) {
        const support::MetricSnapshot* metric = find(name, shard);
        return metric ? metric->counter_value : std::uint64_t{0};
      };
      const auto hex16 = [](std::uint64_t id) {
        std::ostringstream os;
        os << std::hex << std::setfill('0') << std::setw(16) << id;
        return os.str();
      };
      const support::Readiness phase = readiness.state();
      std::ostringstream body;
      body << "{\"shards\": " << num_shards << ", \"areas\": " << num_areas
           << ", \"areas_ready\": " << areas_ready(phase) << ", \"phase\": \""
           << support::readiness_name(phase)
           << "\", \"dispatches\": "
           << counter("confcall_fleet_dispatches_total", "")
           << ", \"requests\": "
           << counter("confcall_fleet_requests_total", "")
           << ", \"queue_overflows\": "
           << counter("confcall_fleet_queue_overflow_total", "");
      const support::MetricSnapshot* entries =
          find("confcall_fleet_shared_plan_entries", "");
      body << ", \"shared_plan\": {\"hits\": "
           << counter("confcall_fleet_shared_plan_hits_total", "")
           << ", \"misses\": "
           << counter("confcall_fleet_shared_plan_misses_total", "")
           << ", \"entries\": "
           << (entries != nullptr
                   ? static_cast<std::uint64_t>(entries->gauge_value)
                   : 0)
           << ", \"evictions\": "
           << counter("confcall_fleet_shared_plan_evictions_total", "")
           // Fixed at construction, so readable without the sim_mutex.
           << ", \"capacity\": " << fleet.shared_table().plans.capacity()
           << "}, \"per_shard\": [";
      for (std::size_t s = 0; s < num_shards; ++s) {
        const std::string shard = std::to_string(s);
        if (s > 0) body << ", ";
        const support::MetricSnapshot* depth =
            find("confcall_fleet_queue_depth", shard);
        const support::MetricSnapshot* task_ns =
            find("confcall_fleet_task_ns", shard);
        const support::MetricSnapshot* rounds =
            find("confcall_locate_rounds", shard);
        body << "{\"shard\": " << s << ", \"queue_depth\": "
             << (depth != nullptr
                     ? static_cast<std::uint64_t>(depth->gauge_value)
                     : 0)
             << ", \"tasks\": "
             << counter("confcall_fleet_tasks_total", shard)
             << ", \"steals\": "
             << counter("confcall_fleet_steals_total", shard)
             << ", \"task_p99_ns\": "
             << (task_ns != nullptr ? task_ns->histogram.quantile(0.99)
                                    : 0.0)
             << ", \"locate_calls\": "
             << counter("confcall_locate_calls_total", shard)
             << ", \"plan_cache_hits\": "
             << counter("confcall_locate_plan_cache_hits_total", shard)
             << ", \"plan_cache_misses\": "
             << counter("confcall_locate_plan_cache_misses_total", shard)
             << ", \"rounds_p99\": "
             << (rounds != nullptr ? rounds->histogram.quantile(0.99)
                                   : 0.0)
             << ", \"exemplar_trace_ids\": [";
        bool first = true;
        if (rounds != nullptr) {
          for (const support::Exemplar& exemplar :
               rounds->histogram.exemplars) {
            if (!exemplar.valid()) continue;
            if (!first) body << ", ";
            first = false;
            body << "\"" << hex16(exemplar.trace_id) << "\"";
          }
        }
        body << "]}";
      }
      body << "]}\n";
      response.body = body.str();
      return response;
    });
    server.handle("POST", "/locate", [&](const support::HttpRequest&
                                             http_request) {
      support::HttpResponse response;
      response.content_type = "application/json";
      // Parse outside the sim lock: malformed input never touches (or
      // blocks) the serving state.
      cellular::LocateApiRequest api;
      try {
        api = cellular::parse_locate_body(http_request.body,
                                          config.num_users, num_areas);
      } catch (const std::exception& error) {
        response.status = 400;
        response.body = "{\"error\": \"" +
                        support::json_escape(error.what()) + "\"}\n";
        return response;
      }

      std::lock_guard<std::mutex> lock(sim_mutex);
      // One admission pass over the whole batch, then a single fleet
      // dispatch over the admitted calls.
      struct PendingCall {
        cellular::ServiceFleet::Request request;
        bool admitted = false;
      };
      std::vector<PendingCall> pending;
      pending.reserve(api.calls.size());
      std::vector<cellular::ServiceFleet::Request> admitted;
      admitted.reserve(api.calls.size());
      for (const cellular::LocateCallSpec& spec : api.calls) {
        PendingCall call;
        call.request.area = spec.area;
        call.request.users = spec.users.empty()
                                 ? forced_calls.maybe_call(rng).participants
                                 : spec.users;
        call.admitted =
            admit(call.request.users.size(), &call.request.context);
        if (call.admitted) admitted.push_back(call.request);
        pending.push_back(std::move(call));
      }
      const std::vector<cellular::LocationService::LocateOutcome> outcomes =
          fleet.locate_many(admitted);

      std::string body;
      std::size_t next_outcome = 0;
      if (api.batch) {
        body += "[";
        for (std::size_t i = 0; i < pending.size(); ++i) {
          if (i > 0) body += ", ";
          const PendingCall& call = pending[i];
          cellular::append_outcome_json(
              body, call.admitted, call.request.users.size(),
              call.admitted ? &outcomes[next_outcome] : nullptr);
          if (call.admitted) ++next_outcome;
        }
        body += "]\n";
      } else {
        // Single-call contract (empty body or one object): 503 on shed.
        const PendingCall& call = pending.front();
        if (!call.admitted) response.status = 503;
        cellular::append_outcome_json(
            body, call.admitted, call.request.users.size(),
            call.admitted ? &outcomes.front() : nullptr);
        body += "\n";
      }
      response.body = std::move(body);
      return response;
    });

    (void)std::signal(SIGINT, on_signal);
    (void)std::signal(SIGTERM, on_signal);
    server.start();
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) {
        throw std::runtime_error("cannot write port file '" + port_file +
                                 "'");
      }
      out << server.port() << "\n";
    }
    std::cout << "confcall_serve: scenario=" << scenario.name
              << " serving on 127.0.0.1:" << server.port() << " (shards="
              << num_shards << ", areas=" << num_areas
              << ", trace-every=" << trace_every;
    if (slo) {
      std::cout << ", slo-p99-ms=" << slo_p99_ms
                << ", control-period-ms=" << control_period_ms;
    }
    std::cout << ")" << std::endl;

    // Warm restart or cold start. The server is already answering, but
    // /readyz holds 503 through restore and warmup so a balancer does
    // not route to a half-warm backend. A valid checkpoint stands in for
    // the whole warmup phase, and only when EVERY area restores (the
    // fleet restore is all-or-nothing).
    bool restored = false;
    if (!state_in.empty()) {
      readiness.set(support::Readiness::kRestoring);
      const support::StateLoadResult loaded =
          support::load_state_file(state_in);
      if (!loaded.ok()) {
        count_restore(std::string("cold_") +
                      support::state_load_status_name(loaded.status));
        std::cout << "confcall_serve: state: cold start ("
                  << support::state_load_status_name(loaded.status) << ": "
                  << loaded.message << ")" << std::endl;
      } else {
        bool sections_ok = false;
        {
          std::lock_guard<std::mutex> lock(sim_mutex);
          sections_ok = fleet.restore_state_sections(loaded.bundle);
        }
        if (sections_ok && slo) {
          // Controller actuators resume at their converged operating
          // point together with the fleet state they converged on.
          const support::StateSection* section =
              loaded.bundle.find(support::SloController::kStateSection);
          sections_ok = section != nullptr &&
                        slo->restore_state(section->payload,
                                           section->version);
        }
        if (sections_ok) {
          restored = true;
          count_restore("restored");
          std::cout << "confcall_serve: state: restored from " << state_in
                    << " (" << loaded.bundle.sections().size()
                    << " sections)" << std::endl;
        } else {
          count_restore("cold_section_mismatch");
          std::cout << "confcall_serve: state: cold start (section "
                       "missing, version skew, or shape mismatch)"
                    << std::endl;
        }
      }
    }
    if (!restored) {
      // Warmup (movement only, unpaced) so every location database is
      // warm before the first routed locate.
      readiness.set(support::Readiness::kWarmup);
      for (std::size_t t = 0; t < config.warmup_steps; ++t) {
        std::lock_guard<std::mutex> lock(sim_mutex);
        fleet.step_all();
      }
    }
    readiness.set(support::Readiness::kReady);

    // Checkpoints land on a fixed period grid from here, like the SLO
    // controller's steps: however late a loop iteration polls, the next
    // boundary stays a multiple of the period.
    const std::uint64_t checkpoint_period_ns =
        static_cast<std::uint64_t>(checkpoint_every_ms) * 1'000'000ULL;
    std::uint64_t next_checkpoint_ns =
        checkpoint_period_ns == 0 ? 0 : clock.now_ns() + checkpoint_period_ns;

    std::uint64_t steps_run = 0;
    while (!g_stop.load()) {
      if (steps > 0 && steps_run >= static_cast<std::uint64_t>(steps)) break;
      step_once();
      ++steps_run;
      if (checkpoint_period_ns != 0) {
        const std::uint64_t now = clock.now_ns();
        if (now >= next_checkpoint_ns) {
          while (next_checkpoint_ns <= now) {
            next_checkpoint_ns += checkpoint_period_ns;
          }
          (void)write_checkpoint();
        }
      }
      if (step_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
      }
    }

    // Graceful drain: readiness drops first (the balancer stops routing),
    // the listener closes, accepted connections are still answered, then
    // the final checkpoint and snapshot are cut.
    readiness.set(support::Readiness::kDraining);
    server.stop();
    if (!state_out.empty()) (void)write_checkpoint();
    const support::RegistrySnapshot snapshot = registry.snapshot();
    if (!snapshot_out.empty()) {
      // Atomic temp+rename: a crash mid-dump must never leave a torn
      // snapshot where a complete one is expected.
      std::string error;
      if (!support::write_file_atomic(snapshot_out,
                                      support::to_json(snapshot), &error)) {
        throw std::runtime_error("cannot write snapshot file: " + error);
      }
    }
    const cellular::ServiceFleet::FleetStats& fleet_stats = fleet.stats();
    std::cout << "confcall_serve: stopped after " << steps_run
              << " steps, served " << server.requests_served()
              << " http requests (" << server.connections_shed()
              << " shed), fleet ran " << fleet_stats.tasks
              << " area-tasks (" << fleet_stats.steals << " stolen, "
              << fleet_stats.overflows << " overflowed)";
    if (!state_out.empty()) {
      std::cout << ", wrote " << checkpoints_written << " checkpoints";
    }
    if (tracer) {
      std::cout << ", sampled " << tracer->roots_sampled() << "/"
                << tracer->roots_seen() << " traces";
    }
    if (slo) {
      std::cout << ", ran " << slo->control_steps() << " control steps ("
                << slo->breaches() << " breached, "
                << slo->pre_breach_signals() << " pre-breach)";
    }
    std::cout << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "confcall_serve: " << error.what() << "\n";
    return 1;
  }
}
