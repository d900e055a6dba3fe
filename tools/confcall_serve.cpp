// confcall_serve — the location-management service as a long-running
// daemon with a live observability surface.
//
// Loads a named scenario (cellular/workload.h) and serves it through a
// cellular::ServingNode (cellular/serving_node.h) on the REAL clock: the
// node owns the ServiceFleet (DESIGN.md §14), the OverloadStack the
// simulator also builds (admission control, resilient planner, SLO
// controller), checkpoints and the embedded HTTP server with its routes
//
//   GET  /metrics /vars /healthz /readyz /traces /fleetz
//   POST /locate    one call, or a JSON array served as one batch
//
// (route contracts in serving_node.h). This file is the process around
// the node: flags, --supervise, signals, --port-file, the paced locate
// loop that moves users and serves arriving conference calls, and the
// summary line, which reads the node's metric registry as /fleetz does.
//
// There is one serving path. A single service is a one-area, one-shard
// fleet: without --shards the daemon runs exactly that. --shards N|auto
// runs a pool of N threads over --fleet-areas independent serving areas
// (default 4 per shard), each a full location-management domain over
// the scenario's topology. Requests route by area (loop arrivals rotate
// areas round-robin), each touched area runs as one pool task, and every
// area's planner shares one process-wide signature -> strategy table
// and one resilient-planner chain. Locate metrics carry a `shard` label
// (confcall_locate_*{shard=...}, confcall_fleet_*).
//
// Tracing is always on at a deterministic 1-in-N sample (--trace-every,
// default 64; 0 disables) through support::SamplingTracer, so /traces
// stays populated within the per-call overhead budget bench_e16 gates
// (<= 100 ns per call).
//
// The HTTP server runs --workers event loops (default 1), each a thread
// that accepts, reads, handles, writes and closes its connections
// itself (support/http.h).
//
// Shutdown is graceful: SIGINT/SIGTERM stop the locate loop, drain the
// HTTP server (open connections are still answered), dump a final
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
// restore is all-or-nothing across the fleet and the SLO controller, and
// GET /readyz stays 503 through restore and warmup so a balancer holds
// traffic until the process is actually warm. The warmup is one
// area-major fleet dispatch under the serving mutex: a POST /locate sent
// during it is answered only after the whole warmup. --supervise wraps
// the whole daemon in a fork/exec supervisor: the child is restarted on
// any unclean exit with exponential backoff and a bounded crash-loop
// budget (--max-restarts, reset after a healthy run).
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
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cellular/serving_node.h"
#include "cellular/workload.h"
#include "support/cli.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"
#include "support/state_io.h"
#include "support/trace.h"

namespace {

using namespace confcall;

// Async-signal-safe stop: the handlers store the flag and write one byte
// to a self-pipe. The paced loop waits on the pipe, so its wait ends as
// soon as the flag is set, whichever thread the signal landed on (a
// sleep_for is restarted after the handler and would run to its end).
std::atomic<bool> g_stop{false};
int g_stop_pipe[2] = {-1, -1};

void on_signal(int /*signum*/) {
  const int saved_errno = errno;
  g_stop.store(true);
  (void)::write(g_stop_pipe[1], "", 1);
  errno = saved_errno;
}

/// Waits `ms` milliseconds, or less once a stop signal arrives.
void wait_unless_stopped(std::uint64_t ms) {
  pollfd wake{g_stop_pipe[0], POLLIN, 0};
  const auto timeout_ms = std::min<std::uint64_t>(ms, INT_MAX);
  (void)::poll(&wake, 1, static_cast<int>(timeout_ms));
}

/// Writes `text` to `stream` (stdout or stderr) and flushes it, so each
/// status line reaches a pipe when it is printed: scripts wait on the
/// startup line. The daemon has no iostreams (support/text.h).
void print(std::FILE* stream, const std::string& text) {
  (void)std::fwrite(text.data(), 1, text.size(), stream);
  (void)std::fflush(stream);
}

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
      print(stderr, "confcall_serve: supervisor fork failed\n");
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
      print(stdout, "confcall_serve: supervised child exited cleanly\n");
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
      print(stderr,
            "confcall_serve: supervised child " + how + " during shutdown\n");
      return 1;
    }
    if (clock.now_ns() - started_ns >= kHealthyRunNs) {
      restarts_left = max_restarts;
      backoff_ms = kBackoffStartMs;
    }
    if (restarts_left <= 0) {
      print(stderr, "confcall_serve: supervised child " + how +
                        "; crash-loop budget exhausted, giving up\n");
      return 1;
    }
    --restarts_left;
    print(stdout, "confcall_serve: supervised child " + how +
                      "; restarting in " + std::to_string(backoff_ms) +
                      " ms (" + std::to_string(restarts_left) +
                      " restarts left)\n");
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
    "--workers N runs N HTTP event loops (default 1), one thread each;\n"
    "a loop serves each connection it accepts from start to close, a\n"
    "slow client holding a slot, never the thread. Past 64 open\n"
    "connections a loop answers 503 and closes after draining the\n"
    "request (a lingering close, as for every rejection).\n"
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
    "--shards N (or 'auto' = hardware threads) runs N pool threads,\n"
    "one task per touched area, over --fleet-areas independent areas\n"
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
      print(stdout, kUsage);
      return 0;
    }
    if (cli.has("supervise")) {
      const std::int64_t max_restarts = cli.get_int("max-restarts", 5);
      if (max_restarts < 0) {
        throw std::invalid_argument("--max-restarts must be >= 0");
      }
      return run_supervisor(argc, argv, max_restarts);
    }
    // Non-negative integer flags, each with its own lower bound.
    const auto count = [&cli](const char* flag, std::int64_t fallback,
                              std::int64_t min) {
      const std::int64_t value = cli.get_int(flag, fallback);
      if (value < min) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " must be >= " + std::to_string(min));
      }
      return static_cast<std::uint64_t>(value);
    };
    const std::string scenario_name =
        cli.get_string("scenario", "dense-urban");
    const std::string port_file = cli.get_string("port-file", "");
    const std::uint64_t steps = count("steps", 0, 0);
    const std::uint64_t step_ms = count("step-ms", 10, 0);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const std::string snapshot_out = cli.get_string("snapshot-out", "");
    cellular::ServingOptions options;
    options.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
    options.workers = static_cast<std::size_t>(cli.get_int("workers", 1));
    options.shards = parse_shards_flag(cli.get_string("shards", ""));
    options.fleet_areas = count("fleet-areas", 0, 0);
    options.trace_every = count("trace-every", 64, 0);
    options.trace_capacity = count("trace-capacity", 2048, 1);
    options.slo_p99_ms = count("slo-p99-ms", 0, 0);
    options.control_period_ms = count("control-period-ms", 1000, 1);
    options.metrics_exemplars = cli.has("metrics-exemplars");
    options.state_in = cli.get_string("state-in", "");
    options.state_out = cli.get_string("state-out", "");
    options.checkpoint_every_ms = count("checkpoint-every-ms", 0, 0);
    (void)cli.get_int("max-restarts", 5);  // consumed by the supervisor
    for (const auto& flag : cli.unused()) {
      throw std::invalid_argument("unknown flag --" + flag);
    }
    if (options.checkpoint_every_ms > 0 && options.state_out.empty()) {
      throw std::invalid_argument("--checkpoint-every-ms needs --state-out");
    }
    const cellular::Scenario scenario = find_scenario(scenario_name, seed);
    // The simulator's stack on the REAL clock: token refill, call
    // deadlines, breaker cooldowns and checkpoints all track wall time
    // here, where run_simulation drives them from a virtual ManualClock.
    cellular::ServingNode node(scenario.config, options,
                               support::SteadyClockSource::shared());

    if (::pipe2(g_stop_pipe, O_CLOEXEC | O_NONBLOCK) != 0) {
      throw std::runtime_error("cannot create the stop pipe");
    }
    (void)std::signal(SIGINT, on_signal);
    (void)std::signal(SIGTERM, on_signal);
    node.start();
    if (!port_file.empty()) {
      const std::string port = std::to_string(node.port()) + "\n";
      std::FILE* out = std::fopen(port_file.c_str(), "w");
      const bool written =
          out != nullptr &&
          std::fwrite(port.data(), 1, port.size(), out) == port.size();
      if (out == nullptr || std::fclose(out) != 0 || !written) {
        throw std::runtime_error("cannot write port file '" + port_file +
                                 "'");
      }
    }
    std::string line = "confcall_serve: scenario=" + scenario.name +
                       " serving on 127.0.0.1:" +
                       std::to_string(node.port()) + " (shards=" +
                       std::to_string(node.fleet().num_shards()) +
                       ", areas=" + std::to_string(node.fleet().num_areas()) +
                       ", trace-every=" + std::to_string(options.trace_every);
    if (options.slo_p99_ms > 0) {
      line += ", slo-p99-ms=" + std::to_string(options.slo_p99_ms) +
              ", control-period-ms=" +
              std::to_string(options.control_period_ms);
    }
    print(stdout, line + ")\n");
    const std::string state_line = node.restore_or_warm_up();
    if (!state_line.empty()) {
      print(stdout, "confcall_serve: " + state_line + "\n");
    }

    std::uint64_t steps_run = 0;
    for (; !g_stop.load() && (steps == 0 || steps_run < steps); ++steps_run) {
      node.step();
      (void)node.poll_checkpoint();
      if (step_ms > 0) wait_unless_stopped(step_ms);
    }

    // Graceful drain first (the balancer stops routing, accepted
    // connections are still answered, the final checkpoint is cut), then
    // the snapshot.
    node.drain();
    // One cut for the snapshot file and the summary line. Nothing
    // counts after drain(), so the getters the line also reads (sheds,
    // control steps) agree with this cut.
    const support::RegistrySnapshot final_cut = node.registry().snapshot();
    if (!snapshot_out.empty()) {
      // Atomic temp+rename: a crash mid-dump must never leave a torn
      // snapshot where a complete one is expected.
      std::string error;
      if (!support::write_file_atomic(snapshot_out,
                                      support::to_json(final_cut), &error)) {
        throw std::runtime_error("cannot write snapshot file: " + error);
      }
    }
    const std::optional<support::MetricSnapshot> tasks =
        final_cut.sum_by("confcall_fleet_tasks_total");
    line = "confcall_serve: stopped after " + std::to_string(steps_run) +
           " steps, served " +
           std::to_string(node.server().requests_served()) +
           " http requests (" +
           std::to_string(node.server().connections_shed()) +
           " shed), fleet ran " +
           std::to_string(tasks ? tasks->counter_value : 0) + " area-tasks";
    if (!options.state_out.empty()) {
      line += ", wrote " + std::to_string(node.checkpoints_written()) +
              " checkpoints";
    }
    if (const support::SamplingTracer* tracer = node.tracer()) {
      line += ", sampled " + std::to_string(tracer->roots_sampled()) + "/" +
              std::to_string(tracer->roots_seen()) + " traces";
    }
    if (const support::SloController* slo = node.overload().slo()) {
      line += ", ran " + std::to_string(slo->control_steps()) +
              " control steps (" + std::to_string(slo->breaches()) +
              " breached, " + std::to_string(slo->pre_breach_signals()) +
              " pre-breach)";
    }
    print(stdout, line + "\n");
    return 0;
  } catch (const std::exception& error) {
    print(stderr, std::string("confcall_serve: ") + error.what() + "\n");
    return 1;
  }
}
