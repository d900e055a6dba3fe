// perfbench_wire — drives the real confcall_serve daemon over loopback.
//
// One invocation: start the daemon --setup-repeats times (each start is
// timed from exec to the first /readyz 200, in wall time and in the
// daemon's CPU time). One start serves the run:
// against it run a warm-up phase, the reference phase and the capacity
// ladder, each an open-loop schedule from schedule.h. The other starts
// are stopped again at once; they come in groups spread over the run.
// The ladder climbs until a rate fails twice, then --refine rungs bisect
// between the last passing and that failing rate. Every 200 response is
// checked (check.h). At the end the daemon's /metrics and /traces are
// saved and it is sent SIGTERM; the exit code is recorded. Peak RSS is
// read after the reference phase and again at the end. Results go to
// --out as JSON; run.py turns them into the benchmark's metrics.
//
//   perfbench_wire --seed N --workdir DIR --out FILE
//       [--process poisson|mmpp] [--batch B] [--areas A] [--scrape-hz H]
//       [--limit-us L (on the p90)] [--strict 0|1]
//       [--warm-s S] [--ref-rate R] [--ref-s S]
//       [--ladder R1,R2,...] [--rung-s S] [--refine N] [--setup-repeats K]
//       [--stall-at-ms X --stall-ms Y] [--dump-schedule FILE]
//       -- DAEMON [DAEMON FLAGS...]
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "check.h"
#include "daemon.h"
#include "openloop.h"
#include "schedule.h"
#include "stats.h"

namespace {

using namespace perfbench;

struct Phase {
  std::string name;
  double rate = 0;
  double seconds = 0;
  std::uint64_t stream = 0;
  Process process = Process::kPoisson;
  bool rung = false;
  bool retry = false;  ///< re-run of the rung before it, after a failure
};

struct PhaseVerdict {
  bool pass = false;
  JsonOut json;
};

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

std::vector<ScheduledRequest> schedule_of(std::uint64_t seed,
                                          const ScheduleShape& shape,
                                          const Phase& phase) {
  ScheduleShape s = shape;
  s.process = phase.process;
  s.rate = phase.rate;
  s.seconds = phase.seconds;
  return make_schedule(seed, phase.stream, s);
}

PhaseVerdict evaluate(const Phase& phase, const ScheduleShape& shape,
                      const std::vector<ScheduledRequest>& schedule,
                      const PhaseRun& run, double limit_us, bool strict,
                      std::vector<std::string>* failures) {
  std::vector<double> latency, lag, connect, server, rtt;
  std::size_t fail_connect = 0, fail_io = 0, fail_timeout = 0,
              fail_malformed = 0, non200 = 0, bad_body = 0;
  CallTally tally;
  std::string first_bad;
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const Exchange& x = run.requests[i];
    lag.push_back(us(x.start - x.due));
    bool ok = false;
    switch (x.failure) {
      case Exchange::Failure::kConnect: ++fail_connect; break;
      case Exchange::Failure::kIo: ++fail_io; break;
      case Exchange::Failure::kTimeout: ++fail_timeout; break;
      case Exchange::Failure::kMalformed: ++fail_malformed; break;
      case Exchange::Failure::kNone:
        if (x.status != 200) {
          ++non200;
          break;
        }
        {
          const std::string why = check_locate_response(
              x.body, schedule[i].participants, shape.batch > 1, strict,
              &tally);
          if (why.empty()) {
            ok = true;
          } else {
            ++bad_body;
            if (first_bad.empty()) first_bad = why;
          }
        }
        break;
    }
    if (ok) {
      latency.push_back(us(x.done - x.due));
      connect.push_back(us(x.connected - x.start));
      server.push_back(us(x.first_byte - x.sent));
      rtt.push_back(us(x.done - x.start));
    } else {
      latency.push_back(std::numeric_limits<double>::infinity());
    }
  }
  const std::size_t errors =
      fail_connect + fail_io + fail_timeout + fail_malformed + non200;
  if (!first_bad.empty()) {
    failures->push_back(phase.name + ": " + first_bad);
  }
  // Backlog: requests at the end of the phase must still leave on time.
  const std::size_t tail_from = lag.size() - lag.size() / 5;
  const std::vector<double> tail_lag(lag.begin() + static_cast<std::ptrdiff_t>(
                                                       tail_from),
                                     lag.end());
  const double tail_lag_p50 = percentile(tail_lag, 0.5);
  const Summary lat = summarize(latency);
  const bool backlog_ok = !(tail_lag_p50 > limit_us / 4);
  PhaseVerdict verdict;
  // The limit binds the p90: on a shared virtual machine the p99 is set
  // by scheduler stalls of a few ms that strike at any rate (README.md).
  verdict.pass = errors == 0 && bad_body == 0 && lat.p90 <= limit_us &&
                 backlog_ok && !run.requests.empty();

  std::vector<double> rounds_hist;
  for (const std::uint64_t r : tally.rounds) {
    if (rounds_hist.size() <= r) rounds_hist.resize(r + 1, 0.0);
    rounds_hist[r] += 1.0;
  }
  std::vector<double> scrape_ms;
  std::size_t scrape_failed = 0;
  for (const Exchange& x : run.scrapes) {
    if (x.failure == Exchange::Failure::kNone && x.status == 200) {
      scrape_ms.push_back(static_cast<double>(x.done - x.due) / 1e6);
    } else {
      ++scrape_failed;
    }
  }
  verdict.json.str("name", phase.name)
      .num("rate", phase.rate)
      .num("seconds", phase.seconds)
      .num("batch", static_cast<double>(shape.batch))
      .num("attempted", static_cast<double>(run.requests.size()))
      .num("errors", static_cast<double>(errors))
      .raw("error_kinds",
           JsonOut()
               .num("connect", static_cast<double>(fail_connect))
               .num("io", static_cast<double>(fail_io))
               .num("timeout", static_cast<double>(fail_timeout))
               .num("malformed", static_cast<double>(fail_malformed))
               .num("non200", static_cast<double>(non200))
               .text())
      .num("bad_bodies", static_cast<double>(bad_body))
      .num("calls", static_cast<double>(tally.calls))
      .num("pages", static_cast<double>(tally.pages))
      .num("retries", static_cast<double>(tally.retries))
      .nums("rounds_hist", rounds_hist)
      .summary("latency_us", lat)
      .summary("lag_us", summarize(lag))
      .num("tail_lag_p50_us", tail_lag_p50)
      .summary("connect_us", summarize(connect))
      .summary("server_us", summarize(server))
      .summary("rtt_us", summarize(rtt))
      .num("inflight_max", static_cast<double>(run.inflight_max))
      .nums("scrape_ms", scrape_ms)
      .num("scrape_failed", static_cast<double>(scrape_failed))
      .num("pass", verdict.pass ? 1.0 : 0.0);
  return verdict;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
    const std::string workdir = flags.get("workdir", ".");
    ScheduleShape shape;
    shape.process = flags.get("process", "poisson") == "mmpp"
                        ? Process::kMmpp
                        : Process::kPoisson;
    shape.batch = static_cast<std::size_t>(flags.num("batch", 1));
    shape.num_areas = static_cast<std::size_t>(flags.num("areas", 0));
    const double limit_us = flags.num("limit-us", 1000);
    const bool strict = flags.num("strict", 1) != 0;
    const auto setup_repeats =
        static_cast<std::size_t>(std::max(1.0, flags.num("setup-repeats", 1)));

    std::vector<Phase> phases;
    const double ref_rate = flags.num("ref-rate", 1000);
    if (flags.num("warm-s", 0) > 0) {
      phases.push_back({"warm", ref_rate, flags.num("warm-s", 0), 0,
                        shape.process});
    }
    phases.push_back({"ref", ref_rate, flags.num("ref-s", 5), 1,
                      shape.process});
    // Ladder rungs are Poisson whatever the workload's process: capacity
    // is a steady rate, and 1 s of bursts would make it a coin toss.
    const std::vector<double> ladder = flags.list("ladder");
    const double rung_s = flags.num("rung-s", 1);
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const std::string name = "rung" + std::to_string(k);
      phases.push_back(
          {name, ladder[k], rung_s, 2 + 2 * k, Process::kPoisson, true});
      phases.push_back({name + "b", ladder[k], rung_s, 3 + 2 * k,
                        Process::kPoisson, true, true});
    }
    // Rung schedules are made when their rung runs, except for a dump.
    const std::string dump = flags.get("dump-schedule", "");
    std::vector<std::vector<ScheduledRequest>> schedules;
    for (const Phase& phase : phases) {
      if (phase.rung && dump.empty()) break;
      schedules.push_back(schedule_of(seed, shape, phase));
    }

    if (!dump.empty()) {
      std::string text;
      for (std::size_t p = 0; p < phases.size(); ++p) {
        text += "phase " + phases[p].name + "\n";
        for (const ScheduledRequest& r : schedules[p]) {
          text += std::to_string(r.due_ns) + " " + r.body + "\n";
        }
      }
      return write_text(dump, text) ? 0 : 1;
    }

    const std::vector<std::string>& command = flags.rest();
    if (command.empty()) throw std::invalid_argument("no daemon command");
    OpenLoopOptions options;
    options.scrape_hz = flags.num("scrape-hz", 0);
    const std::string port_file = workdir + "/daemon.port";
    const std::string log_file = workdir + "/daemon.log";

    std::vector<std::string> failures;
    std::vector<double> setup_cpu_s;   // per start: daemon CPU until ready
    std::vector<double> setup_wall_s;  // and exec to ready
    std::vector<std::string> phase_json;
    double rss_kib = 0;      // peak RSS at the end of the reference phase
    double rss_end_kib = 0;  // and after the ladder
    double serving_s = 0;
    double capacity_lo = 0;  // highest rate that passed (0: none)
    double capacity_hi = 0;  // lowest rate that failed twice (0: none)
    int exit_status = -1;
    std::size_t setup_exit_failures = 0;
    // The extra starts are spread over the run in kStartGroups groups:
    // before the serving start, in pauses between the reference phase's
    // slices, and after the serving daemon stops. Host load on a
    // shared machine changes within seconds, and one group of starts
    // would time one moment of it.
    constexpr std::size_t kStartGroups = 5;
    const std::size_t extra_starts = setup_repeats - 1;
    const std::size_t ref_slices = extra_starts > 0 ? kStartGroups - 1 : 1;
    // While the serving daemon lives, a set-up start must not write its
    // checkpoint over the serving one's, nor share its port file or log.
    std::vector<std::string> setup_command = command;
    for (std::size_t i = 0; i + 1 < setup_command.size(); ++i) {
      if (setup_command[i] == "--state-out") {
        setup_command[i + 1] = workdir + "/setup.ckpt";
      }
    }
    std::size_t group = 0;
    const auto time_starts = [&] {
      const std::size_t count = extra_starts * (group + 1) / kStartGroups -
                                extra_starts * group / kStartGroups;
      ++group;
      for (std::size_t k = 0; k < count; ++k) {
        Daemon daemon(setup_command, workdir + "/setup.port",
                      workdir + "/setup.log");
        setup_cpu_s.push_back(daemon.setup_cpu_s());
        setup_wall_s.push_back(static_cast<double>(daemon.setup_ns()) / 1e9);
        if (daemon.stop() != 0) ++setup_exit_failures;
      }
    };
    time_starts();
    {
      Daemon daemon(command, port_file, log_file);
      const std::uint64_t ready_at = now_ns();
      setup_cpu_s.push_back(daemon.setup_cpu_s());
      setup_wall_s.push_back(static_cast<double>(daemon.setup_ns()) / 1e9);
      options.port = daemon.port();
      const auto run_phase =
          [&](const Phase& phase,
              const std::vector<ScheduledRequest>& schedule) {
        OpenLoopOptions phase_options = options;
        if (phase.name == "ref" && flags.num("stall-ms", 0) > 0) {
          phase_options.stall_pid = daemon.pid();
          phase_options.stall_at_ns = static_cast<std::uint64_t>(
              flags.num("stall-at-ms", 0) * 1e6);
          phase_options.stall_ns =
              static_cast<std::uint64_t>(flags.num("stall-ms", 0) * 1e6);
        }
        // The reference phase runs as consecutive slices of its
        // schedule, with a group of set-up starts in each pause. The
        // serving daemon is stopped (SIGSTOP) for the pause, so those
        // starts, like the others, run beside no other daemon; its CPU
        // time is counted over the slices only.
        const std::size_t slices = phase.name == "ref" ? ref_slices : 1;
        const auto phase_ns = static_cast<std::uint64_t>(phase.seconds * 1e9);
        PhaseRun run;
        double cpu_s = 0;
        double user_s = 0;
        std::size_t next = 0;
        for (std::size_t k = 0; k < slices; ++k) {
          if (k > 0) {
            daemon.pause();
            time_starts();
            daemon.resume();
          }
          const std::uint64_t from = phase_ns * k / slices;
          const std::uint64_t to = phase_ns * (k + 1) / slices;
          std::vector<ScheduledRequest> slice;
          for (; next < schedule.size() && schedule[next].due_ns < to;
               ++next) {
            slice.push_back(schedule[next]);
            slice.back().due_ns -= from;
          }
          const double cpu_before = daemon.cpu_seconds();
          const double user_before = daemon.user_cpu_seconds();
          PhaseRun part = run_open_loop(slice, phase_options);
          cpu_s += daemon.cpu_seconds() - cpu_before;
          user_s += daemon.user_cpu_seconds() - user_before;
          if (k == 0) run.start_ns = part.start_ns;
          std::move(part.requests.begin(), part.requests.end(),
                    std::back_inserter(run.requests));
          std::move(part.scrapes.begin(), part.scrapes.end(),
                    std::back_inserter(run.scrapes));
          run.inflight_max = std::max(run.inflight_max, part.inflight_max);
        }
        // Only malformed answers are failures here: a rung past capacity
        // may time out by design, and run.py counts the reference
        // phase's errors as failed operations.
        PhaseVerdict verdict = evaluate(phase, shape, schedule, run, limit_us,
                                        strict, &failures);
        verdict.json.num("daemon_cpu_s", cpu_s)
            .num("daemon_user_cpu_s", user_s);
        phase_json.push_back(verdict.json.text());
        return verdict.pass;
      };
      // A failing rate runs once more on fresh arrivals: one failure can
      // be a scheduling stall, two at one rate end the climb.
      const auto rate_passes = [&](const Phase& first, const Phase& retry) {
        return run_phase(first, schedule_of(seed, shape, first)) ||
               run_phase(retry, schedule_of(seed, shape, retry));
      };
      std::size_t p = 0;
      for (; p < phases.size() && !phases[p].rung; ++p) {
        (void)run_phase(phases[p], schedules[p]);
      }
      // Read before the ladder: how far it climbs, and so how many
      // connections queue in the daemon, follows the host's load.
      rss_kib = static_cast<double>(daemon.peak_rss_kib());
      for (; p + 1 < phases.size(); p += 2) {
        if (!rate_passes(phases[p], phases[p + 1])) {
          capacity_hi = phases[p].rate;
          break;
        }
        capacity_lo = phases[p].rate;
      }
      // Bisect (geometrically) between the last passing and the first
      // failing rate.
      const auto refine = static_cast<std::size_t>(flags.num("refine", 0));
      for (std::size_t i = 0; i < refine && capacity_lo > 0 && capacity_hi > 0;
           ++i) {
        const double mid = std::round(std::sqrt(capacity_lo * capacity_hi));
        const std::string name = "refine" + std::to_string(i);
        const Phase first{name, mid, rung_s, 1000 + 2 * i, Process::kPoisson,
                          true};
        const Phase retry{name + "b", mid, rung_s, 1001 + 2 * i,
                          Process::kPoisson, true, true};
        if (rate_passes(first, retry)) {
          capacity_lo = mid;
        } else {
          capacity_hi = mid;
        }
      }
      serving_s = static_cast<double>(now_ns() - ready_at) / 1e9;
      const Exchange metrics = fetch(daemon.port(), "GET", "/metrics");
      const Exchange traces = fetch(daemon.port(), "GET", "/traces");
      if (metrics.status != 200 || traces.status != 200) {
        failures.push_back("final /metrics or /traces scrape failed");
      }
      (void)write_text(workdir + "/metrics.prom", metrics.body);
      (void)write_text(workdir + "/traces.json", traces.body);
      rss_end_kib = static_cast<double>(daemon.peak_rss_kib());
      exit_status = daemon.stop();
    }
    if (exit_status != 0) {
      failures.push_back("daemon exit status " + std::to_string(exit_status) +
                         " after SIGTERM");
    }
    time_starts();
    if (setup_exit_failures > 0) {
      failures.push_back("daemon exited nonzero after a set-up start");
    }

    std::string phases_text = "[";
    for (std::size_t i = 0; i < phase_json.size(); ++i) {
      phases_text += (i > 0 ? ", " : "") + phase_json[i];
    }
    phases_text += "]";
    JsonOut out;
    out.str("command", join_command(command))
        .str("setup_command", join_command(setup_command))
        .nums("setup_cpu_s", setup_cpu_s)
        .nums("setup_wall_s", setup_wall_s)
        .num("peak_rss_kib", rss_kib)
        .num("peak_rss_kib_end", rss_end_kib)
        .num("serving_s", serving_s)
        .num("capacity_lo", capacity_lo)
        .num("capacity_hi", capacity_hi)
        .num("exit_status", exit_status)
        .num("limit_us", limit_us)
        .raw("phases", phases_text)
        .strs("failures", failures);
    return write_text(flags.get("out", workdir + "/wire.json"),
                      out.text() + "\n")
               ? 0
               : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_wire: " << error.what() << "\n";
    return 1;
  }
}
