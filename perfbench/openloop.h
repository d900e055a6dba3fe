// Open-loop HTTP load generation over loopback.
//
// run_open_loop sends a schedule's requests at their due times, one
// request per connection (the server speaks `Connection: close`), with
// at most `max_inflight` locate connections open at once plus one slot
// for a periodic GET /metrics scraper. A request whose due time passes
// while every slot is busy waits in the generator and is sent as soon as
// a slot frees. Every latency is measured from the request's DUE time,
// not from when it was sent, so a stalled server is charged for the
// requests it kept the generator from sending (coordinated omission).
//
// Single-threaded: one epoll loop with nanosecond wake-ups
// (epoll_pwait2, timer slack lowered to 1 ns) drives every connection.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "schedule.h"

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns();

/// Lowers this thread's timer slack so timed waits wake on time.
void tighten_timer_slack();

/// The timeline of one HTTP exchange, all on the steady clock (ns).
struct Exchange {
  std::uint64_t due = 0;
  std::uint64_t start = 0;       ///< socket opened
  std::uint64_t connected = 0;   ///< connect completed
  std::uint64_t sent = 0;        ///< last request byte written
  std::uint64_t first_byte = 0;  ///< first response byte read
  std::uint64_t done = 0;        ///< response complete (or failure seen)
  int status = 0;                ///< HTTP status; 0 = transport failure
  enum class Failure { kNone, kConnect, kIo, kTimeout, kMalformed };
  Failure failure = Failure::kNone;
  std::string body;              ///< response body (kept when asked)
};

struct OpenLoopOptions {
  std::uint16_t port = 0;
  /// Locate connections; with the scrape slot at most 4 are in flight,
  /// one per core of the 4-core machine the benchmark was sized on.
  std::size_t max_inflight = 3;
  /// GET /metrics every 1/scrape_hz s from the phase start on its own
  /// connection slot; 0 disables.
  double scrape_hz = 0.0;
  std::uint64_t timeout_ns = 2'000'000'000;
  bool keep_bodies = true;
  /// Fault drill: SIGSTOP `stall_pid` at stall_at_ns into the phase and
  /// SIGCONT it stall_ns later. 0 = no drill.
  pid_t stall_pid = 0;
  std::uint64_t stall_at_ns = 0;
  std::uint64_t stall_ns = 0;
};

struct PhaseRun {
  std::uint64_t start_ns = 0;  ///< absolute time of due offset 0
  std::vector<Exchange> requests;  ///< parallel to the schedule
  std::vector<Exchange> scrapes;
  std::size_t inflight_max = 0;
};

[[nodiscard]] PhaseRun run_open_loop(
    const std::vector<ScheduledRequest>& schedule,
    const OpenLoopOptions& options);

/// One blocking request (connect, send, read to close). Returns the
/// exchange; status 0 on any transport failure or timeout.
[[nodiscard]] Exchange fetch(std::uint16_t port, const std::string& method,
                             const std::string& path,
                             const std::string& body = "",
                             std::uint64_t timeout_ns = 2'000'000'000);

}  // namespace perfbench
