// Lifecycle of the daemon under test: spawn, wait for readiness, stop.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Starts `argv` (argv[0] is the program path) with `--port-file
  /// <port_file>` appended and its output sent to `log_path`, then waits
  /// until GET /readyz answers 200. Throws std::runtime_error when the
  /// process exits or is not ready within `ready_timeout_ns`.
  Daemon(std::vector<std::string> argv, const std::string& port_file,
         const std::string& log_path,
         std::uint64_t ready_timeout_ns = 60'000'000'000ULL);
  ~Daemon();  ///< kills and reaps the process if still running
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Exec to first /readyz 200, in ns.
  [[nodiscard]] std::uint64_t setup_ns() const noexcept { return setup_ns_; }
  /// CPU time (all threads) the process had used when it first answered
  /// /readyz 200, in seconds: the work of its start-up.
  [[nodiscard]] double setup_cpu_s() const noexcept { return setup_cpu_s_; }
  /// Peak resident set (VmHWM) in KiB while the process runs; 0 if
  /// unreadable.
  [[nodiscard]] std::uint64_t peak_rss_kib() const;
  /// CPU time (user + system, all threads) the process has used, in
  /// seconds; 0 if unreadable.
  [[nodiscard]] double cpu_seconds() const;
  /// The user-mode share of it, at clock-tick resolution (the kernel
  /// splits user from system time by sampling ticks); 0 if unreadable.
  [[nodiscard]] double user_cpu_seconds() const;
  /// SIGSTOP, returning once the process has stopped; resume() sends
  /// SIGCONT.
  void pause();
  void resume();
  /// SIGTERM, then waits up to `timeout_ns` for the exit. Returns the
  /// exit code, or -1 when it had to be killed or died by a signal.
  int stop(std::uint64_t timeout_ns = 20'000'000'000ULL);

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t setup_ns_ = 0;
  double setup_cpu_s_ = 0;
};

/// The command line as one shell-quoted string, for provenance.
[[nodiscard]] std::string join_command(const std::vector<std::string>& argv);

}  // namespace perfbench
