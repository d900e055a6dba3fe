#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "openloop.h"

namespace perfbench {

namespace {

void pause_briefly() {
  std::this_thread::sleep_for(std::chrono::microseconds(200));
}

}  // namespace

Daemon::Daemon(std::vector<std::string> argv, const std::string& port_file,
               const std::string& log_path, std::uint64_t ready_timeout_ns) {
  tighten_timer_slack();
  argv.push_back("--port-file");
  argv.push_back(port_file);
  (void)::unlink(port_file.c_str());
  std::vector<char*> raw;
  for (std::string& arg : argv) raw.push_back(arg.data());
  raw.push_back(nullptr);

  const std::uint64_t t0 = now_ns();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) {
      (void)::dup2(log, STDOUT_FILENO);
      (void)::dup2(log, STDERR_FILENO);
    }
    ::execv(raw[0], raw.data());
    ::_exit(127);
  }

  const auto exited = [this] {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  };
  const std::uint64_t deadline = t0 + ready_timeout_ns;
  while (port_ == 0) {
    std::ifstream in(port_file);
    std::string line;
    if (in && std::getline(in, line) && in.good()) {
      port_ = static_cast<std::uint16_t>(std::stoul(line));
      break;
    }
    if (exited()) throw std::runtime_error("daemon exited during start-up");
    if (now_ns() > deadline) throw std::runtime_error("no port file");
    pause_briefly();
  }
  for (;;) {
    const Exchange probe = fetch(port_, "GET", "/readyz", "", 1'000'000'000);
    if (probe.status == 200) {
      setup_ns_ = probe.done - t0;
      setup_cpu_s_ = cpu_seconds();
      return;
    }
    if (exited()) throw std::runtime_error("daemon exited before ready");
    if (now_ns() > deadline) throw std::runtime_error("daemon never ready");
    pause_briefly();
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    (void)::kill(pid_, SIGKILL);
    int status = 0;
    (void)::waitpid(pid_, &status, 0);
  }
}

std::uint64_t Daemon::peak_rss_kib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

double Daemon::cpu_seconds() const {
  // The process CPU clock counts every thread, exited ones included,
  // to the nanosecond.
  clockid_t clock{};
  timespec ts{};
  if (pid_ <= 0 || ::clock_getcpuclockid(pid_, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double Daemon::user_cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text;
  std::getline(in, text);
  // utime is the 14th field; the command name (2nd) may hold spaces.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  for (int i = 3; i <= 14 && fields >> field; ++i) {
    if (i == 14) {
      return std::stod(field) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  return 0;
}

void Daemon::pause() {
  if (pid_ <= 0 || ::kill(pid_, SIGSTOP) != 0) return;
  int status = 0;
  while (::waitpid(pid_, &status, WUNTRACED) < 0 && errno == EINTR) {
  }
}

void Daemon::resume() {
  if (pid_ > 0) (void)::kill(pid_, SIGCONT);
}

int Daemon::stop(std::uint64_t timeout_ns) {
  if (pid_ <= 0) return -1;
  (void)::kill(pid_, SIGTERM);
  const std::uint64_t deadline = now_ns() + timeout_ns;
  int status = 0;
  for (;;) {
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_) break;
    if (got < 0 && errno != EINTR) return -1;
    if (now_ns() > deadline) {
      (void)::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string join_command(const std::vector<std::string>& argv) {
  std::ostringstream out;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    if (i > 0) out << ' ';
    const std::string& arg = argv[i];
    const bool plain = !arg.empty() &&
                       arg.find_first_not_of(
                           "abcdefghijklmnopqrstuvwxyz"
                           "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./=:,") ==
                           std::string::npos;
    if (plain) {
      out << arg;
    } else {
      out << '\'';
      for (const char c : arg) {
        if (c == '\'') {
          out << "'\\''";
        } else {
          out << c;
        }
      }
      out << '\'';
    }
  }
  return out.str();
}

}  // namespace perfbench
