// Shared scaffolding of the JSON-emitting experiment benches (E13–E21):
// the shared flag set, an ordered JSON record, named gates and the exit
// code.
//
//   bench::Harness bench("E13", "parallel execution engine throughput",
//                        argc, argv);
//   bench.record["locate"]["locates_per_sec"] = rate;
//   bench.gate("hit_rate", hit_rate >= 0.90);
//   return bench.finish();
//
// finish() appends "gates" ({"always": {...}, "quiet_host": {...}}) and
// "pass" to the record, writes it to --out (default BENCH_<id>.json),
// prints one PASS/FAIL line per gate and returns 0 iff every gate
// passed. A quiet-host gate is a wall-clock ratio that only holds on an
// idle machine: it counts toward the exit code like any other gate, but
// CI's smoke check enforces only the "always" gates and leaves the
// quiet-host metrics to bench_compare.py's run-over-run comparison.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <list>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/cli.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace confcall::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// An ordered JSON value for bench records. Members keep insertion
/// order; references to members and elements stay valid as siblings are
/// added. Scalars are rendered on assignment: integers as integers (so a
/// 1/0 verdict stays a number bench_compare.py can pair), doubles the way
/// std::ostream prints them, non-finite doubles as null.
class Json {
 public:
  Json() = default;  // null until assigned, indexed or appended to
  Json(bool value) : kind_(Kind::kScalar), text_(value ? "true" : "false") {}
  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  Json(T value) : kind_(Kind::kScalar) {
    if constexpr (std::is_integral_v<T>) {
      text_ = std::to_string(value);
    } else if (!std::isfinite(value)) {
      text_ = "null";
    } else {
      std::ostringstream out;
      out << value;
      text_ = out.str();
    }
  }
  Json(std::string_view value)
      : kind_(Kind::kScalar),
        text_("\"" + support::json_escape(value) + "\"") {}
  Json(const char* value) : Json(std::string_view(value)) {}
  template <typename T>
  Json(const std::vector<T>& values) : kind_(Kind::kArray) {
    for (const T& value : values) append() = Json(value);
  }

  [[nodiscard]] static Json object() {
    Json json;
    json.kind_ = Kind::kObject;
    return json;
  }

  /// The member named `key`, appended as null on first use; a null value
  /// becomes an object.
  Json& operator[](std::string_view key) {
    if (kind_ == Kind::kNull) kind_ = Kind::kObject;
    for (auto& [name, value] : members_) {
      if (name == key) return value;
    }
    return members_.emplace_back(std::string(key), Json()).second;
  }

  /// A new null element at the end; a null value becomes an array.
  Json& append() {
    if (kind_ == Kind::kNull) kind_ = Kind::kArray;
    return members_.emplace_back(std::string(), Json()).second;
  }

  /// Pretty-printed JSON text, two spaces per nesting level.
  [[nodiscard]] std::string dump(std::size_t indent = 0) const {
    if (kind_ == Kind::kNull) return "null";
    if (kind_ == Kind::kScalar) return text_;
    const bool object = kind_ == Kind::kObject;
    if (members_.empty()) return object ? "{}" : "[]";
    const std::string pad(2 * indent + 2, ' ');
    std::string text = object ? "{\n" : "[\n";
    for (const auto& [name, value] : members_) {
      text += pad;
      if (object) text += "\"" + support::json_escape(name) + "\": ";
      text += value.dump(indent + 1) + ",\n";
    }
    text.erase(text.size() - 2, 1);  // the last member's comma
    return text + std::string(2 * indent, ' ') + (object ? "}" : "]");
  }

 private:
  enum class Kind { kNull, kScalar, kArray, kObject };
  Kind kind_ = Kind::kNull;
  std::string text_;  // a scalar's JSON text
  std::list<std::pair<std::string, Json>> members_;  // array keys are empty
};

/// Interleaved best-of-N: every pass runs each side once, in order, and
/// each side keeps its highest result. Any background slowdown inflates
/// some passes of every side instead of all passes of one, so each
/// side's best pass approaches its true cost. Returns one maximum per
/// side.
inline std::vector<double> best_of_interleaved(
    int passes, const std::vector<std::function<double()>>& sides) {
  std::vector<double> best(sides.size(), 0.0);
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t side = 0; side < sides.size(); ++side) {
      const double result = sides[side]();
      if (pass == 0 || result > best[side]) best[side] = result;
    }
  }
  return best;
}

enum class Gate {
  kAlways,     ///< exact or generously bounded: enforced everywhere
  kQuietHost,  ///< a wall-clock ratio that needs an idle machine
};

class Harness {
 public:
  /// Parses the shared bench flags (support::parse_bench_flags) and
  /// prints the bench's title line. A malformed command line prints the
  /// error and exits the process with status 2.
  Harness(std::string_view experiment, std::string_view title, int argc,
          const char* const* argv)
      : flags_(parse_or_exit(argc, argv)),
        out_path_(flags_.out.empty()
                      ? "BENCH_" + std::string(experiment) + ".json"
                      : flags_.out),
        hardware_concurrency_(support::resolve_threads(0)) {
    record["experiment"] = experiment;
    record["smoke"] = flags_.smoke;
    record["hardware_concurrency"] = hardware_concurrency_;
    std::cout << experiment << ": " << title
              << (flags_.smoke ? " (smoke)" : "") << "\n";
  }

  [[nodiscard]] bool smoke() const noexcept { return flags_.smoke; }
  /// --threads as given (0 = unset).
  [[nodiscard]] std::size_t threads() const noexcept { return flags_.threads; }
  /// Hardware threads, clamped to >= 1 (support::resolve_threads(0)).
  [[nodiscard]] std::size_t hardware_concurrency() const noexcept {
    return hardware_concurrency_;
  }

  void gate(std::string name, bool passed, Gate kind = Gate::kAlways) {
    gates_.push_back({std::move(name), passed, kind});
  }

  /// Appends "gates" and "pass", writes the record, prints the verdicts
  /// and returns the exit code: 0 iff every gate passed (and the record
  /// was written).
  [[nodiscard]] int finish() {
    Json& gates = record["gates"];
    gates["always"] = Json::object();
    gates["quiet_host"] = Json::object();
    bool pass = true;
    std::cout << "\n";
    for (const GateResult& result : gates_) {
      const bool quiet = result.kind == Gate::kQuietHost;
      gates[quiet ? "quiet_host" : "always"][result.name] = result.passed;
      pass = pass && result.passed;
      std::cout << (result.passed ? "PASS  " : "FAIL  ") << result.name
                << (quiet ? " (quiet-host gate)" : "") << "\n";
    }
    record["pass"] = pass;
    std::ofstream out(out_path_);
    out << record.dump() << "\n";
    out.close();
    if (!out) {
      std::cerr << "cannot write " << out_path_ << "\n";
      return 1;
    }
    std::cout << (pass ? "PASS" : "FAIL") << ": " << gates_.size()
              << " gates, wrote " << out_path_ << "\n";
    return pass ? 0 : 1;
  }

  /// The record finish() writes; benches fill it as they measure.
  Json record;

 private:
  struct GateResult {
    std::string name;
    bool passed;
    Gate kind;
  };

  static support::BenchFlags parse_or_exit(int argc,
                                           const char* const* argv) {
    try {
      return support::parse_bench_flags(argc, argv);
    } catch (const std::exception& error) {
      const std::string_view program = argc > 0 ? argv[0] : "bench";
      std::cerr << program.substr(program.find_last_of('/') + 1) << ": "
                << error.what() << "\n";
      std::exit(2);
    }
  }

  support::BenchFlags flags_;
  std::string out_path_;
  std::size_t hardware_concurrency_;
  std::vector<GateResult> gates_;
};

}  // namespace confcall::bench
