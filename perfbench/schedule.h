// Seeded request schedules for the benchmark.
//
// A schedule is the list of POST /locate requests one phase sends: each
// request's due time (ns from the phase start) and its JSON body. It is
// a pure function of (seed, phase index, shape): the same inputs give a
// byte-identical schedule, whatever the program under test does. The
// generator deliberately owns its random stream (splitmix64) instead of
// borrowing the repository's, so a change to the product's RNG never
// changes the benchmark's inputs.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential with the given rate (events per second), in ns.
  double exp_ns(double rate) { return -std::log1p(-uniform()) / rate * 1e9; }

 private:
  std::uint64_t state_;
};

/// Arrival processes. Poisson: independent users. MMPP: a two-state
/// Markov-modulated Poisson process (quiet / burst) with the same mean
/// rate. Its chain is the repository's own bursty call model, the
/// `cellular::BurstConfig` of the overloaded-urban scenario
/// (src/cellular/workload.cpp), which equals BurstConfig's defaults:
/// one draw per 10 ms step (the daemon's default --step-ms) enters a
/// burst with probability 0.02 and leaves it with 0.10, and a burst
/// carries 10x the quiet rate (call probability 1.0 against 0.1). So
/// bursts last ~100 ms, quiet spells ~500 ms, a sixth of the time is
/// burst, and scaled to the phase's mean the rates are 4x and 0.4x the
/// mean. The constants are copied here, not included, so a change to
/// the product's defaults never changes the benchmark's inputs.
///
/// The modulating chain's path (when bursts start and end) comes from
/// a stream that ignores the seed: every seed gets the same bursts, so
/// runs differ in arrivals and calls, not in how much traffic they
/// carry. A free path let the count of a 17 s phase swing by +-17%.
enum class Process { kPoisson, kMmpp };

struct ScheduleShape {
  Process process = Process::kPoisson;
  double rate = 1000.0;          ///< mean requests per second
  double seconds = 1.0;          ///< phase length
  std::size_t batch = 1;         ///< calls per request; 1 = single object
  std::size_t num_users = 120;   ///< user ids drawn from [0, num_users)
  std::size_t num_areas = 0;     ///< 0 = no "area" member
  std::size_t group_min = 3;     ///< participants per call, inclusive
  std::size_t group_max = 5;
};

struct ScheduledRequest {
  std::uint64_t due_ns = 0;
  std::string body;
  /// Participants of each call, in body order (the response check).
  std::vector<std::uint8_t> participants;
};

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xd1342543de82ef95ULL));
  return mix.next();
}

inline constexpr std::uint64_t kModulationSeed = 0x6d6d7070;

/// The MMPP chain (see Process).
struct BurstChain {
  static constexpr double kStepNs = 10e6;
  static constexpr double kEnter = 0.02;
  static constexpr double kExit = 0.10;
  static constexpr double kBurstOverQuiet = 10.0;
  /// Quiet rate over the mean: 1 / (1 + duty * (ratio - 1)), duty =
  /// enter / (enter + exit) = 1/6, so 0.4.
  static constexpr double kQuietOverMean =
      1.0 / (1.0 + kEnter / (kEnter + kExit) * (kBurstOverQuiet - 1.0));
};

inline void append_call(SplitMix64& rng, const ScheduleShape& shape,
                        ScheduledRequest& request) {
  const std::size_t span = shape.group_max - shape.group_min + 1;
  const std::size_t k = shape.group_min + rng.below(span);
  std::vector<std::uint64_t> users;
  while (users.size() < k) {
    const std::uint64_t user = rng.below(shape.num_users);
    bool fresh = true;
    for (const std::uint64_t seen : users) fresh = fresh && seen != user;
    if (fresh) users.push_back(user);
  }
  std::string& body = request.body;
  body += "{\"users\": [";
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (i > 0) body += ", ";
    body += std::to_string(users[i]);
  }
  body += "]";
  if (shape.num_areas > 0) {
    body += ", \"area\": " + std::to_string(rng.below(shape.num_areas));
  }
  body += "}";
  request.participants.push_back(static_cast<std::uint8_t>(k));
}

/// The requests of one phase, in due order. `stream` separates the
/// phases of one run (warm-up, reference, each ladder rung).
inline std::vector<ScheduledRequest> make_schedule(
    std::uint64_t seed, std::uint64_t stream, const ScheduleShape& shape) {
  SplitMix64 arrivals(mix_seed(seed, 2 * stream));
  SplitMix64 bodies(mix_seed(seed, 2 * stream + 1));
  SplitMix64 modulation(mix_seed(kModulationSeed, stream));
  const double end_ns = shape.seconds * 1e9;
  std::vector<ScheduledRequest> out;
  const bool mmpp = shape.process == Process::kMmpp;
  double t = 0.0;
  bool burst = false;
  // The chain flips at the start of each step, then the step's arrivals
  // follow, as BurstyCallGenerator::maybe_call does.
  const auto flip = [&] {
    const double u = modulation.uniform();
    burst = burst ? !(u < BurstChain::kExit) : u < BurstChain::kEnter;
  };
  if (mmpp) flip();
  double step_end = mmpp ? BurstChain::kStepNs : end_ns;
  for (;;) {
    const double quiet = shape.rate * BurstChain::kQuietOverMean;
    const double rate = !mmpp ? shape.rate
                        : burst ? quiet * BurstChain::kBurstOverQuiet
                                : quiet;
    const double next = t + arrivals.exp_ns(rate);
    if (next >= step_end) {
      // Memoryless: restart the draw from the step boundary.
      t = step_end;
      if (t >= end_ns) break;
      flip();
      step_end = t + BurstChain::kStepNs;
      continue;
    }
    if (next >= end_ns) break;
    t = next;
    ScheduledRequest request;
    request.due_ns = static_cast<std::uint64_t>(t);
    if (shape.batch == 1) {
      append_call(bodies, shape, request);
    } else {
      request.body = "[";
      for (std::size_t c = 0; c < shape.batch; ++c) {
        if (c > 0) request.body += ", ";
        append_call(bodies, shape, request);
      }
      request.body += "]";
    }
    out.push_back(std::move(request));
  }
  return out;
}

}  // namespace perfbench
