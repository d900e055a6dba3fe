// Experiment E19 — crash-safe serving: durable checkpoints and warm
// restart.
//
// PR8 added the versioned, checksummed state_io checkpoint format and
// threaded save_state / restore_state through LocationService, the
// SloController and confcall_serve. This harness gates the four claims
// that make the crash-safety story real, and emits BENCH_E19.json:
//
//   * Warm restart recovers the SLO faster than a cold start. A plant
//     model on a ManualClock closes the loop around a REAL
//     SloController + AdmissionController: the plant's p99 is 8 ms
//     while the admission token rate is above its capacity knee and
//     2 ms once the rate has been cut below it (target 4 ms). A cold
//     start at the deployment default rate needs several AIMD halvings
//     to reach the knee; a warm start restores the converged actuators
//     from a checkpoint and must re-attain the SLO within <= 2 control
//     periods (the ISSUE gate), strictly faster than cold.
//   * Checkpointing is cheap: E18's batched locate loop with a
//     checkpoint written on a 100 ms wall-clock grid (the daemon's
//     --checkpoint-every-ms model) must keep >= 95% of the
//     checkpoint-free throughput (checkpoint_throughput_ratio).
//   * Checkpoints are a pure function of state: after an identical
//     deterministic drive, serializing from ThreadPool sizes 1/2/8
//     (every task under the same mutex the daemon uses) must produce
//     byte-identical files across tasks AND across pool sizes.
//   * The loader rejects damage: a truncation + bit-flip + magic +
//     version sweep over a real checkpoint file must come back 100%
//     rejected as typed cold starts — never a crash, never a silent
//     acceptance.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (unused, accepted for uniformity), --out FILE (default BENCH_E19.json).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "prob/rng.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"
#include "support/state_io.h"
#include "support/table.h"
#include "support/thread_pool.h"

#include "fixture.h"
#include "harness.h"

namespace {

using namespace confcall;

// ---- 1. Warm vs cold SLO recovery (plant model, ManualClock). ---------

constexpr std::uint64_t kRoundNs = 1'000'000;          // 1 ms per round
constexpr std::uint64_t kTargetP99Ns = 4'000'000;      // 4 ms SLO
constexpr std::uint64_t kControlPeriodNs = 100'000'000;  // 100 ms
/// The plant's capacity knee: token rates above this overload it.
constexpr double kKneeRefillPerSec = 17.0;
/// The deployment-default token rate a cold start boots with.
constexpr double kColdRefillPerSec = 256.0;

/// One control stand: a real controller + admission pair around a
/// synthetic plant whose p99 is a function of the token-rate actuator.
struct Stand {
  explicit Stand(double initial_refill)
      : rounds(registry.histogram("confcall_locate_rounds",
                                  support::HistogramSpec::integers(16),
                                  "rounds")),
        admission(make_admission(initial_refill), clock, &registry),
        slo(make_options(), registry, admission, clock, kRoundNs) {}

  static support::AdmissionOptions make_admission(double refill) {
    support::AdmissionOptions options;
    options.refill_per_sec = refill;
    return options;
  }

  static support::SloOptions make_options() {
    support::SloOptions options;
    options.target_p99_ns = kTargetP99Ns;
    options.control_period_ns = kControlPeriodNs;
    options.min_interval_calls = 4;
    return options;
  }

  /// Overloaded above the knee (8 ms p99, breach), healthy below it
  /// (2 ms, within SLO).
  double plant_rounds() const {
    return slo.refill_per_sec() > kKneeRefillPerSec ? 8.0 : 2.0;
  }

  /// Runs control periods until the measured interval p99 is within the
  /// SLO; returns how many periods that took. When `checkpoint_out` is
  /// given, captures the controller state at the START of the recovered
  /// period — the converged operating point a steady-state daemon
  /// checkpoint records.
  std::size_t periods_to_slo(std::size_t max_periods,
                             std::string* checkpoint_out = nullptr) {
    for (std::size_t period = 1; period <= max_periods; ++period) {
      const std::string before = slo.save_state();
      const double rounds_used = plant_rounds();
      for (int call = 0; call < 32; ++call) rounds.observe(rounds_used);
      clock.advance(kControlPeriodNs);
      slo.step();
      if (slo.observed_p99_ns() <= kTargetP99Ns) {
        if (checkpoint_out != nullptr) *checkpoint_out = before;
        return period;
      }
    }
    return max_periods + 1;  // never recovered
  }

  support::MetricRegistry registry;
  support::ManualClock clock;
  support::Histogram rounds;
  support::AdmissionController admission;
  support::SloController slo;
};

// ---- 2/3. Checkpoint overhead + byte-identity on the fixture world. ---

/// The E18 service: the bench/fixture.h world with metrics bound.
cellular::LocationService make_service(const bench::World& world,
                                       support::MetricRegistry& registry) {
  cellular::LocationService::Config config = bench::World::service_config();
  config.metrics = cellular::ServiceMetrics::create(registry);
  return world.make_service(config);
}

/// Locates/sec through locate_many at batch size 8 (the E18 throughput
/// shape). When `checkpoint_path` is non-empty, a full service
/// checkpoint is written through save_state_file on a `period_ms`
/// wall-clock grid, exactly like the daemon's --checkpoint-every-ms
/// loop; `checkpoints_out` / `bytes_out` report what was written.
double run_locate_loop(std::size_t n_calls, const std::string& checkpoint_path,
                       double period_ms, std::size_t* checkpoints_out,
                       std::size_t* bytes_out) {
  constexpr std::size_t kBatch = 8;
  support::MetricRegistry registry;
  bench::World world;
  cellular::LocationService service = make_service(world, registry);
  bench::CallBatch calls(kBatch);
  std::size_t done = 0;
  std::size_t checkpoints = 0;
  std::size_t bytes = 0;
  const auto start = bench::Clock::now();
  const auto period = std::chrono::duration_cast<bench::Clock::duration>(
      std::chrono::duration<double, std::milli>(std::max(period_ms, 1.0)));
  auto next_checkpoint = start + period;  // daemon grid: one period in
  std::size_t batches = 0;
  while (done < n_calls) {
    calls.draw(world, world.rng);
    (void)service.locate_many(calls.requests, world.rng);
    done += kBatch;
    // Poll the grid every 16 batches: a clock read per batch is loop
    // overhead the daemon (which checkpoints per serve step) never pays.
    if (checkpoint_path.empty() || (++batches & 15) != 0) continue;
    if (bench::Clock::now() >= next_checkpoint) {
      while (bench::Clock::now() >= next_checkpoint) next_checkpoint += period;
      support::StateBundle bundle;
      bundle.add(cellular::LocationService::kStateSection,
                 cellular::LocationService::kStateVersion,
                 service.save_state());
      bytes = support::save_state_file(checkpoint_path, bundle);
      ++checkpoints;
    }
  }
  const double elapsed = bench::seconds_since(start);
  if (checkpoints_out != nullptr) *checkpoints_out = checkpoints;
  if (bytes_out != nullptr) *bytes_out = bytes;
  return static_cast<double>(done) / elapsed;
}

/// Drives a fresh service through a fixed deterministic request stream
/// so its post-drive state is reproducible run over run.
void deterministic_drive(bench::World& world,
                         cellular::LocationService& service,
                         std::size_t n_calls) {
  constexpr std::size_t kBatch = 8;
  prob::Rng call_rng(4242);
  bench::CallBatch calls(kBatch);
  for (std::size_t done = 0; done < n_calls; done += kBatch) {
    calls.draw(world, call_rng);
    (void)service.locate_many(calls.requests, world.rng);
  }
}

/// After identical drives, checkpoint files produced from ThreadPool
/// sizes 1/2/8 (every serialization under one mutex, the daemon's
/// sim_mutex discipline) must be byte-identical across tasks and across
/// pool sizes.
bool check_thread_byte_identity(std::size_t drive_calls,
                                const std::string& path_prefix,
                                std::string* reference_file_out) {
  std::string reference;
  bool identical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    support::MetricRegistry registry;
    bench::World world;
    cellular::LocationService service = make_service(world, registry);
    deterministic_drive(world, service, drive_calls);
    std::vector<std::string> blobs(threads);
    std::mutex sim_mutex;
    support::ThreadPool pool(threads);
    pool.parallel_for(threads, [&](std::size_t task) {
      std::lock_guard<std::mutex> lock(sim_mutex);
      support::StateBundle bundle;
      bundle.add(cellular::LocationService::kStateSection,
                 cellular::LocationService::kStateVersion,
                 service.save_state());
      const std::string path =
          path_prefix + "." + std::to_string(threads) + "." +
          std::to_string(task) + ".bin";
      (void)support::save_state_file(path, bundle);
      std::ifstream in(path, std::ios::binary);
      blobs[task] = std::string(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
      (void)std::remove(path.c_str());
    });
    for (const std::string& blob : blobs) {
      if (reference.empty()) {
        reference = blob;
        continue;
      }
      identical = identical && blob == reference;
    }
  }
  if (reference_file_out != nullptr) *reference_file_out = reference;
  return identical && !reference.empty();
}

// ---- 4. Corruption sweep over a real checkpoint file. -----------------

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every damaged variant must load as a typed failure. Returns how many
/// of `total` variants were correctly rejected (pass needs all).
std::size_t corruption_sweep(const std::string& path, const std::string& whole,
                             bool smoke, std::size_t* total_out) {
  std::size_t total = 0;
  std::size_t rejected = 0;
  const auto probe = [&](const std::string& bytes) {
    write_raw(path, bytes);
    ++total;
    if (!support::load_state_file(path).ok()) ++rejected;
  };
  const std::size_t stride = smoke ? 31 : 7;
  for (std::size_t len = 0; len < whole.size(); len += stride) {
    probe(whole.substr(0, len));  // torn write / truncation
  }
  for (std::size_t pos = 0; pos < whole.size(); pos += stride) {
    std::string bent = whole;
    bent[pos] = static_cast<char>(bent[pos] ^ (1 << (pos % 8)));
    probe(bent);  // single-bit flip
  }
  probe(std::string("NOTCONFC") + whole.substr(8));  // foreign magic
  {
    std::string bent = whole;
    bent[8] = static_cast<char>(support::kStateFileVersion + 1);
    probe(bent);  // version skew
  }
  probe(whole + "x");  // trailing garbage
  // And the pristine bytes must still load (counted separately: an
  // over-eager loader that rejects everything would "pass" the sweep).
  write_raw(path, whole);
  const bool pristine_ok = support::load_state_file(path).ok();
  (void)std::remove(path.c_str());
  *total_out = total;
  return pristine_ok ? rejected : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench(
      "E19", "crash-safe serving — durable checkpoints, warm restart", argc,
      argv);
  const bool smoke = bench.smoke();
  const std::string scratch =
      "bench_e19_scratch_" + std::to_string(::getpid());

  // ---- 1. Warm vs cold recovery (always gated).
  Stand cold(kColdRefillPerSec);
  std::string converged_checkpoint;
  const std::size_t cold_periods =
      cold.periods_to_slo(64, &converged_checkpoint);

  Stand warm(kColdRefillPerSec);
  const bool restored = warm.slo.restore_state(
      converged_checkpoint, support::SloController::kStateVersion);
  const std::size_t warm_periods =
      restored ? warm.periods_to_slo(64) : std::size_t{65};

  // ---- 2. Checkpoint overhead on the E18 batched locate loop
  // (best-of-3 interleaved passes). The run must span several 100 ms
  // checkpoint windows, or one checkpoint's fixed cost dominates a run
  // shorter than its amortization period.
  const std::size_t n = smoke ? 300000 : 600000;
  std::size_t checkpoints_written = 0;
  std::size_t checkpoint_bytes = 0;
  const std::vector<double> best = bench::best_of_interleaved(
      3, {[&] { return run_locate_loop(n, "", 0.0, nullptr, nullptr); },
          [&] {
            std::size_t written = 0;
            std::size_t bytes = 0;
            const double rate = run_locate_loop(n, scratch + ".ckpt.bin",
                                                100.0, &written, &bytes);
            checkpoints_written = std::max(checkpoints_written, written);
            if (bytes != 0) checkpoint_bytes = bytes;
            return rate;
          }});
  (void)std::remove((scratch + ".ckpt.bin").c_str());
  const double best_plain = best[0], best_checkpointed = best[1];
  const double ratio = best_checkpointed / best_plain;

  // ---- 3. Byte-identity across ThreadPool sizes 1/2/8.
  std::string reference_file;
  const bool threads_identical = check_thread_byte_identity(
      smoke ? 512 : 4096, scratch, &reference_file);

  // ---- 4. Corruption sweep over the reference checkpoint.
  std::size_t corrupt_total = 0;
  const std::size_t corrupt_rejected = corruption_sweep(
      scratch + ".sweep.bin", reference_file, smoke, &corrupt_total);

  // ---- Report.
  support::TextTable table({"metric", "value"});
  table.add_row({"cold-start recovery (control periods)",
                 support::TextTable::fmt(cold_periods)});
  table.add_row({"warm-restart recovery (control periods)",
                 support::TextTable::fmt(warm_periods) + " (need <= 2)"});
  table.add_row(
      {"locates/sec (no checkpoints)", support::TextTable::fmt(best_plain, 0)});
  table.add_row({"locates/sec (100 ms checkpoint grid)",
                 support::TextTable::fmt(best_checkpointed, 0)});
  table.add_row({"checkpoint throughput ratio",
                 support::TextTable::fmt(ratio, 3) + "x (need >= 0.95x)"});
  table.add_row({"checkpoints written / bytes each",
                 support::TextTable::fmt(checkpoints_written) + " / " +
                     support::TextTable::fmt(checkpoint_bytes)});
  table.add_row({"checkpoint bytes identical @1/2/8 threads",
                 threads_identical ? "yes" : "NO"});
  table.add_row({"corrupt variants rejected",
                 support::TextTable::fmt(corrupt_rejected) + " / " +
                     support::TextTable::fmt(corrupt_total)});
  std::cout << "\n" << table;

  bench.gate("warm_restart_within_2_periods_and_faster_than_cold",
             restored && warm_periods <= 2 && cold_periods > warm_periods);
  bench.gate("overhead_ok", ratio >= 0.95 && checkpoints_written >= 1,
             bench::Gate::kQuietHost);
  bench.gate("byte_identical_across_threads", threads_identical);
  bench.gate("all_damage_rejected",
             corrupt_total > 0 && corrupt_rejected == corrupt_total);

  // ---- Machine-readable trajectory record.
  bench::Json& record = bench.record;
  bench::Json& recovery = record["recovery"];
  recovery["cold_recovery_periods"] = cold_periods;
  recovery["warm_recovery_periods"] = warm_periods;
  recovery["restore_applied"] = restored;
  bench::Json& checkpointing = record["checkpointing"];
  checkpointing["locates_per_sec_plain"] = best_plain;
  checkpointing["locates_per_sec_checkpointed"] = best_checkpointed;
  checkpointing["checkpoints_written"] = checkpoints_written;
  checkpointing["checkpoint_bytes"] = checkpoint_bytes;
  record["checkpoint_throughput_ratio"] = ratio;
  record["warm_recovery_periods"] = warm_periods;
  record["byte_identical_across_threads"] = threads_identical;
  record["corrupt_files_rejected"] = corrupt_rejected;
  record["corrupt_files_total"] = corrupt_total;
  return bench.finish();
}
