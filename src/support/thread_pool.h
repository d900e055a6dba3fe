// Fixed-size worker pool for deterministic data parallelism.
//
// The pool exists to parallelize embarrassingly-parallel work (Monte-Carlo
// shards, simulation replications, per-area planning) WITHOUT giving up
// reproducibility: parallel_for deals task indices out atomically, the
// caller derives any per-task randomness from the task INDEX (see
// prob::Rng::substream), and results are written to index-addressed slots
// and merged in index order. Under that discipline the output is
// bit-identical for every thread count, including 1.
//
// The calling thread participates in the work, so a pool of size 1 runs
// everything inline with zero synchronization overhead beyond an atomic
// fetch_add per task, and a pool is usable (if pointless) on a one-core
// machine.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace confcall::support {

/// Resolves a requested thread count: 0 means "all hardware threads"
/// (std::thread::hardware_concurrency, itself clamped to >= 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// A blocking fork-join pool. Threads are spawned per parallel_for call
/// and joined before it returns — the pool holds no background state, so
/// a ThreadPool member never outlives its tasks and TSan sees a clean
/// happens-before edge at every join. Spawn cost is noise for the batch
/// callers (Monte-Carlo shards, simulation replications: a few calls per
/// run, each milliseconds to seconds of work), but NOT for ServiceFleet,
/// which calls parallel_for on every locate_many dispatch and every
/// step_all: a 1-call dispatch measured ~68 us at 2 shards against
/// ~18 us at 1 shard, where the caller runs inline and nothing spawns
/// (perfbench/README.md). A persistent-worker pool is the fix that
/// measurement points at.
class ThreadPool {
 public:
  /// `num_threads` = 0 picks the hardware concurrency.
  explicit ThreadPool(std::size_t num_threads = 0)
      : num_threads_(resolve_threads(num_threads)) {}

  [[nodiscard]] std::size_t size() const noexcept { return num_threads_; }

  /// Runs fn(0), fn(1), ..., fn(num_tasks - 1), each exactly once, on up
  /// to size() threads (the caller included), and blocks until all have
  /// finished. Task order across threads is unspecified; callers must not
  /// rely on it. The first exception thrown by any task is captured and
  /// rethrown on the calling thread after every worker has joined.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t num_threads_;
};

}  // namespace confcall::support
