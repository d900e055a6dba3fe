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

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace confcall::support {

/// Resolves a requested thread count: 0 means "all hardware threads"
/// (std::thread::hardware_concurrency, itself clamped to >= 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// A blocking fork-join pool over persistent workers. The constructor
/// spawns size() - 1 helper threads and the destructor joins them; no
/// call spawns a thread. Between calls the helpers park on a condition
/// variable: an idle pool burns no CPU. A call wakes only as many
/// helpers as it has tasks to share, and returns only after every
/// helper that joined it has left, so the mutex hand-offs give TSan the
/// same happens-before edges a join would. Concurrent parallel_for
/// calls on one pool are serialized; a task must not call parallel_for
/// on the pool that runs it (it would wait for itself).
class ThreadPool {
 public:
  /// `num_threads` = 0 picks the hardware concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return num_threads_; }

  /// Runs fn(0), fn(1), ..., fn(num_tasks - 1), each exactly once, on up
  /// to size() threads (the caller included), and blocks until all have
  /// finished. Task order across threads is unspecified; callers must not
  /// rely on it. The first exception thrown by any task is captured and
  /// rethrown on the calling thread after every participant is done.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  struct Job;

  void helper_loop() const;
  void stop_helpers() noexcept;

  std::size_t num_threads_;

  /// Serializes concurrent callers: one job is in flight at a time.
  mutable std::mutex call_mutex_;
  /// Guards job_, open_slots_, running_ and stopping_.
  mutable std::mutex mutex_;
  mutable std::condition_variable wake_;  ///< helpers park here
  mutable std::condition_variable done_;  ///< the caller waits here
  mutable Job* job_ = nullptr;
  mutable std::size_t open_slots_ = 0;  ///< helpers the job may still take
  mutable std::size_t running_ = 0;     ///< helpers inside the job
  bool stopping_ = false;

  /// Declared last: the helpers use every member above.
  std::vector<std::thread> helpers_;
};

}  // namespace confcall::support
