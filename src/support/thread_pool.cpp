#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace confcall::support {

std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// One parallel_for call, living on the caller's stack.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& task_fn, std::size_t tasks)
      : fn(task_fn), num_tasks(tasks) {}

  const std::function<void(std::size_t)>& fn;
  std::size_t num_tasks;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  void work() {
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) return;
      try {
        fn(task);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Keep draining tasks: siblings may be mid-flight anyway, and a
        // deterministic "first error wins" beats a half-run abort.
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(resolve_threads(num_threads)) {
  try {
    helpers_.reserve(num_threads_ - 1);
    for (std::size_t t = 1; t < num_threads_; ++t) {
      helpers_.emplace_back([this] { helper_loop(); });
    }
  } catch (...) {
    stop_helpers();  // no destructor runs for a throwing constructor
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_helpers(); }

void ThreadPool::stop_helpers() noexcept {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadPool::helper_loop() const {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return open_slots_ > 0 || stopping_; });
    if (open_slots_ == 0) return;  // stopping, and no job wants us
    --open_slots_;
    ++running_;
    Job& job = *job_;
    lock.unlock();
    job.work();
    lock.lock();
    if (--running_ == 0) done_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t num_tasks, const std::function<void(std::size_t)>& fn) const {
  if (num_tasks == 0) return;
  Job job(fn, num_tasks);

  // The caller is one of the workers; helpers only help when there is
  // both capacity (> 1) and enough tasks to share.
  const std::size_t helpers = std::min(helpers_.size(), num_tasks - 1);
  if (helpers == 0) {
    job.work();
  } else {
    const std::lock_guard<std::mutex> call_lock(call_mutex_);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      open_slots_ = helpers;
    }
    if (helpers == helpers_.size()) {
      wake_.notify_all();
    } else {
      for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
    }
    job.work();
    // Every task is dealt once the caller's share runs dry. Close the
    // slots no helper has taken yet (a late waker then finds nothing to
    // join) and wait only for the helpers still running a task.
    std::unique_lock<std::mutex> lock(mutex_);
    open_slots_ = 0;
    done_.wait(lock, [this] { return running_ == 0; });
    job_ = nullptr;
  }

  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace confcall::support
