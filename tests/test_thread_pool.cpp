// Tests for support/thread_pool.h and the deterministic-parallelism
// substrate it rests on (prob::mix_seed / Rng::substream).
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "prob/rng.h"
#include "support/cli.h"

namespace confcall::support {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareAndNeverZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.parallel_for(kTasks, [&](std::size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  const ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, IndexAddressedResultsAreThreadCountInvariant) {
  // The engine's core discipline: write to slot [task], merge in index
  // order, and the result cannot depend on the thread count.
  const auto run = [](std::size_t threads) {
    const ThreadPool pool(threads);
    std::vector<double> slots(257);
    pool.parallel_for(slots.size(), [&](std::size_t task) {
      prob::Rng rng = prob::Rng::substream(42, task);
      slots[task] = rng.next_double();
    });
    return slots;
  };
  const std::vector<double> one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPool, PropagatesTheFirstException) {
  const ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t task) {
                          if (task % 3 == 0) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

/// Counts constructions of a thread_local, i.e. distinct threads that
/// touched it.
std::atomic<int> g_thread_constructions{0};
struct ThreadTally {
  ThreadTally() { g_thread_constructions.fetch_add(1); }
};

TEST(ThreadPool, ReusesItsWorkersAcrossCalls) {
  // Every call holds each task until all size() tasks have started, so
  // every helper takes part in every call. Helpers that persist touch
  // their thread_local once in their life; a pool that spawned per call
  // would construct it on every call.
  const ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  g_thread_constructions.store(0);
  for (int call = 0; call < 1000; ++call) {
    std::atomic<std::size_t> started{0};
    pool.parallel_for(pool.size(), [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        thread_local ThreadTally tally;
        (void)tally;
      }
      started.fetch_add(1);
      while (started.load() < pool.size()) std::this_thread::yield();
    });
  }
  EXPECT_LE(g_thread_constructions.load(),
            static_cast<int>(pool.size() - 1));
}

TEST(ThreadPool, UsableAfterATaskThrew) {
  const ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(16,
                                   [](std::size_t task) {
                                     if (task == 5) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(hits.size(), [&](std::size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " round " << round;
    }
  }
}

TEST(ThreadPool, ConcurrentCallersEachRunEveryTaskOnce) {
  const ThreadPool pool(3);
  constexpr int kCalls = 200;
  constexpr std::size_t kTasks = 64;
  const auto caller = [&](std::vector<int>& failures) {
    for (int call = 0; call < kCalls; ++call) {
      std::vector<std::atomic<int>> hits(kTasks);
      pool.parallel_for(kTasks, [&](std::size_t task) {
        hits[task].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < kTasks; ++i) {
        if (hits[i].load() != 1) failures.push_back(call);
      }
    }
  };
  std::vector<int> failures_a;
  std::vector<int> failures_b;
  std::thread other([&] { caller(failures_b); });
  caller(failures_a);
  other.join();
  EXPECT_TRUE(failures_a.empty()) << failures_a.size() << " bad tasks";
  EXPECT_TRUE(failures_b.empty()) << failures_b.size() << " bad tasks";
}

TEST(ThreadPool, DestroyedWhileIdle) {
  // Never used, and used then left parked: both must join promptly.
  { const ThreadPool pool(8); }
  {
    const ThreadPool pool(8);
    std::atomic<int> ran{0};
    pool.parallel_for(2, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Substream, DistinctIndicesGiveDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    seeds.insert(prob::mix_seed(7, stream));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Consecutive seeds must differ from consecutive substream seeds (the
  // double-mix breaks the "seed + 1" correlation of naive reseeding).
  EXPECT_NE(prob::mix_seed(7, 1), prob::mix_seed(8, 0));
}

TEST(Substream, IsDeterministic) {
  prob::Rng a = prob::Rng::substream(123, 45);
  prob::Rng b = prob::Rng::substream(123, 45);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(BenchFlags, ParsesSharedFlagSet) {
  const char* argv[] = {"bench", "--smoke", "--threads", "4", "--out",
                        "x.json"};
  const BenchFlags flags = parse_bench_flags(6, argv);
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(flags.threads, 4u);
  EXPECT_EQ(flags.out, "x.json");

  const char* defaults[] = {"bench"};
  const BenchFlags none = parse_bench_flags(1, defaults);
  EXPECT_FALSE(none.smoke);
  EXPECT_EQ(none.threads, 0u);
  EXPECT_TRUE(none.out.empty());
}

TEST(BenchFlags, RejectsUnknownAndNegative) {
  const char* unknown[] = {"bench", "--smok"};
  EXPECT_THROW(parse_bench_flags(2, unknown), std::invalid_argument);
  const char* negative[] = {"bench", "--threads", "-1"};
  EXPECT_THROW(parse_bench_flags(3, negative), std::invalid_argument);
}

}  // namespace
}  // namespace confcall::support
