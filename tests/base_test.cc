// Unit tests for src/base: rng, hashing, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/stopwatch.h"
#include "src/base/thread_pool.h"

namespace percival {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.NextInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianHasRoughlyZeroMeanUnitVariance) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkIsIndependentOfParentFollowup) {
  Rng parent(42);
  Rng child = parent.Fork();
  const uint64_t child_first = child.NextU64();
  // Re-create the same sequence: forking at the same state gives the same
  // child stream.
  Rng parent2(42);
  Rng child2 = parent2.Fork();
  EXPECT_EQ(child2.NextU64(), child_first);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = values;
  rng.Shuffle(values);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(HashTest, StableAndSensitive) {
  EXPECT_EQ(HashString("percival"), HashString("percival"));
  EXPECT_NE(HashString("percival"), HashString("percivaL"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, BytesMatchString) {
  const std::string text = "hello world";
  EXPECT_EQ(HashString(text), HashBytes(text.data(), text.size()));
}

TEST(HashTest, CombineNotCommutative) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, ConcurrentParallelForRunsEachIndexOnce) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &failures, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int count = 2 + (round * 7 + t * 13) % 63;  // 2..64
        std::vector<std::atomic<int>> hits(static_cast<size_t>(count));
        pool.ParallelFor(count, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
        for (const auto& hit : hits) {
          if (hit.load() != 1) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, ParallelForInsideWorkerRunsInline) {
  ThreadPool pool(3);
  std::thread::id worker_id;
  std::vector<std::thread::id> ran_on(16);
  pool.Submit([&] {
    worker_id = std::this_thread::get_id();
    pool.ParallelFor(16, [&ran_on](int i) {
      ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
    });
  });
  pool.Wait();
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, worker_id);
  }
}

// The caller never waits on a helper that has not claimed an iteration, so
// fanning out while holding a lock every worker is blocked on completes:
// the caller runs every iteration itself.
TEST(ThreadPoolTest, ParallelForCompletesWhileWorkersBlockOnCallersLock) {
  constexpr int kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::mutex held;
  std::atomic<int> blocked{0};
  std::unique_lock<std::mutex> lock(held);
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&] {
      blocked.fetch_add(1);
      std::lock_guard<std::mutex> wait_for_caller(held);
    });
  }
  while (blocked.load() < kWorkers) {
    std::this_thread::yield();
  }
  std::vector<std::atomic<int>> hits(32);
  pool.ParallelFor(32, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  lock.unlock();
  pool.Wait();
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, DestroyRightAfterParallelFor) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    {
      ThreadPool pool(3);
      pool.ParallelFor(8, [&sum](int i) { sum.fetch_add(i); });
    }
    ASSERT_EQ(sum.load(), 28);
  }
}

TEST(ThreadPoolTest, NestedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch timer;
  const double first = timer.ElapsedUs();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(timer.ElapsedUs(), first);
}

}  // namespace
}  // namespace percival
