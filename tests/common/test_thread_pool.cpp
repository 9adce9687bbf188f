#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace oagrid {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 8, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // sequential and in order
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(3, 3, [&](std::size_t) { touched = true; });
  pool.parallel_for(5, 2, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  // The whole point of the pool: thousands of cheap regions back to back
  // (the climate model's substeps). Must not deadlock or drop work.
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  for (int region = 0; region < 2000; ++region)
    pool.parallel_for(0, 16, [&](std::size_t i) {
      total += static_cast<long long>(i);
    });
  EXPECT_EQ(total.load(), 2000LL * (15 * 16 / 2));
}

TEST(ThreadPool, ActuallyRunsConcurrently) {
  if (default_parallelism() < 2)
    GTEST_SKIP() << "single hardware thread: overlap is preemption luck";
  ThreadPool pool(3);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  pool.parallel_for(0, 64, [&](std::size_t) {
    const int now = ++inside;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    // Busy-wait briefly so overlap is observable (atomic defeats the
    // optimizer without deprecated volatile arithmetic).
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 20000) {
    }
    --inside;
  });
  EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // The pool survives the exception and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MoreWorkersThanWork) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(0, 2, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DestructionWithIdleWorkersIsClean) {
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
    pool.parallel_for(0, 4, [](std::size_t) {});
  }
}

TEST(ThreadPool, MaxThreadsOneIsSequentialInOrder) {
  ThreadPool pool(4);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 10, [&](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, NestedRegionsRunInlineWithoutDeadlock) {
  // Re-entering the pool from inside one of its own regions must not block
  // on the region mutex: the nested-use guard runs the inner loop inline on
  // the calling thread.
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t j) {
      total += static_cast<long long>(j);
    });
  });
  EXPECT_EQ(total.load(), 8LL * 28);
}

TEST(ThreadPool, ConcurrentCallersBothComplete) {
  // Two threads driving regions on the same pool: regions serialize on the
  // region mutex and neither caller's iterations are lost or duplicated.
  ThreadPool pool(2);
  std::atomic<long long> a{0};
  std::atomic<long long> b{0};
  std::thread ta([&] {
    for (int region = 0; region < 200; ++region)
      pool.parallel_for(0, 32, [&](std::size_t i) {
        a += static_cast<long long>(i);
      });
  });
  std::thread tb([&] {
    for (int region = 0; region < 200; ++region)
      pool.parallel_for(0, 32, [&](std::size_t i) {
        b += static_cast<long long>(i);
      });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 200LL * (31 * 32 / 2));
  EXPECT_EQ(b.load(), 200LL * (31 * 32 / 2));
}

TEST(ThreadPool, ParallelTransformReturnsOrderedResults) {
  ThreadPool pool(4);
  const std::vector<std::size_t> squares =
      parallel_transform(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, ParallelTransformEmptyAndExceptional) {
  ThreadPool pool(2);
  EXPECT_TRUE(
      parallel_transform(pool, 0, [](std::size_t i) { return i; }).empty());
  EXPECT_THROW(parallel_transform(pool, 50,
                                  [](std::size_t i) -> int {
                                    if (i == 7) throw std::runtime_error("x");
                                    return 0;
                                  }),
               std::runtime_error);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&shared_pool(), &shared_pool());
}

// Shutdown stress: destroy the pool immediately after the last region
// returns, while workers may still be between "observed the generation"
// and "back on the condvar". Run under TSan in CI; a lost-wakeup or a
// notify on a destroyed condvar shows up here as a hang or a race report.
TEST(ThreadPool, ImmediateDestructionAfterBusyRegionsStress) {
  for (int i = 0; i < 100; ++i) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    pool.parallel_for(0, 1, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 65);
    // Destructor races the workers' return-to-wait transition.
  }
}

}  // namespace
}  // namespace oagrid
