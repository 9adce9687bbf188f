#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace oagrid {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; });
  parallel_for(7, 3, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RespectsOffsetRange) {
  std::atomic<long long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) {
    sum += static_cast<long long>(i);
  });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, SingleThreadFallbackIsSequential) {
  std::vector<std::size_t> order;
  parallel_for(0, 10, [&](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 42) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ManyMoreThreadsThanWork) {
  std::atomic<int> count{0};
  parallel_for(0, 3, [&](std::size_t) { count++; }, 64);
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, ExceptionIsFirstComeWinsWhenSerial) {
  // threads=1 runs in index order, so "first come" is exactly the lowest
  // failing index — the strictest observable form of the first-come-wins
  // propagation contract.
  try {
    parallel_for(
        0, 100,
        [](std::size_t i) {
          if (i >= 30) throw std::runtime_error("idx" + std::to_string(i));
        },
        1);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "idx30");
  }
}

TEST(ParallelFor, SingleThreadRunsAreDeterministic) {
  std::vector<std::size_t> first;
  std::vector<std::size_t> second;
  parallel_for(0, 64, [&](std::size_t i) { first.push_back(i); }, 1);
  parallel_for(0, 64, [&](std::size_t i) { second.push_back(i); }, 1);
  EXPECT_EQ(first, second);
}

TEST(ParallelFor, NestedUseRunsInlineInOrder) {
  // A body that itself calls parallel_for must get a serial, in-order inner
  // loop on the calling thread (the nested-use guard) — never a second tier
  // of threads.
  std::atomic<int> inner_total{0};
  std::atomic<bool> inner_in_order{true};
  parallel_for(0, 4, [&](std::size_t) {
    std::vector<std::size_t> inner;  // unsynchronized: inline execution only
    parallel_for(0, 5, [&](std::size_t i) { inner.push_back(i); });
    inner_total += static_cast<int>(inner.size());
    for (std::size_t i = 0; i < inner.size(); ++i)
      if (inner[i] != i) inner_in_order = false;
  });
  EXPECT_EQ(inner_total.load(), 20);
  EXPECT_TRUE(inner_in_order.load());
}

TEST(ParallelFor, NestedExceptionPropagatesThroughBothLevels) {
  EXPECT_THROW(parallel_for(0, 4,
                            [](std::size_t) {
                              parallel_for(0, 4, [](std::size_t j) {
                                if (j == 2) throw std::runtime_error("inner");
                              });
                            }),
               std::runtime_error);
}

TEST(ParallelFor, SingleThreadRunsOnCallerThroughNestedPoolRegions) {
  // threads = 1 keeps every body on the calling thread, and a shared_pool()
  // region opened inside one runs inline on that thread too: the contract
  // e2ebench's grid-faulty traced pass (kThreads = 1) depends on.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> outer_on_caller{0};
  std::atomic<int> inner_on_caller{0};
  parallel_for(
      0, 4,
      [&](std::size_t) {
        if (std::this_thread::get_id() == caller) ++outer_on_caller;
        shared_pool().parallel_for(0, 16, [&](std::size_t) {
          if (std::this_thread::get_id() == caller) ++inner_on_caller;
        });
      },
      1);
  EXPECT_EQ(outer_on_caller.load(), 4);
  EXPECT_EQ(inner_on_caller.load(), 4 * 16);
}

TEST(DefaultParallelism, AtLeastOne) {
  EXPECT_GE(default_parallelism(), 1u);
}

}  // namespace
}  // namespace oagrid
