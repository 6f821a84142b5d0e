// Tests for util::parallel_for: index coverage, the small-count and inline
// paths, and exception ordering (every index runs, the lowest-index
// exception rethrows).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace wire::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(
      hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CountSmallerThanThreads) {
  // More threads requested than indices: only min(threads, count) run, and
  // each index is still covered exactly once.
  std::vector<std::atomic<int>> hits(3);
  parallel_for(
      hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleIndexRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  parallel_for(
      1,
      [&ran_on](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ran_on = std::this_thread::get_id();
      },
      4);
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 2);
}

TEST(ParallelFor, LowestIndexExceptionWins) {
  // Two indices throw; the LOWEST index's exception is the one that
  // propagates, independent of which thread ran it first.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(
          16,
          [](std::size_t i) {
            if (i == 3) throw std::runtime_error("low");
            if (i == 11) throw std::runtime_error("high");
          },
          4);
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "low");
    }
  }
}

TEST(ParallelFor, AllIndicesRunDespiteException) {
  // One index throwing must not short-circuit the rest, on one thread or
  // several.
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(32);
    EXPECT_THROW(parallel_for(
                     hits.size(),
                     [&hits](std::size_t i) {
                       hits[i].fetch_add(1);
                       if (i == 5) throw std::runtime_error("boom");
                     },
                     threads),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

}  // namespace
}  // namespace wire::util
