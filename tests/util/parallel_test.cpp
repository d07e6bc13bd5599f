#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace commsched {
namespace {

TEST(RunIndexed, DefaultThreadCountHonorsEnv) {
  ::setenv("COMMSCHED_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  ::unsetenv("COMMSCHED_THREADS");
  EXPECT_GE(default_thread_count(), 1);
}

TEST(RunIndexed, DefaultThreadCountRejectsNonPositiveOrMalformedEnv) {
  // 2147483648 is INT_MAX + 1: rejected rather than narrowed to an int.
  for (const char* bad : {"0", "-3", "abc", "2x", "2147483648"}) {
    ::setenv("COMMSCHED_THREADS", bad, 1);
    EXPECT_THROW((void)default_thread_count(), InvariantError) << bad;
  }
  ::setenv("COMMSCHED_THREADS", "", 1);
  EXPECT_GE(default_thread_count(), 1) << "empty falls back to the hardware";
  ::unsetenv("COMMSCHED_THREADS");
}

TEST(RunIndexed, NonPositiveThreadsUseTheDefaultThreadCount) {
  ::setenv("COMMSCHED_THREADS", "2", 1);
  for (const int threads : {0, -1}) {
    // Two indices that each wait for the other to start need two workers.
    std::mutex mu;
    std::condition_variable both_started;
    int started = 0;
    const std::vector<int> met =
        run_indexed<int>(threads, 2, [&](std::size_t) {
          std::unique_lock<std::mutex> lock(mu);
          ++started;
          both_started.notify_all();
          return both_started.wait_for(lock, std::chrono::seconds(10),
                                       [&] { return started == 2; })
                     ? 1
                     : 0;
        });
    EXPECT_EQ(met, (std::vector<int>{1, 1})) << "threads " << threads;
    // ...and no more than two ever run.
    std::set<std::thread::id> ids;
    (void)run_indexed<int>(threads, 64, [&](std::size_t) {
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      return 0;
    });
    EXPECT_LE(ids.size(), 2u) << "threads " << threads;
  }
  ::unsetenv("COMMSCHED_THREADS");
}

TEST(RunIndexed, MoreThreadsThanIndicesRunsEachIndexOnce) {
  std::vector<std::atomic<int>> runs(3);
  const std::vector<int> out =
      run_indexed<int>(16, runs.size(), [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        return static_cast<int>(i) + 10;
      });
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12}));
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(RunIndexed, EveryIndexRunsOnceOnAWorkerThread) {
  std::vector<std::atomic<int>> runs(100);
  std::mutex mu;
  std::set<std::thread::id> ids;
  (void)run_indexed<int>(4, runs.size(), [&](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    return 0;
  });
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  EXPECT_FALSE(ids.contains(std::this_thread::get_id()));
  EXPECT_LE(ids.size(), 4u);
}

TEST(RunIndexed, WorkersRunIndicesConcurrently) {
  // Four indices on four workers: each index waits until all four have
  // started, which only four concurrent workers can satisfy.
  std::mutex mu;
  std::condition_variable all_started;
  int started = 0;
  const std::vector<int> met = run_indexed<int>(4, 4, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    all_started.notify_all();
    return all_started.wait_for(lock, std::chrono::seconds(10),
                                [&] { return started == 4; })
               ? 1
               : 0;
  });
  EXPECT_EQ(met, (std::vector<int>{1, 1, 1, 1}));
}

TEST(RunIndexed, OneWorkerClaimsIndicesInAscendingOrder) {
  std::vector<std::size_t> order;  // one worker: no lock needed
  (void)run_indexed<int>(1, 5, [&order](std::size_t i) {
    order.push_back(i);
    return 0;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RunIndexed, CollectsResultsInIndexOrder) {
  for (const int threads : {1, 4}) {
    const std::vector<int> out = run_indexed<int>(
        threads, 32, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 32u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(RunIndexed, EmptyCountIsFine) {
  const std::vector<int> out =
      run_indexed<int>(2, 0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(RunIndexed, RethrowsLowestIndexException) {
  std::atomic<int> ran{0};
  try {
    (void)run_indexed<int>(4, 16, [&ran](std::size_t i) -> int {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3 || i == 11) throw std::runtime_error("boom " + std::to_string(i));
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  EXPECT_EQ(ran.load(), 16) << "a failing index must not stop the others";
}

TEST(RunIndexed, MoveOnlyResultsWork) {
  const std::vector<std::vector<int>> out = run_indexed<std::vector<int>>(
      2, 8, [](std::size_t i) { return std::vector<int>(i, 7); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].size(), i);
}

}  // namespace
}  // namespace commsched
