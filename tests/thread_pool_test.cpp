// olive::ThreadPool is the substrate of both parallel pricing and the
// parallel bench harness, so its contract is tested directly: every index
// runs exactly once, exceptions propagate (deterministically, smallest
// failing index first), nested parallel_for/submit from inside a pool task
// run inline instead of deadlocking, and the zero/one-thread degenerate
// cases behave like plain loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace olive {
namespace {

TEST(ThreadPool, ZeroWorkersRunsEverythingInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<int> out(100, -1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(100, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    out[i] = i * i;
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);

  auto fut = pool.submit([] { return 42; });
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // ran inline, already done
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, OneWorkerStillCoversEveryIndex) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for(1000, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.parallel_for(997, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 997; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyLoopIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](int) { ++calls; });
  pool.parallel_for(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MaxThreadsOneForcesInlineExecution) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  pool.parallel_for(
      64, [&](int i) { ran[i] = std::this_thread::get_id(); },
      /*max_threads=*/1);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ExceptionPropagatesSmallestFailingIndex) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [&](int i) {
      if (i % 10 == 3) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // 3, 13, 23, ... all throw; the pool must pick the smallest index so
    // which exception surfaces does not depend on scheduling.
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

// The rethrown exception must belong to the caller alone: helper tasks
// still queued on the global pool keep the loop state alive after
// parallel_for returns, and reading what() must not race with their
// teardown (the ThreadSanitizer job runs this under OLIVE_THREADS=4).
TEST(ThreadPool, ExceptionSurvivesHelperTeardown) {
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(std::max(2, default_thread_count()));
  for (int rep = 0; rep < 100; ++rep) {
    try {
      pool.parallel_for(16, [&](int i) {
        if (i == 0) throw std::runtime_error("boom " + std::to_string(rep));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(rep));
    }
  }
}

TEST(ThreadPool, ExceptionDoesNotSkipOtherIndices) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(200,
                                 [&](int i) {
                                   if (i == 7) throw std::runtime_error("x");
                                   completed.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 199);  // everything except the thrower ran
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](int) {
    pool.parallel_for(8, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedSubmitFromWorkerRunsInline) {
  ThreadPool pool(1);  // a single busy worker: a queued inner task would hang
  auto outer = pool.submit([&] {
    auto inner = pool.submit([] { return 7; });
    EXPECT_EQ(inner.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 8);
}

TEST(ThreadPool, SubmitPropagatesValueAndException) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return std::string("value"); });
  EXPECT_EQ(ok.get(), "value");
  auto bad = pool.submit([]() -> int { throw std::logic_error("nope"); });
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.workers(), 3);
  pool.ensure_workers(2);
  EXPECT_EQ(pool.workers(), 3);
}

TEST(ThreadPool, WorkRunsOnWorkerThreads) {
  ThreadPool pool(3);
  std::mutex m;
  std::set<std::thread::id> ids;
  pool.parallel_for(256, [&](int) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::lock_guard lk(m);
    ids.insert(std::this_thread::get_id());
  });
  // Scheduling-dependent, so only bound it: at most workers + caller, and
  // never zero.
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  const char* old = std::getenv("OLIVE_THREADS");
  const std::string saved = old ? old : "";
  setenv("OLIVE_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  setenv("OLIVE_THREADS", "0", 1);  // invalid: falls back to hardware
  EXPECT_GE(default_thread_count(), 1);
  if (old) {
    setenv("OLIVE_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("OLIVE_THREADS");
  }
}

}  // namespace
}  // namespace olive
