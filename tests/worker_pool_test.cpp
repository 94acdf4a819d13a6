// WorkerPool unit tests: every worker runs each launched task exactly once,
// results are visible after wait_idle(), the pool is reused across launches
// and across Executor::run() calls, and it shuts down gracefully. The pool
// hosts the free-running executor's shard continuations, so these tests run
// under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/free_executor.hpp"
#include "estelle/module.hpp"
#include "estelle/worker_pool.hpp"

namespace mcam::estelle {
namespace {

TEST(WorkerPoolTest, EveryWorkerRunsTheTaskOncePerLaunch) {
  const int kWorkers = 4;
  const int kLaunches = 50;
  WorkerPool pool(kWorkers);
  std::vector<std::atomic<int>> ran(kWorkers);
  for (int e = 1; e <= kLaunches; ++e) {
    pool.launch(
        [&ran](int w) { ran[static_cast<std::size_t>(w)].fetch_add(1); });
    pool.wait_idle();
    // By the time wait_idle returns, every worker has run this launch's
    // task exactly once — no stragglers, under repeated contention.
    for (int w = 0; w < kWorkers; ++w)
      ASSERT_EQ(ran[static_cast<std::size_t>(w)].load(), e) << "worker " << w;
  }
  EXPECT_EQ(pool.epochs(), static_cast<std::uint64_t>(kLaunches));
}

TEST(WorkerPoolTest, ResultsAreVisibleAfterWaitIdle) {
  // Tasks write plain (non-atomic) memory; wait_idle must be the
  // happens-before edge that makes those writes readable from the caller.
  WorkerPool pool(4);
  std::vector<int> results(4, 0);
  pool.launch([&results](int w) {
    results[static_cast<std::size_t>(w)] = w * w + 1;
  });
  pool.wait_idle();
  for (int w = 0; w < 4; ++w)
    ASSERT_EQ(results[static_cast<std::size_t>(w)], w * w + 1);
}

TEST(WorkerPoolTest, WorkersRunTheTaskConcurrentlyOnDistinctThreads) {
  // Each task blocks until every worker is running one, so all of them run
  // at once, each on its own thread, none on the caller's.
  const int kWorkers = 3;
  WorkerPool pool(kWorkers);
  std::atomic<int> running{0};
  std::vector<std::thread::id> ran_on(kWorkers);
  pool.launch([&](int w) {
    ran_on[static_cast<std::size_t>(w)] = std::this_thread::get_id();
    running.fetch_add(1);
    while (running.load() < kWorkers) std::this_thread::yield();
  });
  pool.wait_idle();
  EXPECT_EQ(running.load(), kWorkers);
  for (int a = 0; a < kWorkers; ++a) {
    EXPECT_NE(ran_on[static_cast<std::size_t>(a)], std::this_thread::get_id());
    for (int b = a + 1; b < kWorkers; ++b)
      EXPECT_NE(ran_on[static_cast<std::size_t>(a)],
                ran_on[static_cast<std::size_t>(b)]);
  }
}

TEST(WorkerPoolTest, ShutdownOfAPoolThatNeverLaunchedIsGraceful) {
  // Destruction must join the parked workers; wait_idle before any launch
  // returns at once.
  WorkerPool pool(3);
  pool.wait_idle();
  EXPECT_EQ(pool.epochs(), 0u);
}

TEST(WorkerPoolTest, ShutdownImmediatelyAfterLaunchIsGraceful) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    pool.launch([&ran](int) { ran.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), 2);
}

TEST(WorkerPoolTest, LaunchAndWaitIdleHostLongRunningTasks) {
  // launch() returns while tasks run; wait_idle() is the quiesce point the
  // free-running executor uses before it reads what its shards did.
  WorkerPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  pool.launch([&release, &finished](int) {
    while (!release.load()) std::this_thread::yield();
    finished.fetch_add(1);
  });
  EXPECT_EQ(finished.load(), 0);  // caller owns the thread while they run
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(finished.load(), 2);
}

// ---------------------------------------------------------------------------
// Pool reuse through the free-running executor.

/// `shards` independent system modules, each holding one worker that ticks
/// `limit` times: every round has one candidate per shard.
struct ShardWorld {
  Specification spec{"shards"};
  ShardWorld(int shards, int limit) {
    for (int i = 0; i < shards; ++i) {
      auto& sys = spec.root().create_child<Module>("sys" + std::to_string(i),
                                                   Attribute::SystemProcess);
      auto& w = sys.create_child<Module>("w", Attribute::Process);
      w.trans("tick")
          .provided([limit](Module& m, const Interaction*) {
            return m.state() < limit;
          })
          .action([](Module& m, const Interaction*) {
            m.set_state(m.state() + 1);
          });
    }
    spec.initialize();
  }
  void rearm() {
    for (Module* sm : spec.system_modules()) sm->children()[0]->set_state(0);
  }
};

TEST(WorkerPoolTest, RunOptionsWorkerCountNeverResizesTheFreeRunningPool) {
  // The pool is one thread per shard. A run whose width covers the shards
  // free-runs on it; a narrower run takes barrier rounds on the calling
  // thread and leaves the pool as it is.
  ShardWorld world(6, 4);
  FreeRunningExecutor ex(world.spec, {.threads = 8});
  EXPECT_EQ(ex.pool(), nullptr);
  const RunReport first = ex.run();
  EXPECT_EQ(first.fired, 24u);
  EXPECT_EQ(first.free_running.fallback_rounds, 0u);
  ASSERT_NE(ex.pool(), nullptr);
  const WorkerPool* pool = ex.pool();
  EXPECT_EQ(pool->worker_count(), 6);
  EXPECT_EQ(ex.unit_count(), 6);
  const std::uint64_t epochs = pool->epochs();

  world.rearm();
  const RunReport narrow = ex.run({.worker_count = 2});
  EXPECT_EQ(narrow.fired, 24u);
  EXPECT_GT(narrow.free_running.fallback_rounds, 0u);
  EXPECT_EQ(ex.pool(), pool);
  EXPECT_EQ(pool->worker_count(), 6);
  EXPECT_EQ(pool->epochs(), epochs);  // no session launched

  world.rearm();
  const RunReport wide = ex.run({.worker_count = 6});
  EXPECT_EQ(wide.fired, 24u);
  EXPECT_EQ(ex.pool(), pool);
  EXPECT_GT(pool->epochs(), epochs);
}

TEST(WorkerPoolTest, FreeRunningReusesOnePoolWithOneThreadPerShard) {
  // Two shards; ask for 8 workers and the pool still has exactly 2 threads,
  // reused by every later run.
  ShardWorld world(2, 9);
  FreeRunningExecutor ex(world.spec, {.threads = 8});
  const RunReport report = ex.run();
  EXPECT_EQ(report.fired, 18u);
  ASSERT_EQ(report.shards.size(), 2u);
  for (const ShardRunStats& s : report.shards) EXPECT_EQ(s.fired, 9u);
  ASSERT_NE(ex.pool(), nullptr);
  EXPECT_EQ(ex.pool()->worker_count(), 2);
  EXPECT_EQ(ex.unit_count(), 2);

  const WorkerPool* pool = ex.pool();
  const std::uint64_t epochs = pool->epochs();
  world.rearm();
  EXPECT_EQ(ex.run().fired, 18u);
  EXPECT_EQ(ex.pool(), pool);  // reused, not respawned
  EXPECT_GT(pool->epochs(), epochs);
}

}  // namespace
}  // namespace mcam::estelle
