// WorkerPool unit tests: the epoch barrier under contention, stealing and
// its fairness counters, graceful shutdown with queued tasks, reuse across
// epochs and across Executor::run() calls, and oversubscription (more
// workers than tasks/shards). The pool is the substrate of the real-thread
// backends, so these tests run under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/shard_executor.hpp"
#include "estelle/worker_pool.hpp"

namespace mcam::estelle {
namespace {

std::uint64_t total_executed(const WorkerPool& pool) {
  std::uint64_t n = 0;
  for (const auto& s : pool.worker_stats()) n += s.executed;
  return n;
}

std::uint64_t total_stolen(const WorkerPool& pool) {
  std::uint64_t n = 0;
  for (const auto& s : pool.worker_stats()) n += s.stolen;
  return n;
}

TEST(WorkerPoolTest, EpochBarrierCompletesEveryTaskBeforeReturning) {
  WorkerPool pool(4);
  std::atomic<int> done{0};
  const int kTasks = 64;
  const int kEpochs = 50;
  for (int e = 1; e <= kEpochs; ++e) {
    for (int k = 0; k < kTasks; ++k)
      pool.submit(k, [&done](int) { done.fetch_add(1); });
    EXPECT_EQ(pool.launch(), static_cast<std::size_t>(kTasks));
    pool.wait_idle();
    // The barrier: by the time wait_idle returns, every task of the epoch
    // has finished — no stragglers, under repeated contention.
    EXPECT_EQ(done.load(), e * kTasks);
    EXPECT_EQ(pool.pending(), 0u);
  }
  EXPECT_EQ(pool.epochs(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(total_executed(pool), static_cast<std::uint64_t>(kTasks * kEpochs));
}

TEST(WorkerPoolTest, EpochResultsAreVisibleWithoutExtraSynchronization) {
  // Tasks write plain (non-atomic) memory; the epoch barrier must be the
  // happens-before edge that makes those writes readable from the caller.
  WorkerPool pool(4);
  std::vector<int> results(128, 0);
  for (int k = 0; k < 128; ++k)
    pool.submit(k, [&results, k](int) { results[static_cast<std::size_t>(k)] = k * k; });
  pool.launch();
  pool.wait_idle();
  for (int k = 0; k < 128; ++k)
    ASSERT_EQ(results[static_cast<std::size_t>(k)], k * k);
}

TEST(WorkerPoolTest, IdleWorkersStealFromLoadedDeques) {
  // All tasks land on worker 0's deque; each task blocks until every worker
  // of the pool is running one, so workers 1..3 are forced to steal.
  const int kWorkers = 4;
  WorkerPool pool(kWorkers);
  std::atomic<int> running{0};
  for (int k = 0; k < kWorkers; ++k) {
    pool.submit(0, [&running, kWorkers](int) {
      running.fetch_add(1);
      while (running.load() < kWorkers) std::this_thread::yield();
    });
  }
  pool.launch();
  pool.wait_idle();

  const auto stats = pool.worker_stats();
  EXPECT_EQ(total_executed(pool), static_cast<std::uint64_t>(kWorkers));
  EXPECT_EQ(total_stolen(pool), static_cast<std::uint64_t>(kWorkers - 1));
  // Fairness: with the rendezvous forcing full participation, every worker
  // executed exactly one task, and only worker 0's was home-grown.
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(stats[static_cast<std::size_t>(w)].executed, 1u) << "worker " << w;
    EXPECT_EQ(stats[static_cast<std::size_t>(w)].stolen, w == 0 ? 0u : 1u)
        << "worker " << w;
  }
}

TEST(WorkerPoolTest, ExecutingWorkerIdIsReportedToTheTask) {
  const int kWorkers = 3;
  WorkerPool pool(kWorkers);
  std::atomic<int> running{0};
  std::vector<int> ran_on(kWorkers, -1);
  for (int k = 0; k < kWorkers; ++k) {
    pool.submit(0, [&, k](int w) {
      ran_on[static_cast<std::size_t>(k)] = w;
      running.fetch_add(1);
      while (running.load() < kWorkers) std::this_thread::yield();
    });
  }
  pool.launch();
  pool.wait_idle();
  // Every worker id in range, all distinct (one task each by rendezvous).
  std::vector<int> seen(kWorkers, 0);
  for (int w : ran_on) {
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kWorkers);
    ++seen[static_cast<std::size_t>(w)];
  }
  for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(seen[static_cast<std::size_t>(w)], 1);
}

TEST(WorkerPoolTest, ShutdownWithQueuedTasksIsGracefulAndDropsThem) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(3);
    for (int k = 0; k < 10; ++k) pool.submit(k, [&ran](int) { ran.fetch_add(1); });
    EXPECT_EQ(pool.pending(), 10u);
    // No launch: destruction must join the parked workers without running
    // (or leaking) the queued tasks.
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(WorkerPoolTest, ShutdownImmediatelyAfterEpochIsGraceful) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int k = 0; k < 8; ++k) pool.submit(k, [&ran](int) { ran.fetch_add(1); });
    pool.launch();
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPoolTest, EmptyEpochDoesNotWakeWorkers) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.launch(), 0u);
  pool.wait_idle();
  EXPECT_EQ(pool.epochs(), 0u);
  EXPECT_EQ(total_executed(pool), 0u);
}

TEST(WorkerPoolTest, FixedRingHoldsSteadyEpochsWithoutSpilling) {
  // Epochs within the ring capacity never touch the overflow vector — the
  // counter executors fold into rounds_with_allocation stays flat.
  WorkerPool pool(2);
  std::atomic<int> done{0};
  for (int e = 0; e < 20; ++e) {
    for (int k = 0; k < static_cast<int>(WorkerPool::kRingSlots); ++k)
      pool.submit(k % 2, [&done](int) { done.fetch_add(1); });
    pool.launch();
    pool.wait_idle();
  }
  EXPECT_EQ(done.load(), 20 * static_cast<int>(WorkerPool::kRingSlots));
  EXPECT_EQ(pool.spills(), 0u);
}

TEST(WorkerPoolTest, RingSpillsPastHighWaterAndPreservesFifo) {
  // A burst deeper than the ring spills; order stays FIFO across the spill
  // boundary (single worker, so no stealing can reorder).
  WorkerPool pool(1);
  const int kTasks = static_cast<int>(WorkerPool::kRingSlots) + 20;
  std::vector<int> order;
  for (int k = 0; k < kTasks; ++k)
    pool.submit(0, [&order, k](int) { order.push_back(k); });
  EXPECT_EQ(pool.launch(), static_cast<std::size_t>(kTasks));
  pool.wait_idle();
  EXPECT_EQ(pool.spills(), 20u);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int k = 0; k < kTasks; ++k) EXPECT_EQ(order[static_cast<std::size_t>(k)], k);
  // Back under high water: no further spills.
  pool.submit(0, [](int) {});
  pool.launch();
  pool.wait_idle();
  EXPECT_EQ(pool.spills(), 20u);
}

TEST(WorkerPoolTest, HelpingEpochExecutesOnTheCoordinator) {
  // One worker, two tasks that rendezvous: completing the epoch REQUIRES the
  // coordinating thread to drain one of them (run_epoch_helping's
  // pseudo-worker, stats slot worker_count()).
  WorkerPool pool(1);
  std::atomic<int> running{0};
  for (int k = 0; k < 2; ++k) {
    pool.submit(0, [&running](int) {
      running.fetch_add(1);
      while (running.load() < 2) std::this_thread::yield();
    });
  }
  EXPECT_EQ(pool.run_epoch_helping(), 2u);
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 2u);  // worker 0 + the helping coordinator
  EXPECT_EQ(stats[0].executed, 1u);
  EXPECT_EQ(stats[1].executed, 1u);  // the coordinator really participated
  EXPECT_EQ(stats[1].stolen, 1u);    // it has no queue of its own
}

TEST(WorkerPoolTest, LaunchAndWaitIdleHostLongRunningTasks) {
  // launch() returns while tasks run; wait_idle() is the quiesce point the
  // free-running executor uses before resizing or destroying the pool.
  WorkerPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  for (int k = 0; k < 2; ++k) {
    pool.submit(k, [&release, &finished](int) {
      while (!release.load()) std::this_thread::yield();
      finished.fetch_add(1);
    });
  }
  EXPECT_EQ(pool.launch(), 2u);
  EXPECT_EQ(finished.load(), 0);  // caller owns the thread while they run
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(finished.load(), 2);
}

TEST(WorkerPoolTest, OversubscriptionMoreWorkersThanTasks) {
  // 8 workers, 2 tasks per epoch: extra workers wake, find nothing, and
  // park again; the barrier still holds and counters stay consistent.
  WorkerPool pool(8);
  std::atomic<int> done{0};
  for (int e = 0; e < 20; ++e) {
    pool.submit(0, [&done](int) { done.fetch_add(1); });
    pool.submit(5, [&done](int) { done.fetch_add(1); });
    EXPECT_EQ(pool.launch(), 2u);
    pool.wait_idle();
  }
  EXPECT_EQ(done.load(), 40);
  EXPECT_EQ(total_executed(pool), 40u);
}

// ---------------------------------------------------------------------------
// Pool reuse through the executors.

/// `shards` independent system modules, each holding one worker that ticks
/// `limit` times: every round has one candidate per shard, so the sharded
/// backend deals them to its pool.
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

TEST(WorkerPoolTest, RunOptionsWorkerCountResizesThePool) {
  // Six shards keep every width this test asks for under the shard-count
  // cap.
  ShardWorld world(6, 4);
  ShardedExecutor ex(world.spec, {.threads = 2});
  ex.run();
  ASSERT_NE(ex.pool(), nullptr);
  EXPECT_EQ(ex.pool()->worker_count(), 2);
  EXPECT_EQ(ex.unit_count(), 2);

  world.rearm();
  ex.run({.worker_count = 5});
  EXPECT_EQ(ex.pool()->worker_count(), 5);

  // The configured width is restored once a run stops asking for another.
  world.rearm();
  ex.run();
  EXPECT_EQ(ex.pool()->worker_count(), 2);
}

TEST(WorkerPoolTest, ShardedExecutorReusesOnePoolAndCapsAtShardCount) {
  // Two shards; ask for 8 workers and the pool must cap at 2 (whole-shard
  // stealing can't use more).
  ShardWorld world(2, 9);
  ShardedExecutor ex(world.spec, {.threads = 8});
  const RunReport report = ex.run();
  EXPECT_EQ(report.fired, 18u);
  ASSERT_NE(ex.pool(), nullptr);
  EXPECT_EQ(ex.pool()->worker_count(), 2);
  EXPECT_EQ(ex.unit_count(), 2);

  const WorkerPool* pool = ex.pool();
  const std::uint64_t epochs = pool->epochs();
  world.rearm();
  ex.run();
  EXPECT_EQ(ex.pool(), pool);  // reused, not respawned
  EXPECT_GT(pool->epochs(), epochs);
}

}  // namespace
}  // namespace mcam::estelle
