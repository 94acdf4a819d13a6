// Persistent worker pool shared by the real-thread executor backends.
//
// The paper's wall-clock claim (§5) is that parallel transition firing beats
// the sequential scheduler in real time, not just in modelled virtual time.
// Before this subsystem existed the real-thread backends spawned fresh
// std::threads every round/epoch, so on small rounds the measured
// real-time "speedup" was dominated by thread construction. A WorkerPool is
// a fixed set of long-lived workers that an executor owns for its whole
// lifetime and re-arms every epoch (one release of queued tasks — a barrier
// round's firing shards, or a free-running session's continuations):
//
//   * one task queue per worker, a fixed-slot FIFO ring. The epoch's tasks
//     are dealt to the rings by the coordinating thread (submit), then
//     released at once (launch / run_epoch_helping) — tasks never start
//     while the coordinator is still preparing the epoch, which is what keeps
//     observer announcements and shard bookkeeping race-free without any
//     locking of their own. Ring slots are allocated once at pool
//     construction; only a burst deeper than the ring spills into a
//     per-worker overflow vector (counted by spills(), so executors can fold
//     queue growth into their rounds_with_allocation accounting). A
//     steady-state epoch allocates nothing anywhere in the pool.
//   * work stealing: a worker pops its own queue from the front; when empty
//     it steals from the back of the fullest victim (classic owner-LIFO /
//     thief-FIFO discipline at whole-task granularity). The executing
//     worker's id is passed to the task so callers can track ownership
//     migration (the sharded backend's per-shard steal counters).
//   * epoch barrier: run_epoch_helping blocks the caller until every task
//     of the epoch has completed, the caller participating meanwhile — the
//     coordinating thread drains queued tasks alongside the workers (as
//     pseudo-worker id worker_count()) instead of parking across the
//     barrier, shaving the park/wake round-trip on low-core hosts. launch()
//     releases without blocking and wait_idle() is the pool-wide quiesce
//     point — together they host long-running continuation tasks (the
//     free-running executor's shard loops) that park and unpark on their own
//     synchronization without ever ending a pool epoch.
//   * workers park on a condition variable between epochs (the portable
//     equivalent of futex parking) — an idle pool costs no CPU, and waking
//     it is microseconds instead of the ~100µs-per-thread spawn cost it
//     replaces.
//   * graceful shutdown: the destructor wakes all workers and joins them.
//     Tasks still queued but never released are discarded — but a RELEASED
//     task always runs to completion first, so an owner of long-running
//     tasks must quiesce them (signal + wait_idle) before destroying or
//     resizing the pool, or the join would wait on them forever.
//
// Memory model: everything a task writes is visible to the coordinating
// thread after run_epoch_helping / wait_idle returns (the barrier is a full
// happens-before edge through the pool mutex), so executors read worker
// results without further synchronization.
//
// Tasks must not throw (an escaping exception terminates the process, same
// as an exception escaping any detached thread) and must not call back into
// the pool. submit() during an epoch is allowed only from the coordinating
// thread and defers the task to the next release.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcam::estelle {

class WorkerPool {
 public:
  /// Task body; the argument is the id of the worker executing it (not
  /// necessarily the one it was submitted to — stealing moves tasks, and a
  /// helping coordinator executes as pseudo-worker worker_count()).
  using Task = std::function<void(int)>;

  /// Fixed ring slots per worker queue; bursts deeper than this spill.
  static constexpr std::size_t kRingSlots = 64;

  /// Start `workers` (min 1) parked threads.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int worker_count() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Queue a task on worker `worker % worker_count()`'s ring. The task does
  /// not run until the next launch()/run_epoch_helping().
  void submit(int worker, Task task);

  /// Release every queued task to the workers and block until all complete,
  /// the calling thread helping drain the queues instead of parking across
  /// the barrier (it executes tasks as pseudo-worker id worker_count(), whose
  /// counters are the extra trailing entry of worker_stats()). Returns the
  /// number of tasks executed this epoch (0 ⇒ nothing queued, workers were
  /// not woken).
  std::size_t run_epoch_helping();

  /// Release every queued task and return immediately; the caller regains
  /// the thread while the tasks run. Pair with wait_idle(). Returns the
  /// number of tasks released (0 ⇒ nothing queued, workers not woken).
  std::size_t launch();

  /// Block until every released task has completed — the pool-wide quiesce
  /// point. A released long-running task must have been signalled to finish
  /// by its owner first; wait_idle() itself only waits.
  void wait_idle();

  /// Epochs run so far (diagnostics; lets tests prove pool reuse).
  [[nodiscard]] std::uint64_t epochs() const;

  /// Tasks queued but not yet released.
  [[nodiscard]] std::size_t pending() const;

  /// Tasks that overflowed a worker's fixed ring into the spill vector,
  /// cumulative. A steady-state epoch keeps this flat; executors fold growth
  /// into their allocation accounting.
  [[nodiscard]] std::uint64_t spills() const;

  /// Per-worker execution/steal counters, cumulative over the pool's life.
  /// The final extra entry belongs to the helping coordinator
  /// (run_epoch_helping's pseudo-worker).
  struct WorkerStats {
    std::uint64_t executed = 0;  // tasks this worker ran
    std::uint64_t stolen = 0;    // of those, taken from another queue
  };
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

 private:
  /// Fixed-slot FIFO ring with an overflow vector used only past high-water.
  /// FIFO order is preserved across the spill boundary: once anything has
  /// spilled, later pushes spill too until the spill drains.
  struct TaskQueue {
    std::vector<Task> ring;  // kRingSlots, allocated at pool construction
    std::size_t head = 0;    // ring pop index
    std::size_t count = 0;   // live ring entries
    std::vector<Task> spill;
    std::size_t spill_head = 0;

    [[nodiscard]] std::size_t size() const noexcept {
      return count + (spill.size() - spill_head);
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    /// Returns true when the push spilled past the ring.
    bool push_back(Task t);
    Task pop_front();
    Task pop_back();
  };

  void worker_main(int w);
  /// Shared drain loop: pop own queue (front) or steal from the fullest
  /// victim (back); `self` == queues_.size() for the helping coordinator
  /// (no own queue, always steals). Expects `lock` held; returns with it
  /// held, when no task is poppable (remaining work is in flight).
  void drain_queues(std::size_t self, std::unique_lock<std::mutex>& lock);
  std::size_t launch_locked();

  /// One mutex guards the queues, counters and stats. The granularity is
  /// one acquisition per task plus one per park/wake — tasks are whole
  /// shard rounds or transition firings, so the lock is not the bottleneck
  /// (and it is what makes the epoch barrier a happens-before edge).
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers park here between epochs
  std::condition_variable done_cv_;  // the coordinator parks here during one
  std::vector<TaskQueue> queues_;
  std::vector<WorkerStats> stats_;   // workers_ + 1 (helping coordinator)
  std::vector<std::thread> threads_;
  std::uint64_t epoch_ = 0;        // bumped at each release
  std::uint64_t epochs_run_ = 0;   // releases that actually freed tasks
  std::uint64_t spills_ = 0;       // cumulative ring overflows
  std::size_t outstanding_ = 0;    // released tasks not yet completed
  bool stop_ = false;
};

}  // namespace mcam::estelle
