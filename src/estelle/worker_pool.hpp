// Persistent worker threads for the free-running executor's shard
// continuations.
//
// FreeRunning (free_executor.hpp) runs every shard as ONE long-lived
// continuation task that loops rounds, parks and unparks on its own
// synchronization, and returns only when the session ends. A WorkerPool is
// the fixed set of threads those continuations run on: the executor builds
// it once, one worker per shard, and re-arms it at every session start
// instead of spawning threads per run.
//
//   * launch(task) runs task(w) exactly once on every worker w and returns
//     at once; the caller regains its thread while the tasks run. One launch
//     is one epoch (epochs() counts them).
//   * wait_idle() blocks until every task of the last launch has returned —
//     the pool-wide quiesce point. A long-running task must have been told
//     to finish by its owner first; wait_idle() itself only waits.
//   * workers park on a condition variable between launches, so an idle
//     pool costs no CPU.
//   * the destructor waits for the running launch, then wakes and joins the
//     workers; an owner of long-running tasks must therefore signal them to
//     finish before destroying the pool.
//
// Memory model: everything a task writes is visible to the caller after
// wait_idle() returns (the completion count is a happens-before edge
// through the pool mutex), and everything the caller wrote before launch()
// is visible to the tasks.
//
// Tasks must not throw (an escaping exception terminates the process, as
// from any thread) and must not call back into the pool. A launch while the
// previous one is still running first waits for it to finish.
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
  /// Task body; the argument is the id of the worker running it,
  /// 0..worker_count()-1.
  using Task = std::function<void(int)>;

  /// Start `workers` parked threads (none when `workers` <= 0; a launch
  /// then runs nothing).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int worker_count() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Run `task(w)` once on every worker w, without waiting for it. Pair
  /// with wait_idle().
  void launch(Task task);

  /// Block until every task of the last launch has returned.
  void wait_idle();

  /// Launches so far (diagnostics; lets tests prove pool reuse).
  [[nodiscard]] std::uint64_t epochs() const;

 private:
  void worker_main(int w);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers park here between launches
  std::condition_variable done_cv_;  // wait_idle parks here
  std::vector<std::thread> threads_;
  Task task_;
  std::uint64_t epoch_ = 0;  // bumped at each launch
  int running_ = 0;          // workers still inside the current task
  bool stop_ = false;
};

}  // namespace mcam::estelle
