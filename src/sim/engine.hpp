// Deterministic simulated multiprocessor.
//
// The paper measures protocol speedup on a 32-processor KSR1 under OSF/1.
// That hardware is unavailable, so (per DESIGN.md §2) we reproduce the
// *shape* of its results with a discrete-event model:
//
//   * P processors, each serving the tasks (≈ OSF/1 threads) mapped to it;
//   * tasks execute work items (≈ Estelle transition firings) sequentially,
//     in ready-time order;
//   * a context-switch penalty is charged when a processor switches between
//     tasks — this is the "synchronization loss" §5.2 attributes to
//     thread-per-module mapping when modules outnumber processors;
//   * an inter-task message penalty (lock + queue hand-off) is charged when
//     a work item was posted by a different task;
//   * scheduler overhead is charged per work item, either through a single
//     serialized scheduler resource (the centralized Estelle scheduler whose
//     runtime share §5.2 measured at up to 80%) or on the executing
//     processor itself (our decentralized scheduler).
//
// The engine is generic: the Estelle runtime maps module firings onto it,
// and the ASN.1/MTP benches use it directly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace mcam::sim {

using common::SimTime;

/// Cost parameters. Magnitudes follow early-90s multiprocessor folklore:
/// tens of microseconds for a context switch, microseconds for lock
/// hand-off, a few microseconds of scheduler bookkeeping per transition.
struct CostModel {
  SimTime ctx_switch = SimTime::from_us(25);
  SimTime inter_task_msg = SimTime::from_us(5);
  SimTime sched_per_item = SimTime::from_us(3);
  /// true: scheduler bookkeeping serializes through one shared resource
  /// (the classic centralized Estelle scheduler); false: charged on the
  /// executing processor (decentralized scheduler, parallelizes).
  bool centralized_scheduler = false;
};

/// Aggregate counters reported by Engine::run().
struct RunStats {
  SimTime makespan{};
  SimTime busy{};          // sum of work-item payload time over processors
  SimTime sched_time{};    // scheduler bookkeeping time
  SimTime switch_time{};   // context-switch time
  SimTime msg_time{};      // inter-task message overhead
  std::uint64_t items = 0;
  std::uint64_t switches = 0;
  std::uint64_t cross_task_msgs = 0;

  /// Fraction of total processor-time spent in the scheduler — the §5.2
  /// "runtime percentage of the scheduler" metric.
  [[nodiscard]] double scheduler_share() const noexcept {
    const double total =
        static_cast<double>(busy.ns + sched_time.ns + switch_time.ns + msg_time.ns);
    return total == 0.0 ? 0.0 : static_cast<double>(sched_time.ns) / total;
  }
};

class Engine;

/// Handed to a work item's body; lets it post follow-up work.
class Context {
 public:
  Context(Engine& engine, int current_task, SimTime now)
      : engine_(engine), task_(current_task), now_(now) {}

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] int current_task() const noexcept { return task_; }

  /// Post a work item to `task`, becoming ready `delay` after now. Posting
  /// to a different task incurs the inter-task message cost.
  void post(int task, SimTime cost, std::function<void(Context&)> fn,
            SimTime delay = {});

 private:
  Engine& engine_;
  int task_;
  SimTime now_;
};

/// Discrete-event multiprocessor engine. Deterministic: ties are broken by
/// (ready time, task id, FIFO order).
class Engine {
 public:
  explicit Engine(int processors, CostModel model = {});

  /// Create a task bound to `processor` (-1 ⇒ round-robin assignment).
  int add_task(std::string name, int processor = -1);

  [[nodiscard]] int processors() const noexcept {
    return static_cast<int>(procs_.size());
  }
  [[nodiscard]] int task_count() const noexcept {
    return static_cast<int>(tasks_.size());
  }

  /// Post initial work from outside any task (no message cost charged).
  void post_external(int task, SimTime cost, std::function<void(Context&)> fn,
                     SimTime ready = {});

  /// Run to quiescence; returns cumulative statistics (across run() calls —
  /// round-based schedulers call run() repeatedly and read the final total).
  RunStats run();

  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RunStats{}; }

 private:
  friend class Context;

  struct WorkItem {
    SimTime ready{};
    SimTime cost{};
    std::function<void(Context&)> fn;
    bool cross_task = false;
    std::uint64_t seq = 0;  // FIFO tie-break
  };

  struct Task {
    std::string name;
    int processor = 0;
    std::deque<WorkItem> queue;
  };

  struct Processor {
    SimTime free_at{};
    int last_task = -1;
  };

  void post_internal(int from_task, int to_task, SimTime ready, SimTime cost,
                     std::function<void(Context&)> fn);

  CostModel model_;
  std::vector<Task> tasks_;
  std::vector<Processor> procs_;
  SimTime scheduler_free_at_{};  // centralized-scheduler resource
  std::uint64_t next_seq_ = 0;
  int rr_next_ = 0;
  RunStats stats_;
};

}  // namespace mcam::sim
