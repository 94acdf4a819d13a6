// ExecutorKind::Sharded — the work-stealing sharded runtime.
//
// The paper's scaling argument (§3, §5): an Estelle server spreads over a
// multiprocessor because its *system modules* are mutually independent and
// asynchronous (§4). This backend makes that structural: ConflictAnalysis
// assigns one shard per system-module subtree, and each shard executes its
// own rounds with its own virtual clock, synchronizing with other shards
// only through the two-phase transfer mailboxes (interaction.hpp). There is
// no global round barrier over candidates — the per-epoch barrier exists
// only to keep observer announcements and stop-condition checks on the
// coordinating thread.
//
// One step() = one *epoch*:
//   1. every shard drains its transfer mailboxes (raising its clock to the
//      arrival watermark: a message sent at sender-time t is never processed
//      at receiver-time < t) and collects its firing set at its local clock;
//   2. active shards are dealt to the persistent WorkerPool
//      (worker_pool.hpp). Workers own shards; an idle worker steals a whole
//      shard from the back of a victim's deque. Stealing whole shards
//      preserves per-module transition order by construction: a shard's
//      round is always executed by exactly one worker, serially. The pool
//      is built once (capped at the shard count) and reused across epochs
//      and run() calls — no thread is constructed inside step().
//   3. each shard's round revalidates every candidate with is_fireable()
//      (the sequential discipline: an earlier same-round firing may have
//      consumed state) and logs what actually fired, at its actual
//      shard-clock fire time;
//   4. epoch barrier; the *revalidated* firings are announced to observers
//      on the coordinating thread, in shard id order then firing order
//      (announce-after-revalidation). The announced trace therefore matches
//      the sequential scheduler even on specifications that are ill-formed
//      within one shard. The price: under this backend on_fire is delivered
//      after the round executed, so Module::state() seen from the hook is
//      the post-round state, not the from-state (trace recorders that only
//      read the transition and timestamp are unaffected);
//   5. aggregate stats; the executor clock becomes the max shard clock
//      (virtual makespan).
//
// Firing traces are deterministic and independent of both the worker count
// and steal timing: stealing moves a shard between threads, never reorders
// within a shard, and epoch membership is decided before workers start.
//
// Delay clauses use shard-local time. When every shard is idle, lagging
// clocks are first pulled up to the executor clock (system modules are
// asynchronous, so advancing an idle shard is always legal) and the epoch is
// retried; true quiescence additionally consults the global delay wakeup
// (deadline-clamped, as everywhere).
//
// On a specification that ConflictAnalysis does NOT prove conflict-free the
// pool degrades to one worker: still sharded, still mailbox-routed, but
// race-free by serialization. RunReport::shards carries per-shard fired /
// rounds / steals / clock.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/ready_set.hpp"
#include "estelle/worker_pool.hpp"

namespace mcam::estelle {

class ShardedExecutor : public ExecutorBase {
 public:
  /// Reads ExecutorConfig::threads (pool width, 0 ⇒ hardware_concurrency(),
  /// capped at the shard count; RunOptions::worker_count overrides per run),
  /// sched_per_transition and scan_per_guard (the shard-local cost model,
  /// same vocabulary as the sequential backend so virtual speedups are
  /// comparable), and max_steps.
  explicit ShardedExecutor(Specification& spec, const ExecutorConfig& cfg = {});

  [[nodiscard]] ExecutorKind kind() const noexcept override {
    return ExecutorKind::Sharded;
  }
  [[nodiscard]] int unit_count() const noexcept override;

  /// The analysis driving shard assignment (built on first use).
  [[nodiscard]] const ConflictAnalysis* analysis() const noexcept {
    return analysis_.get();
  }
  /// The persistent pool (null until the first parallel epoch).
  [[nodiscard]] const WorkerPool* pool() const noexcept { return pool_.get(); }

 protected:
  /// One revalidated firing of a shard round, logged by the executing worker
  /// and replayed to observers on the coordinating thread after the epoch
  /// barrier (announce-after-revalidation).
  struct FiredEvent {
    FiringCandidate candidate;
    SimTime at{};
  };

  /// Stat deltas of one continuation round (continuation_round below).
  /// Accumulated by the executing thread with no shared-counter writes; the
  /// caller folds them into SchedulerStats / its slot counters at a point
  /// where it owns them (after a pool quiesce, or inline).
  struct ContinuationDelta {
    std::uint64_t rounds = 0;  // rounds that fired (stats_.rounds semantics)
    std::uint64_t fired = 0;
    std::uint64_t guards = 0;
    std::uint64_t cands = 0;
    std::uint64_t alloc_rounds = 0;
    SimTime busy{};
    SimTime sched{};
  };

  struct ShardState {
    SimTime clock{};
    std::uint64_t fired = 0;
    std::uint64_t rounds = 0;
    std::uint64_t steals = 0;
    int owner = 0;  // worker that ran the shard last (steals move it)
    int home = 0;   // pool slot the shard was dealt to this epoch
    /// The shard's event-driven scheduling state — persistent ready set,
    /// fireable cache, delay-deadline heap, candidate buffer. It lives here
    /// (not on any worker), so whole-shard stealing moves it implicitly and
    /// intact. Written in phase 1 on the run thread; the owning worker only
    /// reads the collected candidate buffer (this epoch's firing set).
    ReadyScope ready;
    // Per-epoch scratch, written in phase 1 / by the owning worker only:
    std::vector<FiredEvent> fired_log;
    int scan_effort = 0;
    SimTime epoch_busy{};
    SimTime epoch_sched{};
    std::uint64_t epoch_fired = 0;
  };

  /// One FreeRunning-style continuation round for one shard: drain the
  /// boundary mailboxes up to round r-1 (watermark rule), pick the round
  /// action from the persistent ready scope, and on Fire execute the
  /// revalidated firing set under a ShardExecutionScope stamped
  /// (shard, clock, r). When `announce`, `log(candidate, fire_time)` is
  /// called for every actual firing — callers route it into their own
  /// announcement channel (the free-running SPSC ring, the distributed
  /// fired_log). `min_future`, when non-null, receives the earliest
  /// later-stamped parked arrival (kAllRounds when none) so an idle caller
  /// can leap to it. Defined in shard_round.hpp; shared by the free-running
  /// shard loop and the distributed node-parallel round so the dispatch
  /// semantics cannot diverge.
  template <typename LogFn>
  ReadyScope::RoundAction continuation_round(
      int shard_id, ShardState& shard,
      const std::vector<InteractionPoint*>& boundary, std::uint64_t r,
      SimTime deadline_cap, Module* system_module, bool announce,
      ContinuationDelta& delta, std::uint64_t* min_future, LogFn&& log);

  bool step() override;
  void decorate_report(RunReport& report) override;

  void ensure_analysis();
  /// Claim the ready ledger and bring every shard's scope up to date:
  /// reseed wholesale when invalidated, else route queued marks to their
  /// shards (the single statement of the invalidation rules, shared by the
  /// epoch and free-running paths).
  void route_ready_ledger();
  /// Full reseed of every shard's ready scope (first epoch, topology
  /// change, or ledger-consumer handoff).
  void reseed_ready();
  /// This run's effective pool width: RunOptions::worker_count when set,
  /// else the configured count, capped at the shard count (min 1).
  [[nodiscard]] int effective_workers() const noexcept;
  /// The pool at this run's effective width.
  WorkerPool& ensure_pool() { return ensure_pool_width(effective_workers()); }
  /// The pool at exactly `want` workers, quiescing any in-flight
  /// long-running work first (before_pool_resize) so a mid-run width change
  /// never strands a continuation inside the old pool's join.
  WorkerPool& ensure_pool_width(int want);
  /// Hook called before the persistent pool is torn down for a resize. The
  /// free-running subclass ends its continuation session here; the epoch
  /// path has nothing in flight between steps.
  virtual void before_pool_resize() {}
  /// Drain + collect for every shard; returns the number of active shards.
  std::size_t collect_epoch();
  /// Execute one shard's round (worker context; ShardExecutionScope active).
  void run_shard_round(ShardState& shard, int shard_id);

  int workers_;  // configured width; 0 ⇒ hardware_concurrency()
  /// True while the active run has observers: shard rounds then log their
  /// firings for the post-barrier replay. Set per epoch on the run thread.
  bool announce_ = false;
  SimTime sched_per_transition_;
  SimTime scan_per_guard_;
  bool verify_;
  std::unique_ptr<ConflictAnalysis> analysis_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<ShardState> shards_;
  std::vector<int> active_ids_;  // persistent epoch scratch
  std::uint64_t seen_version_ = ~0ull;
  bool seeded_ = false;
  std::size_t ledger_capacity_seen_ = 0;  // allocation accounting
};

}  // namespace mcam::estelle
