// ExecutorKind::FreeRunning — barrier-free continuation dispatch from the
// ready ledger.
//
// The paper's scaling argument (§3–§5) is that system modules are mutually
// independent and asynchronous, so a multiprocessor server should let each
// module subtree run at its own pace. The Sharded backend
// (shard_executor.hpp) runs every round of every shard on the calling
// thread under one barrier. This backend is the one that runs shards on
// threads of their own, and it removes that global synchronization point:
//
//   * each shard becomes ONE long-lived continuation task on its own worker
//     of the executor's WorkerPool (worker_pool.hpp), which is built once,
//     one thread per shard, at the first session and re-armed at every
//     later one (the shard population is frozen, so it is never resized).
//     The task loops rounds locally (continuation_round: the shared
//     begin_round / fire_round halves at the shard's own clock, or a leap
//     to the shard's next delay deadline), with its dirty tracking bound to
//     the executing thread (LocalReadyScopeBinding), so a steady-state round
//     touches no lock, no ledger and no other thread.
//   * shards communicate only through the round-stamped transfer mailboxes.
//     A message output during global round k becomes visible to its
//     destination at round k+1 (InteractionPoint::drain_transfers_until) —
//     the barrier round's visibility rule enforced per message. A
//     conservative neighbor gate (a shard enters round r only once every
//     shard it shares a channel with has completed round r-1) keeps round
//     composition — and therefore the firing trace — identical to the
//     sequential scheduler's on conflict-free specifications, while
//     unrelated shards never wait for each other at all. An idle shard that
//     would stall its neighbors is advanced through its provably-empty
//     rounds by the run thread (the conservative-simulation null message:
//     a lower-bound fixpoint over the channel graph proves no message can
//     target them).
//   * a shard parks only when its ready scope is empty, no delay deadline
//     is queued and no inbound transfer is pending; the cross-shard wake
//     hook (CrossShardWakeSink, fired from InteractionPoint::deliver)
//     unparks it the moment a foreign shard sends to it — no coordinator
//     round in between.
//   * observer announcements move off the barrier onto a bounded per-shard
//     firing log (SPSC ring). The run thread merges the logs in global
//     (round, shard id) order up to the watermark round that every
//     still-active shard has passed — the merged stream equals the
//     sequential scheduler's announced trace on conflict-free specs. A full
//     ring back-pressures its shard (a park, counted in
//     FreeRunningStats::parks); unobserved runs skip logging entirely.
//   * stop conditions are evaluated on the run thread against the merged
//     round watermark, with a shard-quiesce handshake for exact cutoff:
//     max_steps releases shards up to exactly the budgeted round and waits
//     for the all-parked rendezvous; deadlines pin each shard's clock at
//     the run deadline; predicate stops pace the session to one round per
//     burst so the predicate sees a quiesced world between rounds, exactly
//     like the round-based loops (documented cost: predicates serialize).
//
// on_fire timing caveat (same as Sharded, amplified): announcements are
// replayed after execution, from the merge thread, so Module::state() seen
// from on_fire is whatever the shard has advanced to — read the transition
// and timestamp arguments, not live world state.
//
// Fallback: free-running dispatch requires the specification to be PROVEN
// conflict-free by ConflictAnalysis (guards on cross-shard queues or shared
// loss Rngs make un-barriered rounds unsound) and a worker width
// (ExecutorConfig::threads, or RunOptions::worker_count for one run) of at
// least one thread per shard. Anything else falls back to the Sharded step,
// one barrier round over every shard on the run thread — same shards, same
// mailboxes, same round engine, same announced trace, counted in
// FreeRunningStats::fallback_rounds. A fallback round first ends any live
// session (the continuations return to their parked workers), so a
// reentrant narrower run strands nothing. Ending a session lifts the
// barrier round counter past the session's rounds, so the transfers it left
// parked drain in the first barrier round, in their send order.
//
// Known gap: an idle free-running shard leaps to its OWN next delay
// deadline, while the barrier round only leaps the whole group when no
// shard fires (shard_executor.hpp). On a conflict-free spec whose timers
// race another shard's work, a timer can therefore fire here that the
// sequential scheduler never fires.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "estelle/interaction.hpp"
#include "estelle/shard_executor.hpp"
#include "estelle/worker_pool.hpp"

namespace mcam::estelle {

class FreeRunningExecutor final : public ShardedExecutor,
                                  private CrossShardWakeSink {
 public:
  explicit FreeRunningExecutor(Specification& spec,
                               const ExecutorConfig& cfg = {});
  ~FreeRunningExecutor() override;

  [[nodiscard]] ExecutorKind kind() const noexcept override {
    return ExecutorKind::FreeRunning;
  }
  /// The continuation threads: the pool's width once the first session has
  /// built it (one per shard), 1 before that.
  [[nodiscard]] int unit_count() const noexcept override;
  /// The continuation pool (null until the first session).
  [[nodiscard]] const WorkerPool* pool() const noexcept { return pool_.get(); }

  /// Lifetime continuation-dispatch counters (also published through
  /// RunReport::free_running).
  [[nodiscard]] const FreeRunningStats& free_running_stats() const noexcept {
    return free_stats_;
  }
  /// True while shard continuation tasks are live on the pool (between the
  /// first burst of a run and that run's end).
  [[nodiscard]] bool session_active() const noexcept { return session_active_; }

 protected:
  bool step() override;
  void finalize_stats() override;
  void decorate_report(RunReport& report) override;

 private:
  /// "No such round" sentinel for watermark/bound computations. A shard's
  /// advertised round is always finite — a passive shard keeps advertising
  /// its completed round so neighbors gate on it like on any laggard, which
  /// is what makes rewaking it sound (nobody has run ahead of the rounds a
  /// wake could resume it into).
  static constexpr std::uint64_t kPassiveRound = ~0ull;

  /// Why a shard continuation is not executing rounds right now. States are
  /// written under smu_; the run thread's all-blocked rendezvous scan reads
  /// them under the same lock, which is what makes merging logs and folding
  /// stats race-free without any barrier in the round hot path.
  enum class SlotState : std::uint8_t {
    Running,         ///< executing rounds (or about to re-check)
    GateWait,        ///< waiting for a neighbor to complete gate_need
    Passive,         ///< nothing to do until an external event
    LogFull,         ///< firing log back-pressure, waiting for the merger
    LimitParked,     ///< next round exceeds the released round limit
    DeadlineParked,  ///< shard clock pinned at the run deadline
  };

  /// One announced firing: what the shard's continuation round logs,
  /// replayed to observers by the run thread in global (round, shard) order.
  struct FiredEntry {
    FiringCandidate candidate;
    SimTime at{};
    std::uint64_t round = 0;
  };

  /// Per-shard continuation state. The firing log is a bounded SPSC ring:
  /// the owning shard produces, the run thread consumes; capacity is sized
  /// at session start to exceed any single round's firing set so a full
  /// ring always contains a drainable prefix of completed rounds.
  struct Slot {
    // Hot path (owner thread + lock-free readers):
    std::atomic<std::uint64_t> advertised{0};  // completed rounds, published
    std::uint64_t completed = 0;  // owner's copy; the null-message service or
                                  // a burst-boundary wake may raise it (under
                                  // smu_) while the shard is passive
    std::vector<FiredEntry> log;
    std::atomic<std::uint64_t> log_head{0};  // consumer (run thread)
    std::atomic<std::uint64_t> log_tail{0};  // producer (owner)
    std::uint64_t log_high_water = 0;
    /// Abort-only spill: entries produced while the session is stopping and
    /// the ring is full (the merger is gone); end_session's final merge
    /// drains it after the ring, so no announcement is dropped.
    std::vector<FiredEntry> log_overflow;

    // Session wiring (run thread writes while no task is live):
    std::vector<int> neighbors;  // shards sharing a channel

    // Coordination (guarded by smu_):
    SlotState state = SlotState::Running;
    int gate_target = -1;
    std::uint64_t gate_need = 0;
    bool wake_pending = false;
    std::condition_variable cv;

    // Burst accumulators (owner writes while running; the run thread folds
    // and zeroes them at rendezvous points, when the owner is parked):
    std::uint64_t rounds = 0;  // rounds that fired (stats_.rounds semantics)
    std::uint64_t fired = 0;
    std::uint64_t guards = 0;
    std::uint64_t cands = 0;
    std::uint64_t alloc_rounds = 0;
    std::uint64_t parks = 0;
    std::uint64_t wakes = 0;
    SimTime busy{};
    SimTime sched{};
  };

  // CrossShardWakeSink — called from the sending shard's worker thread.
  void on_cross_shard_delivery(int shard,
                               std::uint64_t sender_round) noexcept override;

  /// Free-running dispatch is sound and deadlock-free only when the spec is
  /// proven conflict-free and the run's worker width covers one continuation
  /// per shard.
  [[nodiscard]] bool free_runnable() const noexcept;

  void start_session();
  /// Stop and join the shard continuations, drain every remaining log entry
  /// to the observers and fold stats. Returns the global rounds folded.
  std::uint64_t end_session();
  /// Release rounds up to `limit` and service the session (merge logs, wake
  /// back-pressured shards) until the all-blocked rendezvous or a session
  /// abort. Returns the global rounds folded; 0 on abort (end_session then
  /// finishes the accounting).
  std::uint64_t run_burst(std::uint64_t limit);

  // Worker-side (shard continuation):
  void shard_main(int s);
  void shard_loop(int s, Slot& slot, ShardState& shard);
  /// One free-running round r of shard `s`: begin_round at the shard's own
  /// clock and fire_round when it fires; else leap the shard to its next
  /// delay deadline, clamped to the run deadline. Returns true when the
  /// round completed (fired or leapt), false when the shard has nothing to
  /// do. `min_future` as in begin_round.
  bool continuation_round(int s, Slot& slot, std::uint64_t r,
                          std::uint64_t* min_future);
  void complete_round(Slot& slot, std::uint64_t round);
  void log_push(Slot& slot, const FiredEntry& entry);
  bool gate_wait(Slot& slot, Slot& target, int target_id, std::uint64_t need);
  bool passive_park(Slot& slot, const ShardState& shard);
  template <typename Pred>
  bool park_until(Slot& slot, SlotState why, Pred ready);

  // Run-thread session service (all *_locked expect smu_ held):
  void route_ledger_locked();
  [[nodiscard]] bool all_blocked_locked() const;
  [[nodiscard]] bool all_passive_locked() const;
  /// Null-message service: advance stable-passive shards that gate-block a
  /// neighbor through rounds no message can ever target (a lower-bound
  /// fixpoint over the channel graph). Returns true when someone was bumped.
  bool resolve_idle_gates_locked();
  /// Merge firing logs up to the safe watermark and announce to observers.
  /// Assembles under `lock`, releases it for the observer callbacks (no
  /// executor lock is held across user code), reacquires to consume.
  std::uint64_t merge_logs(std::unique_lock<std::mutex>& lock,
                           bool session_end);
  bool wake_unfilled_logs_locked();
  std::uint64_t fold_locked();
  void wake_everyone_locked();

  int workers_;  // configured width; 0 ⇒ hardware_concurrency()
  std::unique_ptr<WorkerPool> pool_;  // one worker per shard, built once
  std::mutex smu_;                    // session coordination
  std::condition_variable run_cv_;    // run thread parks here
  std::condition_variable gate_cv_;   // neighbor-gate waiters park here
  std::atomic<std::uint32_t> gate_waiter_count_{0};
  std::vector<std::unique_ptr<Slot>> slots_;  // persistent across sessions
  bool session_active_ = false;
  bool stop_ = false;                 // session stop signal (under smu_,
                                      // mirrored by the atomic for lock-free
                                      // reads in wait predicates)
  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> topology_dirty_{false};
  std::atomic<std::uint64_t> round_limit_{0};
  std::atomic<std::int64_t> session_deadline_ns_{0};
  std::atomic<bool> free_announce_{false};
  std::uint64_t session_topology_version_ = 0;
  std::uint64_t session_base_rounds_ = 0;  // max completed already folded
  bool burst_all_passive_ = false;
  std::exception_ptr session_error_;
  FreeRunningStats free_stats_;
  std::size_t slot_footprint_seen_ = 0;  // allocation accounting
  // Persistent scratch of the null-message service and the announcement
  // merge (high-water sized).
  std::vector<std::uint64_t> gate_bound_scratch_;
  std::vector<char> gate_sleeper_scratch_;
  std::vector<FiredEntry> merge_scratch_;
  std::vector<std::uint64_t> merge_cursor_;
  std::vector<std::size_t> merge_ovf_cursor_;
};

}  // namespace mcam::estelle
