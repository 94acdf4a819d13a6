// ExecutorKind::Sharded — the sharded runtime.
//
// The paper's scaling argument (§3, §5): an Estelle server spreads over a
// multiprocessor because its *system modules* are mutually independent and
// asynchronous (§4). This backend makes that structural: ConflictAnalysis
// assigns one shard per system-module subtree, and each shard executes its
// own rounds with its own virtual clock, synchronizing with other shards
// only through the two-phase transfer mailboxes (interaction.hpp). The
// per-round barrier keeps observer announcements and stop-condition checks
// in one place and gives idle shards a group clock to follow. Real threads
// come from FreeRunning (free_executor.hpp), which runs the same shards
// without the barrier, and processes from Distributed
// (transport/dist_runner.hpp).
//
// One step() = one *barrier round* r (barrier_round; the round counter is
// monotone across runs, so a transfer's stamp always names the round that
// sent it), all on the calling thread:
//   1. every shard drains its cross-shard mailboxes up to round r-1
//      (raising its clock to the arrival watermark: a message sent at
//      sender-time t is never processed at receiver-time < t) and collects
//      its firing set (begin_round). An idle shard follows the group clock:
//      below it, the shard is raised to it and collects again, so its delay
//      clauses mature interleaved with the busy shards' work;
//   2. the shards that fire run their rounds (fire_round) in shard id order;
//   3. each shard's round revalidates every candidate with is_fireable()
//      (the sequential discipline: an earlier same-round firing may have
//      consumed state) and logs what actually fired, at its actual
//      shard-clock fire time; outputs to other shards park in their
//      mailboxes stamped r, visible from round r+1 on;
//   4. the *revalidated* firings are then announced to observers in shard
//      id order then firing order (announce-after-revalidation). The
//      announced trace therefore matches the sequential scheduler even on
//      specifications that are ill-formed within one shard. The price: under
//      this backend on_fire is delivered after the round executed, so
//      Module::state() seen from the hook is the post-round state, not the
//      from-state (trace recorders that only read the transition and
//      timestamp are unaffected);
//   5. aggregate stats; the executor clock becomes the max shard clock
//      (virtual makespan).
//
// An action that throws ends the round the way it ends a sequential one:
// no later shard fires, the firings that ran (the throwing one included)
// are announced and counted, and the exception leaves run().
//
// Delay clauses use shard-local time under the safe-time rule of
// conservative simulation (Chandy & Misra 1979): the group leaps to its
// earliest delay deadline (clamped to the run's deadline) only in a round
// where no shard fires; an idle shard never runs ahead of the group clock to
// a deadline of its own. Quiescence is a round with nothing to fire and no
// deadline queued.
//
// A specification that ConflictAnalysis does NOT prove conflict-free runs
// exactly the same way: sharded, mailbox-routed, serialized.
// RunReport::shards carries per-shard fired / rounds / clock.
//
// The same barrier round runs FreeRunning's fallback and each
// DistributedRunner node round; FreeRunning's own shard loop runs the two
// halves (begin_round / fire_round) without the barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/ready_set.hpp"

namespace mcam::estelle {

class ShardedExecutor : public ExecutorBase {
 public:
  /// Reads sched_per_transition and scan_per_guard (the shard-local cost
  /// model, same vocabulary as the sequential backend so virtual speedups
  /// are comparable), verify_ready_set and max_steps.
  explicit ShardedExecutor(Specification& spec, const ExecutorConfig& cfg = {});

  [[nodiscard]] ExecutorKind kind() const noexcept override {
    return ExecutorKind::Sharded;
  }

  /// The analysis driving shard assignment (built on first use).
  [[nodiscard]] const ConflictAnalysis* analysis() const noexcept {
    return analysis_.get();
  }

 protected:
  /// One revalidated firing of a shard round, logged while the round runs
  /// and replayed to observers once every firing shard has run
  /// (announce-after-revalidation).
  struct FiredEvent {
    FiringCandidate candidate;
    SimTime at{};
  };

  /// Stat deltas of one shard round. Written only by the thread running the
  /// round, with no shared-counter writes; the caller folds them into
  /// SchedulerStats / its slot counters and the shard's own fired / rounds
  /// at a point where it owns them.
  struct RoundDelta {
    std::uint64_t rounds = 0;  // 1 when the round fired (stats_.rounds)
    std::uint64_t fired = 0;
    std::uint64_t guards = 0;  // every collect of the round
    std::uint64_t cands = 0;
    std::uint64_t alloc_rounds = 0;
    SimTime busy{};
    SimTime sched{};
  };

  struct ShardState {
    SimTime clock{};
    std::uint64_t fired = 0;
    std::uint64_t rounds = 0;
    /// The shard's event-driven scheduling state — persistent ready set,
    /// fireable cache, delay-deadline heap, candidate buffer.
    ReadyScope ready;
    /// The shard's endpoints of cross-shard channels: the only interaction
    /// points a transfer can park on. Rebuilt with every reseed.
    std::vector<InteractionPoint*> boundary;
    // Per-round scratch, written by whichever thread runs the round:
    RoundDelta delta;
    std::vector<FiredEvent> fired_log;
  };

  /// Per-firing tap with the (round, shard) coordinates that
  /// RunObserver::on_fire does not carry (DistOptions::trace_hook).
  using FiringTap = std::function<void(std::uint64_t round, int shard,
                                       Module& m, const Transition& t,
                                       SimTime at)>;

  /// First half of shard `s`'s round r: drain the boundary mailboxes up to
  /// round r-1 (watermark rule; `min_future`, when non-null, is lowered to
  /// the earliest later-stamped arrival left parked) and collect. When
  /// nothing fires and the clock is below `floor`, raise it to `floor` and
  /// collect again. Resets and fills shard.delta; returns true when the
  /// collected firing set is non-empty. The caller owns the shard and should
  /// hold a LocalReadyScopeBinding for it, so the drain's marks reach its
  /// scope.
  bool begin_round(int s, std::uint64_t r, SimTime floor,
                   std::uint64_t* min_future);
  /// Second half: execute the collected firing set under a
  /// ShardExecutionScope stamped (s, clock, r) with the sequential cost
  /// arithmetic — scan cost for every guard the round's collects examined,
  /// then per-firing scheduling and execution costs — revalidating each
  /// candidate. When `announce`, `log(candidate, fire_time)` is called for
  /// every actual firing, before its action runs. shard.delta counts what
  /// fired; the caller folds it into the shard's fired / rounds. Defined in
  /// shard_round.hpp.
  template <typename LogFn>
  void fire_round(int s, std::uint64_t r, bool announce, LogFn&& log);
  /// One barrier round r over the shards `ids` (ascending), on this thread:
  /// begin_round for each with the group clock as floor, then fire_round
  /// for those that fire, in id order; the firings replay in shard id order
  /// to `tap` and the run's observers, and the deltas fold into stats_. When
  /// nothing fires, the group leaps to its earliest delay deadline. Returns
  /// false when quiescent: nothing fired and no deadline is queued. An
  /// action that throws stops the firing; what ran is replayed and folded
  /// before the exception propagates.
  bool barrier_round(std::uint64_t r, const std::vector<int>& ids,
                     const FiringTap& tap);

  bool step() override;
  void decorate_report(RunReport& report) override;

  void ensure_analysis();
  /// Claim the ready ledger and bring every shard's scope up to date:
  /// reseed wholesale when invalidated, else route queued marks to their
  /// shards (the single statement of the invalidation rules, shared by the
  /// barrier and free-running paths).
  void route_ready_ledger();
  /// Full reseed of every shard's ready scope and boundary list (first
  /// round, topology change, or ledger-consumer handoff).
  void reseed_ready();

  SimTime sched_per_transition_;
  SimTime scan_per_guard_;
  bool verify_;
  std::unique_ptr<ConflictAnalysis> analysis_;
  std::vector<ShardState> shards_;
  std::vector<int> shard_ids_;  // 0..n-1: step()'s round membership
  /// Last round step() ran. FreeRunning lifts it past a session's rounds, so
  /// transfers a session left parked drain in the next barrier round.
  std::uint64_t barrier_rounds_ = 0;
  std::uint64_t seen_version_ = ~0ull;
  bool seeded_ = false;
  std::size_t ledger_capacity_seen_ = 0;  // allocation accounting
};

}  // namespace mcam::estelle
