// fire_round — the second half of the one per-shard round engine.
//
// Every shard-based backend runs the same round, split in two halves
// (ShardedExecutor, shard_executor.hpp):
//   * begin_round: accept every transfer stamped <= r-1 (raising the clock
//     to the arrival watermark) and collect the firing set from the
//     shard's ReadyScope, the specification's scope of the same index; an
//     idle shard below a given floor is raised to it and collects again;
//   * fire_round (here): run the revalidated firing set under a
//     round-stamped ShardExecutionScope with the sequential cost arithmetic.
// barrier_round runs both halves for a group of shards under one barrier —
// FreeRunning's barrier rounds (its fallback) and every DistributedRunner
// node round. FreeRunning's free shard loop (free_executor.cpp) runs them at
// the shard's own clock and leaps an idle shard to its own next delay
// deadline.
// One definition is what guarantees the dispatch styles cannot drift apart:
// any divergence would instantly break the differential suites that pin
// them all against the sequential scheduler.
//
// Thread contract: the caller owns shard `s` for the duration of the call
// (barrier rounds: the run thread; free-running: the shard's continuation
// task on its own worker thread). The boundary mailboxes are striped-mutex
// thread-safe, so concurrent inject_transfer from other threads (a sibling
// free-running shard) is fine — the <= r-1 drain filter keeps later-stamped
// arrivals parked. The executing thread should hold a
// LocalReadyScopeBinding for the shard so dirty marks produced by firings
// route lock-free into its own scope.
//
// Announcement contract: `log` fires only when `announce`, in firing order,
// with the actual (revalidated) candidate and its actual shard-clock fire
// time, before the action runs; fire() itself runs with a null observer.
// Callers replay their logs to observers later, in global (round, shard id)
// order — the announce-after-revalidation discipline shared by every
// shard-based backend. A throwing action leaves its firing logged but not
// counted in shard.delta, as the sequential scheduler announces it but does
// not count it.
#pragma once

#include <cstdint>
#include <vector>

#include "estelle/interaction.hpp"
#include "estelle/ready_set.hpp"
#include "estelle/sched.hpp"
#include "estelle/shard_executor.hpp"

namespace mcam::estelle {

template <typename LogFn>
void ShardedExecutor::fire_round(int s, std::uint64_t r, bool announce,
                                 LogFn&& log) {
  RoundDelta& delta = shards_[static_cast<std::size_t>(s)].delta;
  ReadyScope& ready = spec_.ready_set().scope(s);
  SimTime& clock = ready.clock();
  // Outputs to foreign shards detour into their mailboxes, stamped with
  // this round's number and start clock.
  ShardExecutionScope scope(s, clock, r);
  // Same virtual-cost arithmetic as the sequential scheduler: scan cost for
  // every guard this round's collects examined (both of them when the shard
  // was raised to the group clock), then per-firing scheduling and
  // execution costs.
  const std::vector<FiringCandidate>& cands = ready.candidates();
  const SimTime scan_cost{kScanPerGuard.ns *
                          static_cast<std::int64_t>(delta.guards)};
  clock += scan_cost;
  delta.sched += scan_cost;
  delta.cands += cands.size();
  for (const FiringCandidate& c : cands) {
    // The sequential revalidation discipline: an earlier firing of this
    // round (same shard, same thread) may have consumed the state.
    if (!is_fireable(*c.transition, *c.module, clock)) continue;
    clock += kSchedPerTransition;
    delta.sched += kSchedPerTransition;
    clock += c.transition->cost;
    delta.busy += c.transition->cost;
    if (announce) log(c, clock);
    fire(c, clock, nullptr);
    ++delta.fired;
  }
  delta.rounds = 1;
}

}  // namespace mcam::estelle
