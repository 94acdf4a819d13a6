// The two virtual-time Executor backends.
//
// All honor the Estelle scheduling semantics of §4 of the paper:
//
//   * parent precedence — a child may execute only if no ancestor up to its
//     system module has a fireable transition; parent and child never run in
//     the same step;
//   * children of process-like parents may fire in parallel (one transition
//     per module per step);
//   * children of activity-like parents are mutually exclusive — at most one
//     transition fires in the whole child forest per step;
//   * system modules are mutually independent and asynchronous.
//
// Backends (construct them through make_executor, not by type — this header
// is an implementation detail of src/estelle/):
//   SequentialScheduler   — ExecutorKind::Sequential. Single processor,
//                           virtual time; the baseline of every speedup
//                           measurement.
//   ParallelSimScheduler  — ExecutorKind::ParallelSim. Maps modules to units
//                           (OSF/1 threads) and units to simulated processors
//                           via sim::Engine; reproduces the KSR1 experiments
//                           (§5.1, §5.2). Its engine is the full tree scan
//                           below.
//
// The shard backends are FreeRunningExecutor (free_executor.hpp) and
// DistributedRunner (transport/dist_runner.hpp), both built on
// ShardedExecutor's barrier-round engine (shard_executor.hpp). Outside
// ParallelSim, the tree scan serves only as the verify_ready_set oracle
// (ready_set.hpp).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/ready_set.hpp"
#include "sim/engine.hpp"

namespace mcam::estelle {

/// The sequential cost model, which the barrier rounds also charge on each
/// shard's clock so virtual speedups compare: scheduling time per fired
/// transition, and scan time per guard the ready set examined.
inline constexpr SimTime kSchedPerTransition = SimTime::from_us(3);
inline constexpr SimTime kScanPerGuard = SimTime::from_us(1);

/// Compute the firing set of one system-module subtree at time `now`,
/// honoring parent precedence and process/activity semantics. Also returns
/// (via scan_effort) the number of guards evaluated, which models the
/// scheduler's selection work.
std::vector<FiringCandidate> collect_firing_set(Module& system_module,
                                                SimTime now,
                                                int* scan_effort = nullptr);

/// Fire one candidate: announce it to `observer` (if any), consume the
/// matched interaction (if any), run the action, apply the to-state, stamp
/// the state-entry time. Every firing marks the module ready (the pop, the
/// state change, or an explicit mark when neither happens).
void fire(const FiringCandidate& c, SimTime now,
          RunObserver* observer = nullptr);

/// Single-processor executor with virtual time. Models the classic
/// centralized Estelle scheduler: each step evaluates the dirty-set ready
/// modules of every system module's scope (cost kScanPerGuard per examined
/// guard) and executes one firing set member at a time.
class SequentialScheduler : public ExecutorBase {
 public:
  /// Backends configure themselves straight from ExecutorConfig (the single
  /// source of defaults), reading the fields they understand; `kind` is
  /// ignored — constructing the type IS the kind selection.
  explicit SequentialScheduler(Specification& spec,
                               const ExecutorConfig& cfg = {});

  [[nodiscard]] ExecutorKind kind() const noexcept override {
    return ExecutorKind::Sequential;
  }

 private:
  bool step() override;  // one round; returns false when quiescent

  std::vector<FiringCandidate> firing_;  // the round's firing set
  bool verify_;
};

/// Parallel executor over the simulated multiprocessor. Round-based: each
/// round the firing set is computed from a consistent snapshot and its
/// members execute on their units in parallel (subject to processor
/// availability, context-switch and message costs). The per-round barrier is
/// a conservative approximation of free-running OSF/1 threads; it slightly
/// understates overlap, so measured speedups are lower bounds. Each round's
/// firing set comes from a full tree scan (collect_firing_set per system
/// module) — the scan is this backend's engine, not an optimization target.
class ParallelSimScheduler : public ExecutorBase {
 public:
  explicit ParallelSimScheduler(Specification& spec,
                                const ExecutorConfig& cfg = {});

  [[nodiscard]] ExecutorKind kind() const noexcept override {
    return ExecutorKind::ParallelSim;
  }
  [[nodiscard]] int unit_count() const noexcept override {
    return engine_.task_count();
  }

 private:
  int unit_of(Module& m);
  bool step() override;
  void finalize_stats() override;
  /// Firing set across all system modules at now(), parent precedence and
  /// process/activity semantics applied.
  [[nodiscard]] std::vector<FiringCandidate> collect_candidates();
  /// Advance the clock to the earliest delay-transition wakeup — clamped to
  /// the active run's earliest deadline so an idle jump never overshoots a
  /// requested StopCondition::deadline(); false if there is no wakeup (the
  /// world is quiescent).
  bool advance_to_wakeup();

  int processors_;
  Mapping mapping_;
  sim::Engine engine_;
  std::unordered_map<std::uint64_t, int> unit_by_module_;
};

}  // namespace mcam::estelle
