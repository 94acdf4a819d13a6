// Event-driven dirty-set scheduling (the allocation-free round hot path).
//
// A full tree scan (collect_firing_set, sched.hpp) walks the entire module
// tree and calls select_fireable on every module — O(modules × transitions)
// per round even when one module is active, plus a fresh candidate vector
// per round. On the sparse-activity workloads typical of real protocol
// stacks (most entities idle, few active) that evaluation cost dominates
// everything else in the round. Every backend except
// ParallelSim (whose engine is the scan) collects from this header instead:
//
//   * ReadyLedger (module.hpp) — modules enqueue themselves when something
//     that can change their fireability happens: a delivery creating a new
//     queue head (InteractionPoint::deliver / drain_transfers), a head
//     consumed (pop/clear), a state change or firing, a transition
//     registered. The executor drains the ledger at round boundaries.
//   * ReadyScope — one scheduling domain's persistent state: the ready list
//     (modules to re-evaluate), the fireable cache F (modules whose last
//     evaluation selected a transition), a min-heap of delay deadlines
//     (state_entered_at + delay), and the reusable candidate buffer. One
//     scope spans the whole specification under Sequential; the shard-based
//     backends keep one per shard (ready sets and heaps live in
//     ShardState).
//   * collect(now) — pops matured deadlines, re-evaluates exactly the ready
//     modules, then rebuilds the round's candidates from F alone: sort by
//     document-order DFS index, drop candidates with a fireable ancestor
//     (parent precedence), and let the first candidate under each
//     activity-like parent claim the subtree (activity exclusion). All
//     buffers are persistent and sized by high-water mark — a steady-state
//     round performs zero heap allocations (rounds_with_allocation counts
//     the exceptions).
//
// Exactness. The candidate list equals a full-tree scan's, every round, by
// construction of the dirty hooks plus two conservative rules:
//   * guard stickiness — a module whose evaluation invoked any `provided`
//     guard stays in the ready set (guards are opaque and may read state the
//     runtime cannot hook, e.g. a budget shared across modules in the
//     deliberately ill-formed differential specs);
//   * deadline mirroring — an immature delay contributes a heap entry only
//     while its guard passes, matching ParallelSim's tree-scan wakeup;
//     guard flips are caught by stickiness.
// ExecutorConfig::verify_ready_set cross-checks the equality against the
// reference full scan every round (differential tests run with it on), and
// bench_hot_path times that scan as its baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle {

/// Persistent per-domain scheduling state; see the header comment. Not
/// thread-safe: one thread drives a scope at a time (the run thread under
/// Sequential; under the shard-based backends, whichever thread currently
/// runs the shard).
class ReadyScope {
 public:
  /// Enqueue `m` for re-evaluation at the next collect (idempotent).
  void mark(Module& m);

  /// Bring the scope up to date at `now` and return the round's candidates
  /// (document order, tree rules applied). The returned buffer is owned by
  /// the scope and valid until the next collect.
  const std::vector<FiringCandidate>& collect(common::SimTime now);

  [[nodiscard]] const std::vector<FiringCandidate>& candidates()
      const noexcept {
    return candidates_;
  }

  /// Earliest queued delay deadline (kNeverTime if none). Entries can be
  /// stale — waking at one merely triggers a re-evaluation that finds
  /// nothing, never a wrong firing.
  [[nodiscard]] common::SimTime next_deadline() const noexcept;

  /// True when modules are queued for re-evaluation (includes sticky-guard
  /// modules, whose opaque guards may read state no hook can see — a parked
  /// free-running shard with such modules must be re-examined whenever
  /// between-round code may have run).
  [[nodiscard]] bool has_ready() const noexcept { return !ready_.empty(); }

  /// Guards examined by the last collect() (its select_fireable scan work).
  [[nodiscard]] std::uint64_t round_guards() const noexcept {
    return round_guards_;
  }
  /// True when the last collect() grew any persistent buffer.
  [[nodiscard]] bool round_allocated() const noexcept {
    return round_allocated_;
  }

  /// Drop all state without dereferencing stored module pointers (a
  /// topology change may have destroyed some). The caller resets the
  /// surviving modules' intrusive fields via reset_module.
  void clear() noexcept;

  /// Reset `m`'s intrusive scheduling fields and stamp its document-order
  /// DFS index — the per-module half of a reseed.
  static void reset_module(Module& m, std::uint32_t preorder) noexcept;

 private:
  struct Deadline {
    common::SimTime at{};
    Module* module = nullptr;
  };

  void pop_matured(common::SimTime now);
  void evaluate(common::SimTime now);
  void build_candidates();
  void set_fireable(Module& m, const Transition* t);
  void push_deadline(Module& m, common::SimTime at);
  [[nodiscard]] std::size_t footprint() const noexcept;

  std::vector<Module*> ready_;     // to re-evaluate (intrusive dedup)
  std::vector<Module*> fireable_;  // F: cached_fireable_ != nullptr (slots)
  std::vector<Deadline> heap_;     // min-heap of delay deadlines
  std::vector<Module*> order_;     // scratch: F sorted by preorder
  std::vector<FiringCandidate> candidates_;
  std::uint64_t round_guards_ = 0;
  bool round_allocated_ = false;
};

/// Whole-specification ready-set driver of the Sequential backend: one scope
/// spanning every system module, plus the reseed policy — the scope is
/// rebuilt from a full tree walk whenever the topology version moved
/// (modules or channels added/removed: new transitions must not be skipped,
/// destroyed modules must not be touched) or another consumer drained the
/// ledger since we last did.
class SpecReadySet {
 public:
  explicit SpecReadySet(Specification& spec) : spec_(spec) {}

  /// Candidates at `now` (see ReadyScope::collect). Applies reseeds and
  /// drains the specification's ready ledger first.
  const std::vector<FiringCandidate>& collect(common::SimTime now);

  [[nodiscard]] common::SimTime next_wakeup() const noexcept {
    return scope_.next_deadline();
  }
  [[nodiscard]] std::uint64_t round_guards() const noexcept {
    return scope_.round_guards();
  }
  [[nodiscard]] bool round_allocated() const noexcept {
    return scope_.round_allocated() || ledger_grew_;
  }

 private:
  void reseed();

  Specification& spec_;
  ReadyScope scope_;
  std::uint64_t seen_version_ = ~0ull;
  bool seeded_ = false;
  std::size_t ledger_capacity_seen_ = 0;
  bool ledger_grew_ = false;
};

/// Reference cross-check for ExecutorConfig::verify_ready_set: recompute the
/// firing set of `system_modules` at `now` with the full tree scan
/// and throw std::logic_error if it differs from `got` (starting at
/// `got[offset]`, consuming exactly the reference's length unless the sizes
/// already disagree). Debug-only path; allocates freely.
void verify_against_full_scan(const std::vector<Module*>& system_modules,
                              common::SimTime now,
                              const std::vector<FiringCandidate>& got,
                              std::size_t offset = 0);

}  // namespace mcam::estelle
