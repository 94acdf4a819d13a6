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
//   * Marks (Module::mark_ready) — modules enqueue themselves when
//     something that can change their fireability happens: a delivery
//     creating a new queue head (InteractionPoint::deliver /
//     drain_transfers), a head consumed (pop/clear), a state change, any
//     firing (fire() marks one that neither pops nor changes state), a
//     transition registered, or an explicit mark_ready() by code that
//     writes what a hooked guard reads. A mark made while the module's
//     scope is bound on the calling thread (LocalReadyScopeBinding: a
//     Sequential round's firing loop, a barrier round's shard, a
//     free-running shard's loop) goes straight into that scope's ready
//     list. Every other mark lands in the specification's ReadyLedger
//     (module.hpp), which SpecReadySet::refresh drains at round boundaries,
//     each module into its own scope.
//   * ReadyScope — one system module's persistent state: the ready list
//     (modules to re-evaluate), the fireable cache F (modules whose last
//     evaluation selected a transition), a min-heap of delay deadlines
//     (state_entered_at + delay), and the reusable candidate buffer. The
//     specification keeps one per system module (SpecReadySet), and every
//     executor drives those: Sequential collects them all each round, a
//     barrier round the scopes of its shards, a free-running shard its own.
//     So the dirty set exists once, and handing a specification to another
//     executor keeps it.
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
// construction of the dirty hooks plus these rules:
//   * hooked guards — a `provided` guard declared GuardReads::Hooked reads
//     only its module's state and variables, the offered head, or state
//     whose writer marks the module. Every change to its inputs therefore
//     passes through a hook, and a module whose evaluation consulted only
//     such guards leaves the ready set like a guardless one. The MCAM stack
//     declares its head-only session and presentation guards, TP
//     `t-retransmit` and the server MCA's `m-position` this way.
//   * guard stickiness — a module whose evaluation invoked an Opaque guard
//     (the default) stays in the ready set, because such a guard may read
//     state the runtime cannot hook: a budget shared across modules in the
//     deliberately ill-formed differential specs, or a library's queue
//     (the ISODE interface's `i-poll`);
//   * deadline mirroring — an immature delay contributes a heap entry only
//     while its guard passes, matching ParallelSim's tree-scan wakeup;
//     guard flips are caught by stickiness or, for hooked guards, by the
//     hook that changed the guard's input.
// A guard declared Hooked that reads anything else breaks the equality.
// ExecutorConfig::verify_ready_set cross-checks it against the reference
// full scan every round (differential tests run with it on, including one
// on the Fig. 2 testbed and one with a deliberately mis-declared guard), and
// bench_hot_path times that scan as its baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle {

/// One system module's persistent scheduling state; see the header comment.
/// Not thread-safe: one thread drives a scope at a time (the run thread,
/// or the thread that runs the scope's shard in a free session).
class ReadyScope {
 public:
  /// Enqueue `m` for re-evaluation at the next collect (idempotent).
  void mark(Module& m) {
    if (m.scope_ready_) return;
    m.scope_ready_ = true;
    ready_.push_back(&m);
  }

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

  /// True when modules are queued for re-evaluation (includes sticky
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

  /// The system module's virtual clock. The shard backends run its rounds
  /// on it in place; a one-clock backend leaves it at its own clock when a
  /// run ends (SpecReadySet::raise_clocks).
  [[nodiscard]] SimTime& clock() noexcept { return clock_; }
  [[nodiscard]] SimTime clock() const noexcept { return clock_; }

  /// Drop all scheduling state without dereferencing stored module pointers
  /// (a topology change may have destroyed some); the clock stays. The
  /// reseed resets the surviving modules' intrusive fields.
  void clear() noexcept;

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
  SimTime clock_{};
};

/// The specification's dirty set (Specification::ready_set()): one
/// ReadyScope per system module, in document order — exactly the shards
/// ConflictAnalysis reports — shared by every executor that runs the
/// specification. Sequential fires the concatenation of every scope's
/// candidates, which is document order: system subtrees are disjoint and
/// nothing above them carries a transition (rule R1).
///
/// refresh() is the one place the scopes are reseeded: on first use and
/// whenever the topology version moved (modules or channels added or
/// removed: new transitions must not be skipped, destroyed modules must not
/// be touched). A reseed stamps every module with its document-order index
/// and its system module's index (Module::shard) and marks every module of
/// every system subtree. A hand-off between executors changes nothing here.
///
/// The set also holds the specification's time line, which no reseed
/// moves: one clock per system module (ReadyScope::clock) and the round
/// line, the number of the last shard round run on the specification.
/// Barrier rounds and node rounds take the next number; a free session
/// starts every shard at the line and writes back the highest round it
/// completed. Every parked transfer is therefore stamped at or below the
/// line, and the next shard round, on whichever shard backend, drains it
/// where an uninterrupted run would.
class SpecReadySet {
 public:
  explicit SpecReadySet(Specification& spec) : spec_(spec) {}

  /// Bring every scope up to date at a round boundary: reseed when due,
  /// else drain the specification's ledger, each module into its own
  /// scope. Returns true when the ledger grew since the last refresh (the
  /// marks that grew it allocated while the previous round fired).
  bool refresh();

  [[nodiscard]] std::uint64_t round_line() const noexcept {
    return round_line_;
  }
  void set_round_line(std::uint64_t r) noexcept { round_line_ = r; }
  /// The latest system-module clock: the time the specification reached,
  /// on any executor.
  [[nodiscard]] SimTime reached_time() const noexcept;
  /// Raise every system-module clock to `t`: how a one-clock backend
  /// (Sequential, ParallelSim) leaves the time line when a run ends. Seeds
  /// the scopes if nothing has yet, so the clocks exist.
  void raise_clocks(SimTime t);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(scopes_.size());
  }
  [[nodiscard]] ReadyScope& scope(int s) noexcept {
    return scopes_[static_cast<std::size_t>(s)];
  }
  /// The system module whose subtree scope `s` drives.
  [[nodiscard]] Module& system_module(int s) const noexcept {
    return *systems_[static_cast<std::size_t>(s)];
  }

 private:
  friend class LocalReadyScopeBinding;

  void reseed();

  Specification& spec_;
  std::vector<ReadyScope> scopes_;
  std::vector<Module*> systems_;
  std::uint64_t seen_version_ = ~0ull;  // ~0: never seeded
  std::size_t ledger_capacity_seen_ = 0;
  std::uint64_t round_line_ = 0;
};

/// Reference cross-check for ExecutorConfig::verify_ready_set: recompute the
/// firing set of `system_module`'s subtree at `now` with the full tree scan
/// and throw std::logic_error if it differs from `got`. Debug-only path;
/// allocates freely.
void verify_against_full_scan(Module& system_module, common::SimTime now,
                              const std::vector<FiringCandidate>& got);

}  // namespace mcam::estelle
