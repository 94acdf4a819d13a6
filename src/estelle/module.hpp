// Estelle modules: hierarchy, attributes, transitions (ISO 9074).
//
// This is the runtime the paper's Pet/Dingo-derived code generator would
// emit into. §4 of the paper spells out Estelle's structural rules; all of
// them are enforced here (violations throw EstelleRuleError at construction
// time, the moment a specification becomes illegal):
//
//   R1  every active module has one of the four attributes; modules without
//       an attribute (Inactive) carry no transitions;
//   R2  a system module cannot be contained in another attributed module;
//   R3  each process/activity module is contained, perhaps indirectly, in a
//       system module;
//   R4  process / systemprocess modules may contain process or activity
//       children;
//   R5  activity / systemactivity modules may only contain activity
//       children;
//   R6  system modules are static: exactly one instance of each is created
//       at initialization and none can be created afterwards (enforced by
//       Specification::initialize() freezing the system-module population);
//   R7  a module instance can only be created/destroyed by its parent.
//
// Scheduling semantics (parent precedence, process-parallel vs
// activity-exclusive children) live in sched.hpp.
//
// Transition selection is table-driven, as §5.2 argues. A module keeps one
// compact dispatch row per transition, in (priority, declaration) order —
// its IP, from-state, kind and whether it is plain (no `provided`, no
// delay) — and, for the StateTable strategy, one list of row indices per
// state, merged with the kAnyState rows. A row is rejected on the state or
// the offered head without reading its Transition; only a guarded or
// delayed row reaches is_fireable().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "estelle/interaction.hpp"

namespace mcam::estelle {

/// "No pending wakeup" sentinel for delay deadlines.
inline constexpr common::SimTime kNeverTime{
    std::numeric_limits<std::int64_t>::max()};

/// Estelle module attributes (§4 of the paper). `Inactive` represents an
/// unattributed structuring module (e.g. the specification root).
enum class Attribute {
  SystemProcess,
  SystemActivity,
  Process,
  Activity,
  Inactive,
};

[[nodiscard]] constexpr bool is_system(Attribute a) noexcept {
  return a == Attribute::SystemProcess || a == Attribute::SystemActivity;
}
[[nodiscard]] constexpr bool is_process_like(Attribute a) noexcept {
  return a == Attribute::SystemProcess || a == Attribute::Process;
}
[[nodiscard]] constexpr bool is_activity_like(Attribute a) noexcept {
  return a == Attribute::SystemActivity || a == Attribute::Activity;
}
[[nodiscard]] const char* attribute_name(Attribute a) noexcept;

/// Violation of an Estelle structural rule — a specification bug, hence an
/// exception rather than a Result.
class EstelleRuleError : public std::logic_error {
 public:
  explicit EstelleRuleError(const std::string& what)
      : std::logic_error(what) {}
};

class Module;

/// What a `provided` guard reads, as far as the event-driven schedulers
/// (ready_set.hpp) need to know.
///   Opaque — anything, including state no runtime hook sees (a budget
///     captured by several modules, another module's queue). A module that
///     consulted such a guard stays under per-round re-evaluation. The
///     default.
///   Hooked — only inputs whose every change marks the module ready: the
///     module's own state and variables (written by its own firings), the
///     offered head interaction, or state whose writer calls mark_ready() on
///     the module. This is what an Estelle `provided` clause may read. The
///     module is re-evaluated through those hooks alone, like a guardless
///     one. A wrong declaration makes the ready set miss a guard flip, which
///     ExecutorConfig::verify_ready_set reports.
enum class GuardReads { Opaque, Hooked };

/// One Estelle transition. Fireability (evaluated by schedulers):
///   state matches `from`  ∧  (spontaneous ∨ head-of-queue kind matches)
///   ∧ provided(head)  ∧  (spontaneous ⇒ delay elapsed since state entry).
/// Among fireable transitions of one module, the lowest `priority` value
/// wins; declaration order breaks ties.
///
/// The action receives the interaction fire() popped (nullptr for a
/// spontaneous transition) and owns it: it may move the payload out, which
/// is how a layer hands an SDU on without copying it. A guard sees the
/// offered head read-only. An action written with `const Interaction*`
/// binds too.
struct Transition {
  std::string name;
  int from_state = kAnyState;
  int to_state = kAnyState;  // kAnyState ⇒ no state change
  InteractionPoint* ip = nullptr;  // nullptr ⇒ spontaneous
  int kind = kAnyKind;
  std::function<bool(Module&, const Interaction*)> provided;  // optional
  GuardReads guard_reads = GuardReads::Opaque;  // see GuardReads
  int priority = 0;
  common::SimTime delay{};  // spontaneous transitions only
  common::SimTime cost = common::SimTime::from_us(10);  // simulated exec time
  std::function<void(Module&, Interaction*)> action;  // required
};

/// Fluent builder; `.action(...)` finalizes and registers the transition.
class TransitionBuilder {
 public:
  TransitionBuilder(Module& module, std::string name);

  TransitionBuilder& from(int state) {
    t_.from_state = state;
    return *this;
  }
  TransitionBuilder& to(int state) {
    t_.to_state = state;
    return *this;
  }
  /// `when ip.<kind>` clause.
  TransitionBuilder& when(InteractionPoint& ip, int kind = kAnyKind) {
    t_.ip = &ip;
    t_.kind = kind;
    return *this;
  }
  /// `provided` clause; `reads` declares what the guard reads (GuardReads).
  TransitionBuilder& provided(
      std::function<bool(Module&, const Interaction*)> p,
      GuardReads reads = GuardReads::Opaque) {
    t_.provided = std::move(p);
    t_.guard_reads = reads;
    return *this;
  }
  TransitionBuilder& priority(int p) {
    t_.priority = p;
    return *this;
  }
  TransitionBuilder& delay(common::SimTime d) {
    t_.delay = d;
    return *this;
  }
  TransitionBuilder& cost(common::SimTime c) {
    t_.cost = c;
    return *this;
  }
  void action(std::function<void(Module&, Interaction*)> a);

 private:
  Module& module_;
  Transition t_;
};

/// Transition-selection strategy (§5.2 of the paper): LinearScan models the
/// generator emitting one big hard-coded if/else chain; StateTable models the
/// state-indexed transition table that wins once a module has more than ~4
/// transitions.
enum class DispatchKind { LinearScan, StateTable };

class Specification;
class ReadyScope;
class SpecReadySet;

/// Side-channel of one fireability evaluation, filled by is_fireable() /
/// select_fireable() when the caller passes one. The event-driven schedulers
/// (ready_set.hpp) use it to decide when a module must be looked at again:
///
///   next_deadline — earliest future time an immature delay clause scanned
///     on the way to (and including) the selected transition could mature.
///     Mirrors ParallelSim's tree-scan wakeup: a guarded delay contributes
///     only while its guard currently passes (guard flips are caught by the
///     guard_invoked rule below).
///   guard_invoked — an Opaque `provided` guard was actually evaluated.
///     Such a guard may read state the runtime cannot hook (a captured
///     budget shared across modules, another queue's length), so a module
///     whose evaluation consulted one stays in the ready set and is
///     re-examined every round — the conservative rule that keeps dirty-set
///     scheduling exact even on ill-formed specifications. Hooked guards
///     leave it unset: every change to what they read marks the module.
struct ReadinessProbe {
  common::SimTime next_deadline = kNeverTime;
  bool guard_invoked = false;
};

/// Specification-owned queue of modules whose fireability may have changed
/// since a scheduler last examined them. Producers are the dirty hooks
/// (interaction delivery, state changes, firing, transition registration)
/// whose mark no bound scope takes (LocalReadyScopeBinding); the one
/// consumer is SpecReadySet::refresh (ready_set.hpp), which whichever
/// executor drives the specification calls at round boundaries, and which
/// routes each module to its own system module's scope.
///
/// mark() is thread-safe (worker threads firing independent candidates or
/// whole shards mark concurrently); drain()/clear() are boundary operations
/// called only while workers are parked. Dedup is an intrusive atomic flag
/// on the module, so steady-state marking is one uncontended exchange.
class ReadyLedger {
 public:
  void mark(Module& m);

  /// Hand every queued module to `f` and empty the queue (resets the
  /// intrusive flags). Single-threaded by contract.
  template <typename F>
  void drain(F&& f) {
    if (entries_.empty()) return;
    for (Module* m : entries_) {
      reset_flag(*m);
      f(*m);
    }
    entries_.clear();
  }

  /// Forget the queued entries WITHOUT dereferencing them — used when a
  /// topology change may have destroyed queued modules; the caller resets
  /// the surviving modules' flags via a tree walk.
  void clear_unsafe() noexcept { entries_.clear(); }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return entries_.capacity();
  }

 private:
  static void reset_flag(Module& m) noexcept;

  std::mutex mu_;  // guards entries_ growth from concurrent markers
  std::vector<Module*> entries_;
};

/// Base class for all Estelle modules. Subclasses declare IPs and
/// transitions in their constructor (or in on_init()).
class Module {
 public:
  Module(std::string name, Attribute attribute);
  virtual ~Module();

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // ---- identity / tree -------------------------------------------------
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::string path() const;
  [[nodiscard]] Attribute attribute() const noexcept { return attribute_; }
  [[nodiscard]] Module* parent() const noexcept { return parent_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Module>>& children()
      const noexcept {
    return children_;
  }
  [[nodiscard]] std::uint64_t instance_id() const noexcept { return id_; }

  /// Create a child module (rule R7: only via the parent). Enforces R1–R6.
  /// Returns a reference owned by this module.
  template <typename T, typename... Args>
  T& create_child(Args&&... args) {
    auto child = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *child;
    adopt(std::move(child));
    return ref;
  }

  /// Destroy a child subtree (rule R7). All IPs in the subtree are
  /// disconnected first so no dangling channel remains.
  void release_child(Module& child);

  /// Recursively count modules in this subtree (including this one).
  [[nodiscard]] std::size_t subtree_size() const noexcept;

  // ---- interaction points ----------------------------------------------
  /// Declare (or retrieve) an interaction point by name.
  InteractionPoint& ip(const std::string& name);
  [[nodiscard]] InteractionPoint* find_ip(const std::string& name) noexcept;
  [[nodiscard]] const std::vector<std::unique_ptr<InteractionPoint>>& ips()
      const noexcept {
    return ips_;
  }

  // ---- state machine -----------------------------------------------------
  [[nodiscard]] int state() const noexcept { return state_; }
  void set_state(int s) noexcept {
    state_ = s;
    mark_ready();
  }
  [[nodiscard]] common::SimTime state_entered_at() const noexcept {
    return state_entered_at_;
  }
  void note_state_entry(common::SimTime t) noexcept {
    state_entered_at_ = t;
    mark_ready();
  }

  TransitionBuilder trans(std::string name = {}) {
    return TransitionBuilder(*this, std::move(name));
  }
  void add_transition(Transition t);
  [[nodiscard]] const std::vector<Transition>& transitions() const noexcept {
    return transitions_;
  }

  [[nodiscard]] DispatchKind dispatch() const noexcept { return dispatch_; }
  void set_dispatch(DispatchKind k) noexcept { dispatch_ = k; }

  /// Select the fireable transition of *this module only* (no tree rules),
  /// honoring priority and declaration order. Returns nullptr if none.
  /// `now` drives delay clauses. Which transitions are examined depends on
  /// dispatch(): LinearScan walks every dispatch row, StateTable only the
  /// current state's list; last_scan_effort() counts them afterwards.
  /// `probe` (optional) reports readiness facts to the event-driven
  /// schedulers — see ReadinessProbe.
  [[nodiscard]] const Transition* select_fireable(
      common::SimTime now, ReadinessProbe* probe = nullptr);

  /// Something that may change this module's fireability happened: queue
  /// it for re-evaluation. The mark goes straight into the ReadyScope bound
  /// on the calling thread when that scope drives this module
  /// (LocalReadyScopeBinding), and into the specification's ready ledger
  /// otherwise. Idempotent, thread-safe, no-op before the module joins a
  /// specification. Called by the runtime hooks (interaction delivery,
  /// firing, state changes); user code only needs it when mutating
  /// fireability inputs the runtime cannot see — which a GuardReads::Hooked
  /// guard relies on.
  void mark_ready() noexcept;

  /// Number of transition guards examined by the last select_fireable()
  /// call — the quantity the §5.2 dispatch experiment varies.
  [[nodiscard]] int last_scan_effort() const noexcept { return scan_effort_; }

  // ---- lifecycle ----------------------------------------------------------
  /// Called by Specification::initialize() (top-down) and by adopt() for
  /// dynamically created modules after the tree link is in place.
  virtual void on_init() {}

  [[nodiscard]] Specification* specification() const noexcept { return spec_; }

  /// The paper places each system module on a machine via comments in the
  /// Estelle source (§4.1); client machines are single-processor
  /// workstations while the server is the KSR1 multiprocessor (§3). Marking
  /// a system module as a uniprocessor host makes every parallel scheduler
  /// run its whole subtree on one unit, whatever the mapping policy.
  void set_uniprocessor_host(bool v) noexcept { uniprocessor_host_ = v; }
  [[nodiscard]] bool uniprocessor_host() const noexcept {
    return uniprocessor_host_;
  }

  /// Nearest ancestor (or self) that is a system module; nullptr if none.
  [[nodiscard]] Module* owning_system_module() noexcept;

  /// Shard this module executes on: the document-order index of its system
  /// module, stamped on every module of the subtree when the
  /// specification's ready set seeds (SpecReadySet, on its first use —
  /// a first round or a ConflictAnalysis — and after every topology
  /// change). kNoShard before that and outside every system subtree. It
  /// picks the module's ReadyScope, and interaction delivery uses it to
  /// route cross-shard messages through the transfer mailboxes. Children
  /// created dynamically inherit the parent's shard immediately (adopt()),
  /// so mid-run creations stay correctly routed until the next reseed.
  [[nodiscard]] int shard() const noexcept { return shard_; }

  /// Walk the subtree, depth-first, calling f on every module.
  void for_each(const std::function<void(Module&)>& f);

 private:
  friend class Specification;
  friend class ReadyLedger;
  friend class ReadyScope;
  friend class SpecReadySet;

  void adopt(std::unique_ptr<Module> child);
  void check_child_rules(const Module& child) const;
  void set_specification(Specification* spec) noexcept;
  void rebuild_index();

  /// One transition as select_fireable() examines it: what rejects it on
  /// the module's state or the offered head without touching the Transition.
  struct DispatchRow {
    InteractionPoint* ip;
    int from_state;
    int kind;
    std::uint16_t transition;  // index into transitions_
    bool plain;  // no provided, no delay: fires once state and head match
  };

  std::string name_;
  Attribute attribute_;
  Module* parent_ = nullptr;
  Specification* spec_ = nullptr;
  std::uint64_t id_ = 0;
  std::vector<std::unique_ptr<Module>> children_;
  std::vector<std::unique_ptr<InteractionPoint>> ips_;
  std::vector<Transition> transitions_;
  int state_ = 0;
  common::SimTime state_entered_at_{};
  DispatchKind dispatch_ = DispatchKind::StateTable;
  // Precomputed dispatch structures (what the code generator would emit),
  // rebuilt by the first select after a transition is added. rows_ is the
  // whole chain in (priority, declaration) order, which LinearScan walks.
  // StateTable walks state s's list, state_rows_[state_begin_[s],
  // state_begin_[s + 1]): the indices of the rows from s and from
  // kAnyState, in row order. The trailing slot, s = state_begin_.size() - 2,
  // lists the kAnyState rows alone, for states below 0 or above the highest
  // `from` state.
  std::vector<DispatchRow> rows_;
  std::vector<std::uint16_t> state_rows_;
  std::vector<std::uint32_t> state_begin_;
  bool index_dirty_ = true;
  int scan_effort_ = 0;
  bool initialized_ = false;
  bool uniprocessor_host_ = false;
  int shard_ = -1;  // kNoShard; see shard()

  // ---- event-driven scheduling state (see ready_set.hpp) -----------------
  // Owned by the module's one ReadyScope, its system module's scope in the
  // specification's SpecReadySet, whichever executor drives it; a reseed
  // (first use, topology change) resets everything.
  std::atomic<bool> ledger_marked_{false};  // queued in the spec ReadyLedger
  bool scope_ready_ = false;                // member of a scope's ready list
  const Transition* cached_fireable_ = nullptr;  // last evaluation's result
  int fireable_slot_ = -1;       // index in the scope's fireable list
  std::uint32_t preorder_ = 0;   // global document-order DFS index
  std::uint64_t claim_stamp_ = 0;  // activity-exclusion mark (per round)
  common::SimTime queued_deadline_ = kNeverTime;  // earliest heap entry
};

/// True iff `t` can fire in module `m` at time `now` (state, head-of-queue,
/// provided guard, delay clause). Shared by all schedulers and by fire()'s
/// revalidation. `probe` (optional) reports readiness facts — see
/// ReadinessProbe.
[[nodiscard]] bool is_fireable(const Transition& t, Module& m,
                               common::SimTime now,
                               ReadinessProbe* probe = nullptr);

/// The specification root: an Inactive module owning the system-module
/// forest. After initialize(), creating further system modules anywhere in
/// the tree violates rule R6 and throws.
class Specification {
 public:
  explicit Specification(std::string name);
  ~Specification();

  [[nodiscard]] Module& root() noexcept { return *root_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Freeze the system-module population and run on_init() hooks top-down.
  void initialize();
  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

  /// All system modules in document order (stable across the run, R6).
  [[nodiscard]] std::vector<Module*> system_modules();

  /// Monotone counter bumped on every structural change (module adopted or
  /// released, channel connected or disconnected). ConflictAnalysis and the
  /// ready set cache the version they were built at and rebuild only when
  /// it moved, so per-round freshness checks are one integer compare.
  /// Atomic because firing actions may adopt/connect concurrently on worker
  /// threads.
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return topology_version_.load(std::memory_order_acquire);
  }
  void note_topology_change() noexcept {
    topology_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// The dirty-module queue feeding event-driven scheduling (ready_set.hpp).
  [[nodiscard]] ReadyLedger& ready_ledger() noexcept { return ready_ledger_; }

  /// The dirty set and the time line (one ReadyScope and one clock per
  /// system module, and the round line), shared by every executor that runs
  /// this specification (ready_set.hpp).
  [[nodiscard]] SpecReadySet& ready_set() noexcept { return *ready_set_; }

  /// Record that executor `id` (ExecutorBase numbers its instances) runs
  /// this specification; true when another executor ran it last. Dirty set
  /// and time line live here, so a hand-off keeps both; the one chore left
  /// is a one-clock backend's: it delivers the transfers a shard backend
  /// left parked (ExecutorBase::run).
  bool claim(std::uint64_t id) noexcept {
    return std::exchange(runner_, id) != id;
  }

  /// Cross-shard delivery wake signal (interaction.hpp). The free-running
  /// executor registers itself here for the duration of a session so a
  /// passive shard is unparked the moment a foreign shard sends to it;
  /// nullptr (the default) means no one is listening. Atomic because the
  /// registration races with worker-thread deliveries at session boundaries.
  [[nodiscard]] CrossShardWakeSink* cross_shard_wake_sink() const noexcept {
    return wake_sink_.load(std::memory_order_acquire);
  }
  void set_cross_shard_wake_sink(CrossShardWakeSink* sink) noexcept {
    wake_sink_.store(sink, std::memory_order_release);
  }

 private:
  std::string name_;
  /// Declared before root_ so they outlive every module's destructor (a
  /// teardown hook may still reach the ledger through spec_).
  ReadyLedger ready_ledger_;
  std::unique_ptr<SpecReadySet> ready_set_;
  std::unique_ptr<Module> root_;
  bool initialized_ = false;
  std::uint64_t runner_ = 0;  // the claim of the last executor; 0 = none
  std::atomic<std::uint64_t> topology_version_{0};
  std::atomic<CrossShardWakeSink*> wake_sink_{nullptr};
};

/// While alive on a thread, Module::mark_ready() calls for the modules of
/// `spec` in shard `shard` (in every shard when it is kNoShard) go straight
/// into their scopes of the specification's SpecReadySet instead of its
/// ReadyLedger: no atomic flag, no mutex, no drain. Only the thread that
/// drives those scopes may bind them.
///   * A free-running shard binds its own shard for its whole loop. Every
///     fireability event a shard round produces (firing, state change, pop,
///     same-shard delivery, drain) targets the shard's own modules.
///   * A barrier round binds each shard while it drains, collects and fires
///     it.
///   * Sequential binds every shard for the firing loop of each round.
/// Every other mark takes the thread-safe ledger of the module's own
/// specification, which the next refresh drains: marks made outside a
/// binding (by the caller between runs, stop predicates, ParallelSim's
/// firings), and marks for a module outside every system subtree or of
/// another shard or specification (possible only beyond the Estelle channel
/// contract).
class LocalReadyScopeBinding {
 public:
  LocalReadyScopeBinding(Specification& spec, int shard) noexcept;
  ~LocalReadyScopeBinding();
  LocalReadyScopeBinding(const LocalReadyScopeBinding&) = delete;
  LocalReadyScopeBinding& operator=(const LocalReadyScopeBinding&) = delete;

 private:
  ReadyScope* prev_scopes_;
  const Specification* prev_spec_;
  int prev_shard_;
};

}  // namespace mcam::estelle
