// The unified Estelle runtime API.
//
// The paper's central claim (§4–§5) is that one Estelle specification can be
// executed by interchangeable runtimes — a sequential scheduler, a simulated
// multiprocessor, real parallel threads — and compared fairly. This header is
// that claim as an interface: every runtime is an `Executor` constructed
// through `make_executor(spec, config)` and driven through
// `run(RunOptions) -> RunReport`. Call sites select a backend by value
// (`ExecutorKind`), never by concrete type; new backends (sharded, free-
// running, distributed) register with `ExecutorFactory` and every existing
// consumer can use them unchanged.
//
// Vocabulary:
//   StopCondition — when a run ends besides quiescence: a predicate over the
//                   world, a virtual-time deadline, or a round budget.
//   RunObserver   — per-run hook chain (fire events, round boundaries, run
//                   lifecycle). Replaces the old process-global trace
//                   singleton as the primary observation path.
//   RunReport     — what happened: stop reason, rounds and firings of this
//                   run, and the executor-lifetime SchedulerStats.
//
// Observer contract: all RunObserver callbacks are invoked on the thread that
// called run(). Sharded and Distributed run their rounds on that thread and
// replay each round's revalidated firings once the round's shards have run
// (announce-after-revalidation, see shard_executor.hpp); FreeRunning, whose
// shards run on threads of their own, merges their firing logs on the run
// thread. Observers therefore need no internal locking.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "sim/engine.hpp"

namespace mcam::estelle {

using common::SimTime;

class Module;
struct Transition;
class Specification;
class Executor;

/// A (module, transition) pair chosen for one step.
struct FiringCandidate {
  Module* module = nullptr;
  const Transition* transition = nullptr;
};

/// Module→unit mapping policies (§3, §5.2 and [6] as cited by the paper).
enum class Mapping {
  /// One OSF/1 thread per Estelle module — the code generator's default,
  /// "maximum degree of parallelism allowed by Estelle semantics".
  ThreadPerModule,
  /// As many units as processors; modules assigned round-robin. §5.2's
  /// grouping scheme that removes synchronization losses.
  GroupedUnits,
  /// All modules of one connection subtree share a unit — the
  /// connection-per-processor layout that [6] found superior.
  ConnectionPerProcessor,
  /// One unit per protocol layer (tree depth) — the layout [6] found
  /// inferior; included so the comparison can be reproduced.
  LayerPerProcessor,
};

[[nodiscard]] const char* mapping_name(Mapping m) noexcept;

/// Executor-lifetime counters, cumulative across runs (a client facade pumps
/// the same executor many times; virtual time keeps advancing).
struct SchedulerStats {
  SimTime time{};          // virtual completion time
  std::uint64_t fired = 0;
  std::uint64_t rounds = 0;
  SimTime busy{};          // transition execution time
  SimTime sched_time{};    // selection + bookkeeping time
  SimTime switch_time{};   // context switches (parallel only)
  SimTime msg_time{};      // inter-unit messages (parallel only)
  /// Hot-path observability (the dirty-set win, measured not anecdotal):
  /// `provided`/when/delay guards evaluated while selecting transitions,
  std::uint64_t guards_examined = 0;
  /// firing candidates produced by candidate collection (pre-revalidation),
  std::uint64_t candidates_considered = 0;
  /// and rounds in which the scheduler's persistent round buffers had to
  /// grow (a steady-state round performs zero heap allocations).
  std::uint64_t rounds_with_allocation = 0;

  [[nodiscard]] double scheduler_share() const noexcept {
    const double total = static_cast<double>(busy.ns + sched_time.ns +
                                             switch_time.ns + msg_time.ns);
    return total == 0.0 ? 0.0 : static_cast<double>(sched_time.ns) / total;
  }
};

// ---------------------------------------------------------------------------
// Run vocabulary

/// The available runtimes. The numeric values are not stable (nothing
/// persists them); future backends extend this enum and register with
/// ExecutorFactory.
enum class ExecutorKind {
  Sequential,   // single processor, virtual time — the speedup baseline
  ParallelSim,  // simulated multiprocessor (the KSR1 experiments, §5)
  Sharded,      // one shard per system module, barrier rounds on one thread
  FreeRunning,  // barrier-free continuation shards firing from ready sets
  Distributed,  // one shard group per process over a MailboxTransport
};

/// Every kind a default-constructed ExecutorConfig can drive. Distributed is
/// deliberately absent: it needs transport::DistOptions in
/// ExecutorConfig::backend_options to be more than a single-node runner, and
/// it refuses specifications ConflictAnalysis cannot prove conflict-free, so
/// a blind sweep over it would not honor the every-spec contract the
/// conformance suites assert over this list.
inline constexpr ExecutorKind kAllExecutorKinds[] = {
    ExecutorKind::Sequential, ExecutorKind::ParallelSim, ExecutorKind::Sharded,
    ExecutorKind::FreeRunning};

/// Name of a kind — built-in or registered with ExecutorFactory.
[[nodiscard]] const char* executor_kind_name(ExecutorKind k) noexcept;
/// Inverse of executor_kind_name (exact match); false if unknown.
[[nodiscard]] bool executor_kind_from_name(const std::string& name,
                                           ExecutorKind* out) noexcept;

/// Why a run ended.
enum class StopReason {
  Quiescent,           // no fireable transition anywhere, no pending wakeup
  PredicateSatisfied,  // a StopCondition::when() predicate returned true
  DeadlineReached,     // virtual clock passed a StopCondition::deadline()
  StepLimit,           // round budget exhausted (per-run or config backstop)
  Aborted,             // an exception escaped the run; seen only in the
                       // partial report delivered to on_run_end before it
                       // propagates
};

[[nodiscard]] const char* stop_reason_name(StopReason r) noexcept;

/// One reason to end a run early. A run always ends on quiescence; stop
/// conditions are checked between rounds and the first satisfied one wins.
class StopCondition {
 public:
  enum class Kind { Quiescence, Predicate, Deadline, StepLimit };

  /// Run to quiescence only — the implicit default; never stops early.
  static StopCondition quiescence() { return StopCondition(Kind::Quiescence); }
  /// Stop once `pred()` is true (checked between rounds). A null predicate
  /// is a programming error and throws immediately rather than producing a
  /// condition that silently never fires.
  static StopCondition when(std::function<bool()> pred) {
    if (!pred)
      throw std::invalid_argument("StopCondition::when: null predicate");
    StopCondition c(Kind::Predicate);
    c.pred_ = std::move(pred);
    return c;
  }
  /// Stop once virtual time reaches `at`.
  static StopCondition deadline(SimTime at) {
    StopCondition c(Kind::Deadline);
    c.deadline_ = at;
    return c;
  }
  /// Stop after `n` rounds of this run.
  static StopCondition max_steps(std::uint64_t n) {
    StopCondition c(Kind::StepLimit);
    c.max_steps_ = n;
    return c;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// The deadline of a Deadline condition (meaningless for other kinds).
  [[nodiscard]] SimTime deadline_time() const noexcept { return deadline_; }
  /// The round budget of a StepLimit condition (meaningless for other
  /// kinds). Backends that run many rounds per step() — the free-running
  /// executor — bound their run-ahead with it so the cutoff stays exact.
  [[nodiscard]] std::uint64_t step_budget() const noexcept {
    return max_steps_;
  }
  [[nodiscard]] StopReason reason() const noexcept;
  /// True when met; `now` is the virtual clock, `steps` the rounds completed
  /// so far in this run.
  [[nodiscard]] bool satisfied(SimTime now, std::uint64_t steps) const;

 private:
  explicit StopCondition(Kind k) : kind_(k) {}

  Kind kind_;
  std::function<bool()> pred_;
  SimTime deadline_{};
  std::uint64_t max_steps_ = 0;
};

/// Per-run observation hooks. Default implementations do nothing; override
/// what you need. See the observer contract in the header comment.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void on_run_begin(Executor& /*executor*/) {}
  /// Announced before the transition's action executes under Sequential and
  /// ParallelSim, so `module.state()` is still the from-state there. The
  /// shard-based backends replay firings after executing them — the
  /// transition/timestamp arguments are exact, but the module may already
  /// show the post-round state. Do not reentrantly run() the executor from
  /// here — the announced firing is still in flight; reentry is safe only
  /// from between-round hooks (stop predicates, on_round_end).
  virtual void on_fire(const Module& /*module*/,
                       const Transition& /*transition*/, SimTime /*now*/) {}
  virtual void on_round_end(Executor& /*executor*/, std::uint64_t /*round*/) {}
  /// Invoked with the assembled report just before on_run_end; observers
  /// that aggregate their own measurements (MetricsObserver) publish them
  /// into the report here, so callers get everything from run()'s return
  /// value.
  virtual void on_report(Executor& /*executor*/, struct RunReport& /*report*/) {
  }
  virtual void on_run_end(Executor& /*executor*/,
                          const struct RunReport& /*report*/) {}
};

/// Parameters of one run() call.
struct RunOptions {
  /// Stop conditions, any-of. Empty ⇒ run to quiescence (or the executor's
  /// configured round backstop).
  std::vector<StopCondition> stop;
  /// Observers for this run, notified in order. Not owned; must outlive the
  /// run() call.
  std::vector<RunObserver*> observers;
  /// Worker-thread width for this run under FreeRunning. 0 ⇒ keep the
  /// executor's configured count (ExecutorConfig::threads, itself defaulting
  /// to hardware_concurrency()). A width below the shard count makes the run
  /// take barrier rounds on the calling thread; the continuation pool itself
  /// is always one thread per shard and is never resized. Every other
  /// backend ignores the field.
  int worker_count = 0;
};

/// Effective worker count for a requested width: `requested` if positive,
/// otherwise max(1, std::thread::hardware_concurrency()). The single
/// interpretation of ExecutorConfig::threads and RunOptions::worker_count.
[[nodiscard]] int resolve_worker_count(int requested) noexcept;

/// Per-shard execution statistics, reported by the shard-based backends
/// (Sharded, FreeRunning, Distributed; empty under the others). Counters are
/// executor-lifetime, like SchedulerStats.
struct ShardRunStats {
  int shard = 0;
  std::string system_module;  // path of the shard's system module
  bool uniprocessor_host = false;
  std::uint64_t fired = 0;
  std::uint64_t rounds = 0;
  SimTime clock{};  // shard-local virtual clock
};

/// Continuation-dispatch statistics, reported by ExecutorKind::FreeRunning
/// (all-zero under other backends). Counters are executor-lifetime.
struct FreeRunningStats {
  /// Shard continuation parks: idle (passive), firing-log backpressure,
  /// round-limit / deadline pacing, and neighbor-gate waits.
  std::uint64_t parks = 0;
  /// Passive shards unparked by a cross-shard mailbox delivery.
  std::uint64_t wakes = 0;
  /// Max occupancy any per-shard firing log (SPSC ring) ever reached.
  std::uint64_t log_high_water = 0;
  /// Rounds served by Sharded barrier rounds instead (specification not
  /// proven conflict-free, or a worker width below the shard count).
  std::uint64_t fallback_rounds = 0;
};

/// Cross-process transport counters, reported by ExecutorKind::Distributed
/// (all-zero under other backends). frames/bytes are what the node's
/// MailboxTransport moved (bytes stay 0 under the zero-copy loopback);
/// null_rounds_serviced counts NullRound frames accepted from peers — the
/// conservative-simulation null messages that advance a provably-idle remote
/// shard's round; handshake_retries counts connection attempts beyond the
/// first during mesh setup; send_queue_high_water is the largest backlog (in
/// bytes, frames under loopback) any peer's bounded outbound queue reached.
///
/// The batching counters quantify the PR 7 hot path: syscalls counts data
/// I/O system calls issued (sendmsg/read — polls excluded, they are
/// symmetric across modes and would dilute the per-round comparison);
/// frames_batched counts individual transfers that traveled inside a
/// TransferBatch frame instead of as their own frame; bytes_per_write is
/// the largest byte count one write syscall flushed (scatter-gather makes
/// this the whole backlog, not one frame); encode_pool_reuse counts frame
/// encodes served entirely by a warmed per-peer buffer (no growth — the
/// allocation-free steady state).
///
/// The session counters quantify the PR 9 recovery layer: reconnect_attempts
/// counts mid-run redials (distinct from dial-time handshake_retries);
/// reconnects counts completed resume handshakes; frames_replayed counts
/// replay-ring records retransmitted by a resume; dup_frames_dropped counts
/// data frames discarded because their sequence number was already
/// delivered; heartbeats counts liveness RoundDone frames the runner sent
/// while waiting on a gate; faults_injected counts frames a fault plan
/// dropped/duplicated/delayed/closed on purpose.
///
/// parallel_shard_rounds and io_overlap_polls are always 0: node rounds run
/// on the run thread, and nothing pumps the transport while a round runs.
/// Both fields stay only because the end-to-end benchmark still reads them;
/// the next change allowed to touch that benchmark deletes them.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t null_rounds_serviced = 0;
  std::uint64_t handshake_retries = 0;
  std::uint64_t send_queue_high_water = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t frames_batched = 0;
  std::uint64_t bytes_per_write = 0;
  std::uint64_t encode_pool_reuse = 0;
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t frames_replayed = 0;
  std::uint64_t dup_frames_dropped = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t parallel_shard_rounds = 0;
  std::uint64_t io_overlap_polls = 0;
};

/// Per-module firing summary, published into RunReport by a MetricsObserver
/// (metrics.hpp) from its on_report hook; empty unless one observed the run.
struct ModuleFiringMetrics {
  std::string module_path;
  std::uint64_t fired = 0;
  SimTime mean_gap{};  // mean virtual time between consecutive firings
};

/// What one run() call did.
struct RunReport {
  ExecutorKind kind{};
  StopReason reason = StopReason::Quiescent;
  std::uint64_t steps = 0;  // rounds executed in this run
  std::uint64_t fired = 0;  // transitions fired in this run
  SchedulerStats stats{};   // executor-lifetime cumulative counters
  SimTime time{};           // virtual clock when the run ended
  /// Per-run deltas of the hot-path counters (the lifetime values live in
  /// `stats`): guards examined selecting transitions, candidates collected,
  /// rounds that grew a persistent scheduler buffer.
  std::uint64_t guards_examined = 0;
  std::uint64_t candidates_considered = 0;
  std::uint64_t rounds_with_allocation = 0;
  std::vector<ShardRunStats> shards;  // per-shard stats (Sharded backend)
  /// Continuation-dispatch counters (FreeRunning backend; zero elsewhere).
  FreeRunningStats free_running;
  /// Cross-process transport counters (Distributed backend; zero elsewhere).
  TransportStats transport;
  /// Structured failure description when the Distributed backend ends a run
  /// with reason == Aborted *without* throwing — a dead peer, a refused
  /// handshake, a gate watchdog timeout. Unlike an escaping exception, these
  /// are expected distributed-runtime conditions: run() returns normally and
  /// the caller inspects reason/error. Empty on every other path.
  std::string error;
  /// Filled by MetricsObserver::on_report when one is attached:
  std::vector<ModuleFiringMetrics> module_metrics;
  /// Histogram of virtual-time gaps between consecutive firings of the same
  /// module; bucket i counts gaps in [2^i, 2^(i+1)) microseconds.
  std::vector<std::uint64_t> firing_gap_histogram;
};

// ---------------------------------------------------------------------------
// Executor

/// A runtime for one Estelle specification. Implementations honor the §4
/// scheduling semantics (parent precedence, process/activity parallelism,
/// independent system modules); they differ in how the firing set executes
/// and what the virtual clock models.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Execute rounds until quiescence or a stop condition. Virtual time and
  /// SchedulerStats are cumulative across run() calls on the same executor.
  virtual RunReport run(const RunOptions& opts) = 0;
  RunReport run() { return run(RunOptions{}); }
  /// Convenience: run({.stop = {StopCondition::when(pred)}}).
  RunReport run_until(std::function<bool()> pred);

  /// Attach an observer to every subsequent run() of this executor, ahead
  /// of that run's RunOptions::observers. This is the executor-scoped
  /// replacement for the retired process-global TraceRecorder::install()
  /// shim: facades that pump one executor many times (McamClient) can be
  /// observed without threading options through every call. Not owned; the
  /// observer must outlive the runs.
  void add_run_observer(RunObserver* observer);
  void remove_run_observer(RunObserver* observer) noexcept;
  [[nodiscard]] const std::vector<RunObserver*>& run_observers()
      const noexcept {
    return run_observers_;
  }

  [[nodiscard]] virtual ExecutorKind kind() const noexcept = 0;
  [[nodiscard]] virtual SimTime now() const noexcept = 0;
  [[nodiscard]] virtual const SchedulerStats& stats() const noexcept = 0;
  /// Execution units this runtime drives (simulated units, threads, …).
  [[nodiscard]] virtual int unit_count() const noexcept { return 1; }

 private:
  std::vector<RunObserver*> run_observers_;
};

/// Shared skeleton for executors: owns the virtual clock, the cumulative
/// stats, the run loop (stop-condition checks, observer lifecycle, the
/// config round backstop) and the deadline-clamped idle wakeup. A new
/// backend implements step() — one round, false when quiescent — and
/// optionally finalize_stats().
class ExecutorBase : public Executor {
 public:
  RunReport run(const RunOptions& opts) override;
  using Executor::run;

  [[nodiscard]] SimTime now() const noexcept override { return now_; }
  [[nodiscard]] const SchedulerStats& stats() const noexcept override {
    return stats_;
  }

 protected:
  ExecutorBase(Specification& spec, std::uint64_t step_limit)
      : spec_(spec), step_limit_(step_limit) {}

  /// One scheduling round; returns false when the world is quiescent.
  virtual bool step() = 0;
  /// Called after the loop ends, before the report is assembled (e.g. to
  /// pull aggregate counters out of a simulation engine).
  virtual void finalize_stats() {}
  /// Backend-specific report decoration (e.g. the sharded backend fills
  /// RunReport::shards). Runs after the common fields are assembled, before
  /// observers see the report.
  virtual void decorate_report(RunReport& /*report*/) {}

  /// Clamped idle-wakeup jump shared by every backend: advance the clock to
  /// min(wake, the active run's deadline), never backwards. A wake at or
  /// before now_ legitimately leaves the clock in place — the next
  /// collection sees the matured work at the current time.
  void advance_clock_toward(SimTime wake) noexcept {
    const SimTime target = wake < run_deadline_ ? wake : run_deadline_;
    if (target > now_) now_ = target;
  }
  /// The observer chain of the active run (persistent run_observers() first,
  /// then the run's RunOptions::observers); null outside run() AND null when
  /// the active run has no observers at all, so backends can skip
  /// announcement bookkeeping entirely on unobserved runs.
  [[nodiscard]] RunObserver* observer() noexcept { return chain_; }
  /// The worker width a real-thread backend may use right now: the active
  /// run's worker_count override if set, else the backend's configured
  /// width resolved through resolve_worker_count().
  [[nodiscard]] int effective_worker_width(int configured) const noexcept {
    return run_worker_count_ > 0 ? run_worker_count_
                                 : resolve_worker_count(configured);
  }

  Specification& spec_;
  SimTime now_{};
  SchedulerStats stats_;
  std::uint64_t step_limit_;
  /// Earliest StopCondition::deadline() of the active run (SimTime max when
  /// none); bounds idle clock jumps — ParallelSim's tree-scan wakeup and the
  /// other backends' deadline-heap jumps clamp against it.
  SimTime run_deadline_{std::numeric_limits<std::int64_t>::max()};
  /// Global rounds the last step() call completed, consumed (and reset to 1)
  /// by the run loop: `steps += last_step_rounds_`. Every round-based
  /// backend leaves it at 1; the free-running backend executes whole bursts
  /// of rounds inside one step() and reports the burst size here so
  /// RunReport::steps and the StepLimit accounting keep meaning "global
  /// rounds", whatever the dispatch style.
  std::uint64_t last_step_rounds_ = 1;
  /// Tightest StopCondition::max_steps() budget of the active run (max u64
  /// when none) and the rounds completed so far in it — a burst-running
  /// backend bounds its run-ahead to `run_step_limit_ - run_steps_` (also
  /// clamped by the step_limit_ backstop) so the cutoff is exact.
  std::uint64_t run_step_limit_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t run_steps_ = 0;
  /// True when the active run has a predicate stop condition: a
  /// burst-running backend must then pace itself to one round per step() so
  /// the predicate is evaluated between rounds on a quiesced world, exactly
  /// like the round-based loops.
  bool run_has_predicate_ = false;

 private:
  class Chain;
  RunObserver* chain_ = nullptr;
  /// Firings contributed by reentrant inner run() calls during the active
  /// run — subtracted so RunReport::fired stays "fired in THIS run".
  std::uint64_t nested_fired_ = 0;
  /// RunOptions::worker_count of the active run (0 when unset / outside a
  /// run); see effective_worker_width.
  int run_worker_count_ = 0;
};

// ---------------------------------------------------------------------------
// Factory

/// Everything needed to build any backend; backends read the fields they
/// understand and ignore the rest.
struct ExecutorConfig {
  ExecutorKind kind = ExecutorKind::Sequential;
  /// Round backstop (max_steps of the old sequential scheduler, max_rounds
  /// of the parallel ones).
  std::uint64_t max_steps = 1'000'000;

  // Sequential cost model:
  SimTime sched_per_transition = SimTime::from_us(3);
  SimTime scan_per_guard = SimTime::from_us(1);

  // Simulated-multiprocessor backend:
  int processors = 4;
  Mapping mapping = Mapping::ThreadPerModule;
  sim::CostModel costs{};

  // FreeRunning: the worker width it may use. 0 ⇒ hardware_concurrency()
  // (see resolve_worker_count). At or above the shard count the shards run
  // as continuations on a pool of exactly one thread per shard; below it
  // every round is a barrier round on the calling thread.
  // RunOptions::worker_count overrides this per run. Other backends ignore
  // it.
  int threads = 0;

  /// Debug cross-check: after every dirty-set candidate collection, run the
  /// reference full scan too and throw std::logic_error on any divergence.
  /// The differential suites run with this on; it defeats the speedup, so
  /// keep it off in production.
  bool verify_ready_set = false;

  /// Escape hatch for backends registered out of tree: their creator reads
  /// whatever typed options it expects from here, so new runtimes get
  /// configuration without widening this struct.
  std::any backend_options;
};

/// Registry mapping ExecutorKind to a constructor. The built-in runtimes
/// are pre-registered; out-of-tree backends add themselves with
/// register_backend() and immediately work at every make_executor call site.
class ExecutorFactory {
 public:
  using Creator = std::function<std::unique_ptr<Executor>(
      Specification&, const ExecutorConfig&)>;

  static ExecutorFactory& instance();

  void register_backend(ExecutorKind kind, std::string name, Creator create);
  [[nodiscard]] std::unique_ptr<Executor> create(
      Specification& spec, const ExecutorConfig& cfg) const;
  [[nodiscard]] bool known(ExecutorKind kind) const noexcept;
  [[nodiscard]] std::vector<ExecutorKind> kinds() const;
  /// Registered name of `kind` ("?" if unregistered); the inverse of
  /// kind_by_name. executor_kind_name/executor_kind_from_name route through
  /// these, so registered out-of-tree backends round-trip names too.
  [[nodiscard]] const char* name_of(ExecutorKind kind) const noexcept;
  [[nodiscard]] bool kind_by_name(const std::string& name,
                                  ExecutorKind* out) const noexcept;

 private:
  ExecutorFactory();

  struct Entry {
    ExecutorKind kind;
    const std::string* name;  // interned in names_; stable for process life
    Creator create;
  };
  /// Grow-only intern pool: pointers returned by name_of() stay valid
  /// across later registrations (including re-registration of a kind).
  std::deque<std::string> names_;
  std::vector<Entry> entries_;
};

/// Build a runtime for `spec`. The one constructor every call site uses:
///   auto ex = make_executor(spec);                                // sequential
///   auto ex = make_executor(spec, {.kind = ExecutorKind::ParallelSim,
///                                  .processors = 8});
[[nodiscard]] std::unique_ptr<Executor> make_executor(
    Specification& spec, const ExecutorConfig& cfg = {});

}  // namespace mcam::estelle
