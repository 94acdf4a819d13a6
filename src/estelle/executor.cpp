#include "estelle/executor.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "estelle/free_executor.hpp"
#include "estelle/module.hpp"
#include "estelle/ready_set.hpp"
#include "estelle/sched.hpp"
#include "estelle/transport/dist_runner.hpp"

namespace mcam::estelle {

const char* mapping_name(Mapping m) noexcept {
  switch (m) {
    case Mapping::ThreadPerModule:
      return "thread-per-module";
    case Mapping::GroupedUnits:
      return "grouped-units";
    case Mapping::ConnectionPerProcessor:
      return "connection-per-processor";
    case Mapping::LayerPerProcessor:
      return "layer-per-processor";
  }
  return "?";
}

const char* executor_kind_name(ExecutorKind k) noexcept {
  switch (k) {
    case ExecutorKind::Sequential:
      return "sequential";
    case ExecutorKind::ParallelSim:
      return "parallel-sim";
    case ExecutorKind::FreeRunning:
      return "free-running";
    case ExecutorKind::Distributed:
      return "distributed";
  }
  return "?";
}

int resolve_worker_count(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

const char* stop_reason_name(StopReason r) noexcept {
  switch (r) {
    case StopReason::Quiescent:
      return "quiescent";
    case StopReason::PredicateSatisfied:
      return "predicate-satisfied";
    case StopReason::DeadlineReached:
      return "deadline-reached";
    case StopReason::StepLimit:
      return "step-limit";
    case StopReason::Aborted:
      return "aborted";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// StopCondition

StopReason StopCondition::reason() const noexcept {
  switch (kind_) {
    case Kind::Predicate:
      return StopReason::PredicateSatisfied;
    case Kind::Deadline:
      return StopReason::DeadlineReached;
    case Kind::StepLimit:
      return StopReason::StepLimit;
  }
  return StopReason::Quiescent;
}

bool StopCondition::satisfied(SimTime now, std::uint64_t steps) const {
  switch (kind_) {
    case Kind::Predicate:
      return pred_ && pred_();
    case Kind::Deadline:
      return now >= deadline_;
    case Kind::StepLimit:
      return steps >= max_steps_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Executor

RunReport Executor::run_until(std::function<bool()> pred) {
  RunOptions opts;
  opts.stop.push_back(StopCondition::when(std::move(pred)));
  return run(opts);
}

void Executor::add_run_observer(RunObserver* observer) {
  if (observer == nullptr) return;
  for (RunObserver* o : run_observers_)
    if (o == observer) return;  // idempotent
  run_observers_.push_back(observer);
}

void Executor::remove_run_observer(RunObserver* observer) noexcept {
  run_observers_.erase(
      std::remove(run_observers_.begin(), run_observers_.end(), observer),
      run_observers_.end());
}

// ---------------------------------------------------------------------------
// ExecutorBase

namespace {
std::atomic<std::uint64_t> g_next_executor_id{1};
}  // namespace

ExecutorBase::ExecutorBase(Specification& spec, std::uint64_t step_limit,
                           bool one_clock)
    : spec_(spec),
      step_limit_(step_limit),
      id_(g_next_executor_id.fetch_add(1, std::memory_order_relaxed)),
      one_clock_(one_clock) {}

/// Fans one notification out to the executor's persistent run_observers()
/// followed by the run's RunOptions::observers. An observer present in both
/// lists is notified once, not twice.
class ExecutorBase::Chain final : public RunObserver {
 public:
  Chain(const std::vector<RunObserver*>& persistent,
        const std::vector<RunObserver*>& observers) {
    observers_.reserve(persistent.size() + observers.size());
    for (RunObserver* o : persistent)
      if (o != nullptr) observers_.push_back(o);
    for (RunObserver* o : observers) {  // tolerate optional (null) observers
      if (o == nullptr) continue;
      if (std::find(observers_.begin(), observers_.end(), o) ==
          observers_.end())
        observers_.push_back(o);
    }
  }

  void on_run_begin(Executor& ex) override {
    for (RunObserver* o : observers_) o->on_run_begin(ex);
  }
  void on_fire(const Module& m, const Transition& t, SimTime now) override {
    for (RunObserver* o : observers_) o->on_fire(m, t, now);
  }
  void on_round_end(Executor& ex, std::uint64_t round) override {
    for (RunObserver* o : observers_) o->on_round_end(ex, round);
  }
  void on_report(Executor& ex, RunReport& report) override {
    for (RunObserver* o : observers_) o->on_report(ex, report);
  }
  void on_run_end(Executor& ex, const RunReport& report) override {
    for (RunObserver* o : observers_) o->on_run_end(ex, report);
  }

  [[nodiscard]] bool empty() const noexcept { return observers_.empty(); }

 private:
  std::vector<RunObserver*> observers_;
};

RunReport ExecutorBase::run(const RunOptions& opts) {
  Chain chain(run_observers(), opts.observers);
  // Save/restore the active chain (exception-safe): a stop predicate or a
  // between-round hook may reentrantly run() this executor, and the outer
  // run's observers must keep seeing events afterwards. (Reentry from
  // on_fire is NOT safe — see RunObserver::on_fire.)
  struct ChainScope {
    ExecutorBase& self;
    RunObserver* prev;
    ~ChainScope() { self.chain_ = prev; }
  } scope{*this, chain_};
  // An empty chain is not installed at all: backends test observer() to
  // decide whether to do per-firing announcement work, and a no-observer
  // run should pay none of it. The local `chain` still delivers the
  // lifecycle hooks below (harmless no-ops when empty).
  chain_ = chain.empty() ? nullptr : &chain;

  // Firings of reentrant inner run() calls are attributed to those runs'
  // reports, not this one's (`fired` means "fired in this run").
  const std::uint64_t fired_before = stats_.fired;
  const std::uint64_t guards_before = stats_.guards_examined;
  const std::uint64_t cands_before = stats_.candidates_considered;
  const std::uint64_t allocs_before = stats_.rounds_with_allocation;
  const std::uint64_t prev_nested = nested_fired_;
  nested_fired_ = 0;

  // Bound idle clock jumps by this run's earliest deadline, and expose the
  // tightest step budget / predicate presence so burst-running backends can
  // pace themselves to exact cutoffs (saved/restored for reentrancy).
  const SimTime prev_deadline = run_deadline_;
  const std::uint64_t prev_step_limit = run_step_limit_;
  const std::uint64_t prev_run_steps = run_steps_;
  const bool prev_has_predicate = run_has_predicate_;
  run_deadline_ = kNeverTime;
  run_step_limit_ = std::numeric_limits<std::uint64_t>::max();
  run_steps_ = 0;
  run_has_predicate_ = false;
  for (const StopCondition& c : opts.stop) {
    if (c.kind() == StopCondition::Kind::Deadline &&
        c.deadline_time() < run_deadline_)
      run_deadline_ = c.deadline_time();
    if (c.kind() == StopCondition::Kind::StepLimit &&
        c.step_budget() < run_step_limit_)
      run_step_limit_ = c.step_budget();
    if (c.kind() == StopCondition::Kind::Predicate) run_has_predicate_ = true;
  }
  struct DeadlineScope {
    ExecutorBase& self;
    SimTime prev;
    std::uint64_t prev_limit;
    std::uint64_t prev_steps;
    bool prev_pred;
    ~DeadlineScope() {
      self.run_deadline_ = prev;
      self.run_step_limit_ = prev_limit;
      self.run_steps_ = prev_steps;
      self.run_has_predicate_ = prev_pred;
    }
  } deadline_scope{*this, prev_deadline, prev_step_limit, prev_run_steps,
                   prev_has_predicate};

  // Another executor may have run this specification further: start from
  // the time it reached, and pick up what it left (see the constructor).
  SpecReadySet& time_line = spec_.ready_set();
  now_ = std::max(now_, time_line.reached_time());
  if (spec_.claim(id_) && one_clock_) {
    spec_.root().for_each([](Module& m) {
      for (const auto& ip : m.ips())
        if (ip->has_pending_transfers()) ip->drain_transfers();
    });
  }

  const auto make_report = [&](StopReason reason, std::uint64_t steps) {
    finalize_stats();
    stats_.time = now_;
    if (one_clock_) time_line.raise_clocks(now_);
    RunReport report;
    report.kind = kind();
    report.reason = reason;
    report.steps = steps;
    report.fired = stats_.fired - fired_before - nested_fired_;
    report.stats = stats_;
    report.time = now_;
    report.guards_examined = stats_.guards_examined - guards_before;
    report.candidates_considered =
        stats_.candidates_considered - cands_before;
    report.rounds_with_allocation =
        stats_.rounds_with_allocation - allocs_before;
    nested_fired_ = prev_nested + (stats_.fired - fired_before);
    decorate_report(report);
    chain.on_report(*this, report);
    return report;
  };

  StopReason reason = StopReason::Quiescent;
  std::uint64_t steps = 0;
  try {
    chain.on_run_begin(*this);
    for (;;) {
      std::optional<StopReason> stop;
      for (const StopCondition& c : opts.stop) {
        if (c.satisfied(now_, steps)) {
          stop = c.reason();
          break;
        }
      }
      if (!stop && steps >= step_limit_) stop = StopReason::StepLimit;
      if (stop) {
        reason = *stop;
        break;
      }
      last_step_rounds_ = 1;
      if (!step()) {
        reason = StopReason::Quiescent;
        break;
      }
      // A burst-running backend may have completed many global rounds
      // inside this one step(); count them all so steps and the stop
      // conditions keep their round semantics. on_round_end then fires once
      // per burst, with the cumulative round count.
      steps += std::exchange(last_step_rounds_, 1);
      run_steps_ = steps;
      chain.on_round_end(*this, steps);
    }
  } catch (...) {
    // Keep begin/end-paired observers balanced: deliver on_run_end with the
    // partial report before the exception propagates. A throwing step()
    // completed last_step_rounds_ - 1 rounds before the one that threw.
    steps += std::exchange(last_step_rounds_, 1) - 1;
    chain.on_run_end(*this, make_report(StopReason::Aborted, steps));
    throw;
  }

  RunReport report = make_report(reason, steps);
  chain.on_run_end(*this, report);
  return report;
}

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<Executor> make_executor(Specification& spec,
                                        const ExecutorConfig& cfg) {
  switch (cfg.kind) {
    case ExecutorKind::Sequential:
      return std::make_unique<SequentialScheduler>(spec, cfg);
    case ExecutorKind::ParallelSim:
      return std::make_unique<ParallelSimScheduler>(spec, cfg);
    case ExecutorKind::FreeRunning:
      return std::make_unique<FreeRunningExecutor>(spec, cfg);
    case ExecutorKind::Distributed:
      return std::make_unique<DistributedRunner>(spec, cfg);
  }
  throw std::invalid_argument("unknown ExecutorKind " +
                              std::to_string(static_cast<int>(cfg.kind)));
}

}  // namespace mcam::estelle
