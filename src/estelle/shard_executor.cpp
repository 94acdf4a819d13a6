#include "estelle/shard_executor.hpp"

#include <algorithm>
#include <exception>

#include "estelle/sched.hpp"
#include "estelle/shard_round.hpp"

namespace mcam::estelle {

ShardedExecutor::ShardedExecutor(Specification& spec,
                                 const ExecutorConfig& cfg)
    : ExecutorBase(spec, cfg.max_steps, false),
      verify_(cfg.verify_ready_set) {}

void ShardedExecutor::ensure_analysis() {
  if (!analysis_) {
    analysis_ = std::make_unique<ConflictAnalysis>(spec_);
    // The system-module population is frozen (R6), so the shard vector is
    // sized exactly once; refreshes change subtree membership only.
    shards_.resize(static_cast<std::size_t>(analysis_->shard_count()));
    for (std::size_t s = 0; s < shards_.size(); ++s)
      shard_ids_.push_back(static_cast<int>(s));
  } else {
    analysis_->refresh();
  }
}

bool ShardedExecutor::begin_round(int s, std::uint64_t r, SimTime floor,
                                  std::uint64_t* min_future) {
  ShardState& shard = shards_[static_cast<std::size_t>(s)];
  const ShardInfo& info = analysis_->shards()[static_cast<std::size_t>(s)];
  ReadyScope& ready = spec_.ready_set().scope(s);
  SimTime& clock = ready.clock();
  shard.delta = RoundDelta{};
  shard.fired_log.clear();
  // Accept everything sent before this round; later-stamped arrivals stay
  // parked. A message sent at sender-time t is never processed at
  // receiver-time < t: the watermark raises the clock first.
  SimTime wm = clock;
  for (InteractionPoint* ip : info.boundary)
    ip->drain_transfers_until(r - 1, &wm, min_future);
  if (wm > clock) clock = wm;

  bool allocated = false;
  const auto collect = [&] {
    ready.collect(clock);
    shard.delta.guards += ready.round_guards();
    allocated = allocated || ready.round_allocated();
  };
  collect();
  if (ready.candidates().empty() && clock < floor) {
    // An idle shard follows the group clock (system modules are
    // asynchronous, so advancing an idle one is always legal); collecting
    // again pops the delay deadlines the raise matured.
    clock = floor;
    collect();
  }
  if (allocated) ++shard.delta.alloc_rounds;
  const std::vector<FiringCandidate>& cands = ready.candidates();
  if (verify_) verify_against_full_scan(*info.system_module, clock, cands);
  return !cands.empty();
}

bool ShardedExecutor::barrier_round(const std::vector<int>& ids,
                                    const FiringTap& tap) {
  SpecReadySet& ready = spec_.ready_set();
  bool allocated = ready.refresh();
  const std::uint64_t r = ready.round_line() + 1;
  ready.set_round_line(r);
  RunObserver* const obs = observer();
  const bool announce = obs != nullptr || static_cast<bool>(tap);

  // Every shard drains and collects before any fires, with the group clock
  // as the idle shards' floor.
  std::size_t firing = 0;
  for (const int s : ids) {
    LocalReadyScopeBinding binding(spec_, s);
    if (begin_round(s, r, now_, nullptr)) ++firing;
  }

  // The firing shards run in id order. A throwing action stops the round
  // there, as it stops a sequential one: later shards do not fire.
  std::exception_ptr error;
  for (const int s : ids) {
    ShardState& shard = shards_[static_cast<std::size_t>(s)];
    if (ready.scope(s).candidates().empty()) continue;
    LocalReadyScopeBinding binding(spec_, s);
    try {
      fire_round(s, r, announce,
                 [&shard](const FiringCandidate& c, SimTime at) {
                   shard.fired_log.push_back({c, at});
                 });
    } catch (...) {
      error = std::current_exception();
      break;
    }
  }

  // Announce-after-revalidation: replay each shard's log of *actual*
  // firings in shard id order then firing order, at their true shard-clock
  // times; then fold the deltas. The executor clock is the virtual makespan
  // over shard clocks.
  for (const int s : ids) {
    ShardState& shard = shards_[static_cast<std::size_t>(s)];
    for (const FiredEvent& e : shard.fired_log) {
      if (tap) tap(r, s, *e.candidate.module, *e.candidate.transition, e.at);
      if (obs != nullptr)
        obs->on_fire(*e.candidate.module, *e.candidate.transition, e.at);
    }
    const RoundDelta& d = shard.delta;
    shard.fired += d.fired;
    shard.rounds += d.rounds;
    stats_.guards_examined += d.guards;
    stats_.candidates_considered += d.cands;
    stats_.fired += d.fired;
    stats_.busy += d.busy;
    stats_.sched_time += d.sched;
    allocated = allocated || d.alloc_rounds != 0;
    now_ = std::max(now_, ready.scope(s).clock());
  }
  if (allocated) ++stats_.rounds_with_allocation;
  if (error) std::rethrow_exception(error);
  if (firing > 0) {
    ++stats_.rounds;
    return true;
  }

  // Nothing fired: the group leaps to its earliest queued delay deadline,
  // clamped by the run's deadline; the next round's collects pop whatever
  // the jump matured. This is the only leap to a deadline: an idle shard
  // never runs ahead to one of its own while another shard is busy.
  SimTime wake = kNeverTime;
  for (const int s : ids) wake = std::min(wake, ready.scope(s).next_deadline());
  if (wake == kNeverTime) return false;  // quiescent
  advance_clock_toward(wake);
  for (const int s : ids) {
    SimTime& clock = ready.scope(s).clock();
    clock = std::max(clock, now_);
  }
  return true;
}

void ShardedExecutor::decorate_report(RunReport& report) {
  if (!analysis_) return;
  report.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardInfo& info = analysis_->shards()[s];
    ShardRunStats out;
    out.shard = info.id;
    out.system_module = info.system_module->path();
    out.uniprocessor_host = info.uniprocessor_host;
    out.fired = shards_[s].fired;
    out.rounds = shards_[s].rounds;
    out.clock = spec_.ready_set().scope(info.id).clock();
    report.shards.push_back(std::move(out));
  }
}

}  // namespace mcam::estelle
