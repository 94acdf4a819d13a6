#include "estelle/shard_executor.hpp"

#include <algorithm>
#include <exception>

#include "estelle/sched.hpp"
#include "estelle/shard_round.hpp"

namespace mcam::estelle {

ShardedExecutor::ShardedExecutor(Specification& spec,
                                 const ExecutorConfig& cfg)
    : ExecutorBase(spec, cfg.max_steps),
      sched_per_transition_(cfg.sched_per_transition),
      scan_per_guard_(cfg.scan_per_guard),
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

void ShardedExecutor::route_ready_ledger() {
  // Route dirty modules to their shards' ready sets, reseeding wholesale
  // when the topology moved, another consumer drained the ledger before us,
  // or this is the first use. Shared by the barrier round (every round) and
  // the free-running path (every session start), so the invalidation rules
  // cannot diverge between them.
  ReadyLedger& ledger = spec_.ready_ledger();
  const bool owner_changed = ledger.acquire(this);
  if (!seeded_ || owner_changed || seen_version_ != spec_.topology_version()) {
    reseed_ready();
  } else {
    ledger.drain([this](Module& m) {
      const int s = m.shard();
      if (s >= 0 && s < static_cast<int>(shards_.size()))
        shards_[static_cast<std::size_t>(s)].ready.mark(m);
    });
  }
}

void ShardedExecutor::reseed_ready() {
  seeded_ = true;
  seen_version_ = spec_.topology_version();
  // Queued ledger entries may point at destroyed modules; forget them
  // without looking, then rebuild from the live tree.
  spec_.ready_ledger().clear_unsafe();
  std::uint32_t preorder = 0;
  spec_.root().for_each(
      [&](Module& m) { ReadyScope::reset_module(m, preorder++); });
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].ready.clear();
    shards_[s].boundary.clear();
    for (Module* m : analysis_->shards()[s].modules) shards_[s].ready.mark(*m);
  }
  for (const CrossShardChannel& ch : analysis_->cross_shard_channels()) {
    shards_[static_cast<std::size_t>(ch.shard_a)].boundary.push_back(ch.a);
    shards_[static_cast<std::size_t>(ch.shard_b)].boundary.push_back(ch.b);
  }
}

bool ShardedExecutor::begin_round(int s, std::uint64_t r, SimTime floor,
                                  std::uint64_t* min_future) {
  ShardState& shard = shards_[static_cast<std::size_t>(s)];
  shard.delta = RoundDelta{};
  shard.fired_log.clear();
  // Accept everything sent before this round; later-stamped arrivals stay
  // parked. A message sent at sender-time t is never processed at
  // receiver-time < t: the watermark raises the clock first.
  SimTime wm = shard.clock;
  for (InteractionPoint* ip : shard.boundary)
    ip->drain_transfers_until(r - 1, &wm, min_future);
  if (wm > shard.clock) shard.clock = wm;

  bool allocated = false;
  const auto collect = [&] {
    shard.ready.collect(shard.clock);
    shard.delta.guards += shard.ready.round_guards();
    allocated = allocated || shard.ready.round_allocated();
  };
  collect();
  if (shard.ready.candidates().empty() && shard.clock < floor) {
    // An idle shard follows the group clock (system modules are
    // asynchronous, so advancing an idle one is always legal); collecting
    // again pops the delay deadlines the raise matured.
    shard.clock = floor;
    collect();
  }
  if (allocated) ++shard.delta.alloc_rounds;
  const std::vector<FiringCandidate>& cands = shard.ready.candidates();
  if (verify_)
    verify_against_full_scan(
        {analysis_->shards()[static_cast<std::size_t>(s)].system_module},
        shard.clock, cands);
  return !cands.empty();
}

bool ShardedExecutor::barrier_round(std::uint64_t r,
                                    const std::vector<int>& ids,
                                    const FiringTap& tap) {
  route_ready_ledger();
  RunObserver* const obs = observer();
  const bool announce = obs != nullptr || static_cast<bool>(tap);
  ReadyLedger& ledger = spec_.ready_ledger();
  bool allocated = ledger.capacity() != ledger_capacity_seen_;
  ledger_capacity_seen_ = ledger.capacity();

  // Every shard drains and collects before any fires, with the group clock
  // as the idle shards' floor.
  std::size_t firing = 0;
  for (const int s : ids) {
    LocalReadyScopeBinding binding(shards_[static_cast<std::size_t>(s)].ready,
                                   s);
    if (begin_round(s, r, now_, nullptr)) ++firing;
  }

  // The firing shards run in id order. A throwing action stops the round
  // there, as it stops a sequential one: later shards do not fire.
  std::exception_ptr error;
  for (const int s : ids) {
    ShardState& shard = shards_[static_cast<std::size_t>(s)];
    if (shard.ready.candidates().empty()) continue;
    LocalReadyScopeBinding binding(shard.ready, s);
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
    if (shard.clock > now_) now_ = shard.clock;
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
  for (const int s : ids)
    wake = std::min(
        wake, shards_[static_cast<std::size_t>(s)].ready.next_deadline());
  if (wake == kNeverTime) return false;  // quiescent
  advance_clock_toward(wake);
  for (const int s : ids) {
    ShardState& shard = shards_[static_cast<std::size_t>(s)];
    if (shard.clock < now_) shard.clock = now_;
  }
  return true;
}

bool ShardedExecutor::step() {
  ensure_analysis();
  return barrier_round(++barrier_rounds_, shard_ids_, {});
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
    out.clock = shards_[s].clock;
    report.shards.push_back(std::move(out));
  }
}

}  // namespace mcam::estelle
