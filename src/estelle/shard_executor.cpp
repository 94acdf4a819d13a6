#include "estelle/shard_executor.hpp"

#include <algorithm>

#include "estelle/sched.hpp"

namespace mcam::estelle {

ShardedExecutor::ShardedExecutor(Specification& spec,
                                 const ExecutorConfig& cfg)
    : ExecutorBase(spec, cfg.max_steps),
      workers_(cfg.threads),
      sched_per_transition_(cfg.sched_per_transition),
      scan_per_guard_(cfg.scan_per_guard),
      verify_(cfg.verify_ready_set) {}

int ShardedExecutor::unit_count() const noexcept {
  if (pool_) return pool_->worker_count();
  // Apply the shard-count cap as soon as the analysis exists, so the value
  // is stable from the first round on (before any analysis it can only
  // report the uncapped width).
  return analysis_ ? effective_workers() : resolve_worker_count(workers_);
}

void ShardedExecutor::ensure_analysis() {
  if (!analysis_) {
    analysis_ = std::make_unique<ConflictAnalysis>(spec_);
    // The system-module population is frozen (R6), so the shard vector is
    // sized exactly once; refreshes change subtree membership only.
    shards_.resize(static_cast<std::size_t>(analysis_->shard_count()));
    for (std::size_t s = 0; s < shards_.size(); ++s)
      shards_[s].owner = static_cast<int>(s);
  } else {
    analysis_->refresh();
  }
}

int ShardedExecutor::effective_workers() const noexcept {
  // Stealing moves whole shards, so workers beyond the shard count could
  // never be busy — cap the width there.
  return std::clamp(effective_worker_width(workers_), 1,
                    std::max(1, analysis_->shard_count()));
}

WorkerPool& ShardedExecutor::ensure_pool_width(int want) {
  if (!pool_ || pool_->worker_count() != want) {
    // Quiesce first: a free-running session still has continuation tasks
    // parked inside the old pool, and destroying it would join on them
    // forever (the stranded-continuation bug this hook fixes).
    before_pool_resize();
    pool_ = std::make_unique<WorkerPool>(want);
  }
  return *pool_;
}

void ShardedExecutor::route_ready_ledger() {
  // Route dirty modules to their shards' ready sets, reseeding wholesale
  // when the topology moved, another consumer drained the ledger before us,
  // or this is the first use. Shared by the epoch path (every epoch) and
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
    for (Module* m : analysis_->shards()[s].modules) shards_[s].ready.mark(*m);
  }
}

std::size_t ShardedExecutor::collect_epoch() {
  // Phase 1 of the two-phase mailbox, for every shard first: accept
  // everything other shards sent since its last round, raising the clock to
  // the watermark so no message is processed "before" it was sent. Each
  // accepted arrival marks its module in the ready ledger, so the drain
  // below routes it into the owning shard's ready set this same epoch.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& shard = shards_[s];
    const ShardInfo& info = analysis_->shards()[s];
    SimTime watermark = shard.clock;
    for (Module* m : info.modules)
      for (const auto& ip : m->ips()) ip->drain_transfers(&watermark);
    if (watermark > shard.clock) shard.clock = watermark;
    shard.epoch_busy = SimTime{};
    shard.epoch_sched = SimTime{};
    shard.epoch_fired = 0;
    shard.scan_effort = 0;
  }

  route_ready_ledger();

  std::size_t active = 0;
  bool allocated =
      spec_.ready_ledger().capacity() != ledger_capacity_seen_;
  ledger_capacity_seen_ = spec_.ready_ledger().capacity();
  std::uint64_t considered = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& shard = shards_[s];
    shard.ready.collect(shard.clock);
    shard.scan_effort += static_cast<int>(shard.ready.round_guards());
    allocated = allocated || shard.ready.round_allocated();
    if (shard.ready.candidates().empty() && shard.clock < now_) {
      // An idle shard stops advancing its own clock, but other shards keep
      // running; pull it up to the executor clock every epoch (system
      // modules are asynchronous, so this is always legal) so its delay
      // clauses mature interleaved with the busy shards' work rather than
      // only at global quiescence. Re-collecting pops the delay deadlines
      // the jump matured.
      shard.clock = now_;
      shard.ready.collect(shard.clock);
      shard.scan_effort += static_cast<int>(shard.ready.round_guards());
      allocated = allocated || shard.ready.round_allocated();
    }
    const std::vector<FiringCandidate>& cands = shard.ready.candidates();
    if (verify_)
      verify_against_full_scan({analysis_->shards()[s].system_module},
                               shard.clock, cands);
    stats_.guards_examined += static_cast<std::uint64_t>(shard.scan_effort);
    considered += cands.size();
    if (!cands.empty()) ++active;
  }
  stats_.candidates_considered += considered;
  if (allocated) ++stats_.rounds_with_allocation;
  return active;
}

void ShardedExecutor::run_shard_round(ShardState& shard, int shard_id) {
  // Everything this round outputs to a foreign shard detours into that
  // shard's transfer mailbox, stamped with our round-start clock.
  ShardExecutionScope scope(shard_id, shard.clock);

  const SimTime scan_cost{scan_per_guard_.ns * shard.scan_effort};
  shard.clock += scan_cost;
  shard.epoch_sched += scan_cost;

  for (const FiringCandidate& c : shard.ready.candidates()) {
    // Same revalidation discipline as the sequential scheduler: an earlier
    // firing of this round (same shard, same thread) may have consumed the
    // state this candidate depends on.
    if (!is_fireable(*c.transition, *c.module, shard.clock)) continue;
    shard.clock += sched_per_transition_;
    shard.epoch_sched += sched_per_transition_;
    shard.clock += c.transition->cost;
    shard.epoch_busy += c.transition->cost;
    // Log what actually fires, at its actual fire time; the coordinating
    // thread replays the log to observers after the epoch barrier
    // (announce-after-revalidation). Unobserved runs skip the bookkeeping.
    if (announce_) shard.fired_log.push_back({c, shard.clock});
    fire(c, shard.clock, nullptr);
    ++shard.epoch_fired;
  }
  ++shard.rounds;
  shard.fired += shard.epoch_fired;
}

bool ShardedExecutor::step() {
  ensure_analysis();
  // Whether this epoch's rounds must log their firings for the post-barrier
  // replay (written here on the run thread, read by workers after the pool
  // mutex's happens-before edge).
  announce_ = observer() != nullptr;

  // collect_epoch keeps idle shards synced to now_, so when nothing is
  // active every state-entry stamp is <= now_ and the per-shard deadline
  // heaps below see every pending delay.
  const std::size_t active = collect_epoch();
  if (active == 0) {
    // O(log n) wakeup: leap to the earliest deadline queued in any shard's
    // heap, clamped by the run's deadline; the next epoch's per-shard
    // collects pop whatever the jump matured.
    SimTime wake = kNeverTime;
    for (const ShardState& shard : shards_) {
      const SimTime d = shard.ready.next_deadline();
      if (d < wake) wake = d;
    }
    if (wake == kNeverTime) return false;  // quiescent
    advance_clock_toward(wake);
    for (ShardState& shard : shards_)
      if (shard.clock < now_) shard.clock = now_;
    return true;
  }

  // Deal active shards to the persistent pool by current ownership, then
  // release the epoch (no thread construction here — the pool's workers are
  // parked between epochs). A specification with statically detected
  // conflicts, or an epoch with a single active shard, runs inline on this
  // thread: still sharded and mailbox-routed, but serialized, hence
  // race-free whatever the spec does.
  active_ids_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!shards_[s].ready.candidates().empty())
      active_ids_.push_back(static_cast<int>(s));

  // A width-1 epoch runs inline: a single worker adds nothing but a
  // park/unpark round-trip per epoch (it matters on small hosts, where the
  // default width resolves to 1).
  if (!analysis_->conflict_free() || active < 2 ||
      effective_workers() < 2) {
    for (int s : active_ids_)
      run_shard_round(shards_[static_cast<std::size_t>(s)], s);
  } else {
    WorkerPool& pool = ensure_pool();
    const int nworkers = pool.worker_count();
    for (int s : active_ids_) {
      ShardState& shard = shards_[static_cast<std::size_t>(s)];
      shard.home = shard.owner % nworkers;
      // The 16-byte [this, s] capture fits std::function's inline storage:
      // dealing an epoch allocates nothing.
      pool.submit(shard.home, [this, s](int w) {
        ShardState& sh = shards_[static_cast<std::size_t>(s)];
        // The helping coordinator (pseudo-worker id == worker_count()) is
        // not a steal and does not re-home the shard: steals stays "a
        // worker took it from another's queue", and affinity survives
        // coordinator-heavy epochs on low-core hosts.
        if (w < pool_->worker_count()) {
          if (w != sh.home) ++sh.steals;
          sh.owner = w;  // ownership follows the thief across epochs
        }
        run_shard_round(sh, s);
      });
    }
    // Coordinator participation: the run thread drains shard rounds
    // alongside the workers instead of parking across the epoch barrier.
    pool.run_epoch_helping();
  }

  // Announce-after-revalidation: replay each shard's log of *actual*
  // firings to observers, on this thread, in shard id order then firing
  // order. Only revalidated firings are announced (at their true shard-clock
  // times), so the announced trace matches the sequential scheduler even on
  // specifications that are ill-formed within one shard. See the header
  // comment for the on_fire timing caveat this introduces.
  if (RunObserver* obs = observer()) {
    for (const ShardState& shard : shards_)
      for (const FiredEvent& e : shard.fired_log)
        obs->on_fire(*e.candidate.module, *e.candidate.transition, e.at);
  }
  for (ShardState& shard : shards_) shard.fired_log.clear();

  // Aggregate the epoch into the executor-lifetime counters; the executor
  // clock is the virtual makespan over shard clocks.
  for (const ShardState& shard : shards_) {
    stats_.fired += shard.epoch_fired;
    stats_.busy += shard.epoch_busy;
    stats_.sched_time += shard.epoch_sched;
    if (shard.clock > now_) now_ = shard.clock;
  }
  ++stats_.rounds;
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
    out.steals = shards_[s].steals;
    out.clock = shards_[s].clock;
    report.shards.push_back(std::move(out));
  }
}

}  // namespace mcam::estelle
