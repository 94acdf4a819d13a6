#include "estelle/free_executor.hpp"

#include <algorithm>

#include "estelle/ready_set.hpp"
#include "estelle/sched.hpp"
#include "estelle/shard_round.hpp"

namespace mcam::estelle {

FreeRunningExecutor::FreeRunningExecutor(Specification& spec,
                                         const ExecutorConfig& cfg)
    : ShardedExecutor(spec, cfg), workers_(cfg.threads) {}

FreeRunningExecutor::~FreeRunningExecutor() { end_session(); }

int FreeRunningExecutor::unit_count() const noexcept {
  return pool_ ? pool_->worker_count() : 1;
}

bool FreeRunningExecutor::free_runnable() const noexcept {
  // An unproven spec may couple shards outside the mailbox discipline, so
  // it takes the barrier path. The run must also ask for one thread per
  // shard: the neighbor gates wait on every shard's continuation.
  if (analysis_ == nullptr || !analysis_->conflict_free()) return false;
  return effective_worker_width(workers_) >= analysis_->shard_count();
}

void FreeRunningExecutor::finalize_stats() { end_session(); }

void FreeRunningExecutor::decorate_report(RunReport& report) {
  ShardedExecutor::decorate_report(report);
  report.free_running = free_stats_;
}

// ---------------------------------------------------------------------------
// Run-thread session lifecycle

void FreeRunningExecutor::start_session() {
  const std::size_t nshards = shards_.size();
  // The shard population is frozen (R6), so one worker per shard, built
  // once, hosts every session.
  if (!pool_) pool_ = std::make_unique<WorkerPool>(static_cast<int>(nshards));

  // Same reseed / ledger-ownership / routing policy as the barrier path.
  route_ready_ledger();

  // Absorb transfers left parked by a stopped previous run: their round
  // stamps belong to a dead numbering, and this session starts from a clean
  // mailbox state (the watermark rule still raises the receiving clock).
  for (ShardState& shard : shards_) {
    SimTime wm = shard.clock;
    for (InteractionPoint* ip : shard.boundary) ip->drain_transfers(&wm);
    if (wm > shard.clock) shard.clock = wm;
  }

  // (Re)wire the persistent slots; everything here is high-water sized so a
  // warmed executor restarts sessions without allocating.
  while (slots_.size() < nshards) slots_.push_back(std::make_unique<Slot>());
  std::size_t footprint = slots_.capacity();
  for (std::size_t s = 0; s < nshards; ++s) {
    Slot& slot = *slots_[s];
    slot.advertised.store(0, std::memory_order_relaxed);
    slot.completed = 0;
    slot.log_head.store(0, std::memory_order_relaxed);
    slot.log_tail.store(0, std::memory_order_relaxed);
    slot.state = SlotState::Running;
    slot.gate_target = -1;
    slot.gate_need = 0;
    slot.wake_pending = false;
    slot.neighbors.clear();
    // A full ring must always hold a drainable prefix of completed rounds,
    // so capacity strictly exceeds any single round's firing set (bounded
    // by the shard's module count).
    const std::size_t want_log =
        2 * analysis_->shards()[s].modules.size() + 64;
    if (slot.log.size() < want_log) slot.log.resize(want_log);
  }
  for (const CrossShardChannel& ch : analysis_->cross_shard_channels()) {
    Slot& a = *slots_[static_cast<std::size_t>(ch.shard_a)];
    Slot& b = *slots_[static_cast<std::size_t>(ch.shard_b)];
    if (std::find(a.neighbors.begin(), a.neighbors.end(), ch.shard_b) ==
        a.neighbors.end())
      a.neighbors.push_back(ch.shard_b);
    if (std::find(b.neighbors.begin(), b.neighbors.end(), ch.shard_a) ==
        b.neighbors.end())
      b.neighbors.push_back(ch.shard_a);
  }
  for (std::size_t s = 0; s < nshards; ++s) {
    footprint += slots_[s]->log.capacity() + slots_[s]->neighbors.capacity() +
                 shards_[s].boundary.capacity();
  }
  if (footprint != slot_footprint_seen_) {
    slot_footprint_seen_ = footprint;
    ++stats_.rounds_with_allocation;
  }

  session_topology_version_ = spec_.topology_version();
  session_base_rounds_ = 0;
  burst_all_passive_ = false;
  stop_ = false;
  stop_flag_.store(false, std::memory_order_release);
  topology_dirty_.store(false, std::memory_order_release);
  round_limit_.store(0, std::memory_order_release);
  session_deadline_ns_.store(run_deadline_.ns, std::memory_order_release);
  free_announce_.store(observer() != nullptr, std::memory_order_release);
  spec_.set_cross_shard_wake_sink(this);

  session_active_ = true;
  // Worker s runs shard s. [this] fits std::function's inline storage: no
  // allocation.
  pool_->launch([this](int s) { shard_main(s); });
}

std::uint64_t FreeRunningExecutor::end_session() {
  if (!session_active_) return 0;
  {
    std::lock_guard<std::mutex> lock(smu_);
    stop_ = true;
    stop_flag_.store(true, std::memory_order_release);
    wake_everyone_locked();
  }
  pool_->wait_idle();
  spec_.set_cross_shard_wake_sink(nullptr);
  std::uint64_t progressed = 0;
  {
    std::unique_lock<std::mutex> lock(smu_);
    merge_logs(lock, /*session_end=*/true);
    progressed = fold_locked();
  }
  // Transfers still parked carry session round stamps, at most the highest
  // round a shard completed: a later barrier round must drain all of them
  // at once, ahead of anything it sends itself.
  barrier_rounds_ = std::max(barrier_rounds_, session_base_rounds_);
  session_active_ = false;
  stop_ = false;
  stop_flag_.store(false, std::memory_order_release);
  return progressed;
}

void FreeRunningExecutor::wake_everyone_locked() {
  for (const auto& slot : slots_) slot->cv.notify_all();
  gate_cv_.notify_all();
  run_cv_.notify_all();
}

void FreeRunningExecutor::route_ledger_locked() {
  // A shard rewoken at a burst boundary resumes at the CURRENT global round
  // (everything up to session_base_rounds_ is announced): the between-burst
  // mutation is visible from the next round on, exactly where the
  // sequential scheduler would fire it.
  const auto wake_at_watermark = [this](Slot& slot) {
    if (slot.state != SlotState::Passive || slot.wake_pending) return;
    if (session_base_rounds_ > slot.completed) {
      slot.completed = session_base_rounds_;
      slot.advertised.store(slot.completed);
      if (gate_waiter_count_.load(std::memory_order_relaxed) > 0)
        gate_cv_.notify_all();
    }
    slot.wake_pending = true;
    slot.cv.notify_all();
  };
  spec_.ready_ledger().drain([this, &wake_at_watermark](Module& m) {
    const int s = m.shard();
    if (s < 0 || s >= static_cast<int>(shards_.size())) return;
    shards_[static_cast<std::size_t>(s)].ready.mark(m);
    wake_at_watermark(*slots_[static_cast<std::size_t>(s)]);
  });
  // Re-examine parked shards that still hold sticky-guard modules in their
  // ready lists: an opaque guard may read state a between-burst hook (stop
  // predicate, observer) just changed, and only a re-evaluation can see it —
  // the same conservative rule that keeps dirty-set scheduling exact.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (shards_[s].ready.has_ready()) wake_at_watermark(*slots_[s]);
  }
}

bool FreeRunningExecutor::all_blocked_locked() const {
  const std::uint64_t limit = round_limit_.load(std::memory_order_relaxed);
  const std::int64_t deadline =
      session_deadline_ns_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = *slots_[s];
    switch (slot.state) {
      case SlotState::Running:
        return false;
      case SlotState::GateWait:
        // A satisfied gate means the shard is waking — count it as running.
        if (slots_[static_cast<std::size_t>(slot.gate_target)]
                ->advertised.load(std::memory_order_relaxed) >= slot.gate_need)
          return false;
        break;
      case SlotState::LogFull: {
        const std::uint64_t depth =
            slot.log_tail.load(std::memory_order_relaxed) -
            slot.log_head.load(std::memory_order_relaxed);
        if (depth < slot.log.size()) return false;  // drained: about to wake
        break;
      }
      case SlotState::LimitParked:
        if (limit >= slot.completed + 1) return false;
        break;
      case SlotState::DeadlineParked:
        if (shards_[s].clock.ns < deadline) return false;
        break;
      case SlotState::Passive:
        if (slot.wake_pending) return false;
        break;
    }
  }
  return true;
}

bool FreeRunningExecutor::all_passive_locked() const {
  for (const auto& slot : slots_)
    if (slot->state != SlotState::Passive) return false;
  return true;
}

std::uint64_t FreeRunningExecutor::merge_logs(
    std::unique_lock<std::mutex>& lock, bool session_end) {
  // Watermark: rounds <= safe are closed — no still-active shard can add an
  // entry at or below it. A stable-passive shard produces nothing until
  // rewoken, and because its neighbors gate on its finite advertised round,
  // every wake resumes it strictly past the rounds merged while it slept —
  // so it does not bound the watermark. Once a wake is pending its next
  // entries land just past its own completed round, which caps the merge
  // until it catches up. Deadline-pinned shards produce nothing more this
  // run.
  std::uint64_t safe = kPassiveRound;
  if (!session_end) {
    for (const auto& slot : slots_) {
      if (slot->state == SlotState::DeadlineParked) continue;
      if (slot->state == SlotState::Passive && !slot->wake_pending) continue;
      safe = std::min(safe, slot->completed);
    }
  }

  // Phase 1 (locked): assemble the announce-able entries in global
  // (round, shard id) order — the sequential scheduler's document order
  // across system modules — WITHOUT consuming them. The per-slot sequence
  // is the ring followed by the abort-overflow (produced strictly later,
  // rounds monotone), the latter only ever drained at session end.
  const std::size_t n = slots_.size();
  merge_cursor_.assign(n, 0);
  merge_ovf_cursor_.assign(n, 0);
  merge_scratch_.clear();
  for (std::size_t i = 0; i < n; ++i)
    merge_cursor_[i] = slots_[i]->log_head.load(std::memory_order_relaxed);
  const auto peek = [&](std::size_t i) -> const FiredEntry* {
    Slot& slot = *slots_[i];
    if (merge_cursor_[i] != slot.log_tail.load(std::memory_order_acquire))
      return &slot.log[merge_cursor_[i] % slot.log.size()];
    if (session_end && merge_ovf_cursor_[i] < slot.log_overflow.size())
      return &slot.log_overflow[merge_ovf_cursor_[i]];
    return nullptr;
  };
  for (;;) {
    std::uint64_t r = kPassiveRound;
    for (std::size_t i = 0; i < n; ++i)
      if (const FiredEntry* e = peek(i)) r = std::min(r, e->round);
    if (r == kPassiveRound || r > safe) break;
    for (std::size_t i = 0; i < n; ++i) {
      while (const FiredEntry* e = peek(i)) {
        if (e->round != r) break;
        merge_scratch_.push_back(*e);
        if (merge_cursor_[i] !=
            slots_[i]->log_tail.load(std::memory_order_relaxed))
          ++merge_cursor_[i];
        else
          ++merge_ovf_cursor_[i];
      }
    }
  }
  if (merge_scratch_.empty()) return 0;

  // Phase 2 (unlocked): deliver to observers without holding the session
  // lock — a slow hook must not block shards trying to park or gate, and
  // no executor lock is held across user code (same hygiene as the other
  // backends). Every parked shard stays parked meanwhile: nothing here
  // moves an advertised round, a ring head or a wake flag, so no wait
  // predicate can turn true before phase 3 commits.
  if (RunObserver* obs = observer()) {
    lock.unlock();
    for (const FiredEntry& e : merge_scratch_)
      obs->on_fire(*e.candidate.module, *e.candidate.transition, e.at);
    lock.lock();
  }

  // Phase 3 (locked): consume what was announced.
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i]->log_head.store(merge_cursor_[i], std::memory_order_release);
    if (session_end) slots_[i]->log_overflow.clear();
  }
  return merge_scratch_.size();
}

bool FreeRunningExecutor::resolve_idle_gates_locked() {
  // The conservative null-message service: a shard gate-blocked on a
  // stable-passive neighbor cannot make progress on its own (the sleeper
  // will not advance until a message wakes it, and the sleeper's neighbors
  // are gated on ITS round). The run thread advances the sleeper's round
  // counter through rounds that are provably empty for it: no message can
  // ever reach shard P stamped below
  //     L(P) = min over channel-neighbors M of (bound(M) + 1)
  // where bound(M) is M's advertised round for live shards and the
  // fixpoint L(M) for stable-passive ones (a sleeper's first post-wake
  // round). Rounds up to L(P)-1 are therefore empty at P exactly as they
  // are under the sequential scheduler, and skipping them is trace-neutral.
  const std::size_t n = slots_.size();
  std::vector<std::uint64_t>& bound = gate_bound_scratch_;
  bound.assign(n, 0);
  std::vector<char>& sleeper = gate_sleeper_scratch_;
  sleeper.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& slot = *slots_[i];
    const bool stable_passive =
        slot.state == SlotState::Passive && !slot.wake_pending;
    sleeper[i] = stable_passive ? 1 : 0;
    bound[i] = stable_passive ? kAllRounds
                              : slot.advertised.load(std::memory_order_relaxed);
  }
  // Relax downward to the fixpoint (graphs are tiny — a handful of shards).
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!sleeper[i]) continue;
      std::uint64_t lb = kAllRounds;
      for (int nb : slots_[i]->neighbors) {
        const std::uint64_t b = bound[static_cast<std::size_t>(nb)];
        if (b != kAllRounds) lb = std::min(lb, b + 1);
      }
      if (lb < bound[i]) {
        bound[i] = lb;
        changed = true;
      }
    }
  }

  // Bump only sleepers someone is actually gate-blocked on; an unblocking
  // bump never moves a shard past the release limit or into a round a live
  // message could still target.
  const std::uint64_t limit = round_limit_.load(std::memory_order_relaxed);
  bool bumped = false;
  for (const auto& waiter : slots_) {
    if (waiter->state != SlotState::GateWait) continue;
    const auto t = static_cast<std::size_t>(waiter->gate_target);
    Slot& target = *slots_[t];
    if (!sleeper[t]) continue;
    if (target.advertised.load(std::memory_order_relaxed) >= waiter->gate_need)
      continue;  // already satisfied; the waiter is waking
    if (bound[t] == kAllRounds) continue;  // all-passive component: quiescent
    const std::uint64_t to = std::min(bound[t] - 1, limit);
    if (to > target.completed) {
      target.completed = to;
      target.advertised.store(to);
      bumped = true;
    }
  }
  if (bumped) gate_cv_.notify_all();
  return bumped;
}

bool FreeRunningExecutor::wake_unfilled_logs_locked() {
  bool woke = false;
  for (const auto& slot : slots_) {
    if (slot->state != SlotState::LogFull) continue;
    const std::uint64_t depth = slot->log_tail.load(std::memory_order_relaxed) -
                                slot->log_head.load(std::memory_order_relaxed);
    if (depth < slot->log.size()) {
      slot->cv.notify_all();
      woke = true;
    }
  }
  return woke;
}

std::uint64_t FreeRunningExecutor::fold_locked() {
  std::uint64_t max_completed = session_base_rounds_;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = *slots_[s];
    stats_.fired += slot.fired;
    stats_.busy += slot.busy;
    stats_.sched_time += slot.sched;
    stats_.rounds += slot.rounds;
    stats_.guards_examined += slot.guards;
    stats_.candidates_considered += slot.cands;
    stats_.rounds_with_allocation += slot.alloc_rounds;
    free_stats_.parks += slot.parks;
    free_stats_.wakes += slot.wakes;
    free_stats_.log_high_water =
        std::max(free_stats_.log_high_water, slot.log_high_water);
    slot.fired = 0;
    slot.busy = SimTime{};
    slot.sched = SimTime{};
    slot.rounds = 0;
    slot.guards = 0;
    slot.cands = 0;
    slot.alloc_rounds = 0;
    slot.parks = 0;
    slot.wakes = 0;
    max_completed = std::max(max_completed, slot.completed);
    if (shards_[s].clock > now_) now_ = shards_[s].clock;
  }
  burst_all_passive_ = all_passive_locked();
  const std::uint64_t progressed = max_completed - session_base_rounds_;
  session_base_rounds_ = max_completed;
  return progressed;
}

std::uint64_t FreeRunningExecutor::run_burst(std::uint64_t limit) {
  {
    std::lock_guard<std::mutex> lock(smu_);
    // Between-burst hooks (stop predicates, observers) ran on this thread
    // with every shard parked; route whatever they dirtied before releasing.
    route_ledger_locked();
    session_deadline_ns_.store(run_deadline_.ns, std::memory_order_release);
    free_announce_.store(observer() != nullptr, std::memory_order_release);
    round_limit_.store(limit, std::memory_order_release);
    for (const auto& slot : slots_) slot->cv.notify_all();
  }
  std::unique_lock<std::mutex> lock(smu_);
  for (;;) {
    run_cv_.wait(lock, [&] { return stop_ || all_blocked_locked(); });
    if (stop_) return 0;  // abort: end_session finishes the accounting
    if (resolve_idle_gates_locked()) continue;  // null-message service
    merge_logs(lock, /*session_end=*/false);
    if (wake_unfilled_logs_locked()) continue;  // back-pressured shards resume
    break;  // the all-parked rendezvous
  }
  return fold_locked();
}

bool FreeRunningExecutor::step() {
  // A topology change invalidates shard assignment and round numbering;
  // rebuild from a clean session.
  if (session_active_ &&
      (topology_dirty_.load(std::memory_order_acquire) ||
       spec_.topology_version() != session_topology_version_)) {
    const std::uint64_t progressed = end_session();
    if (session_error_) {
      auto error = session_error_;
      session_error_ = nullptr;
      std::rethrow_exception(error);
    }
    if (progressed > 0) {
      last_step_rounds_ = progressed;
      return true;  // account what ran; the next step() restarts fresh
    }
  }

  ensure_analysis();

  if (!free_runnable()) {
    end_session();
    ++free_stats_.fallback_rounds;
    return ShardedExecutor::step();
  }

  if (!session_active_) start_session();

  // Exact-cutoff pacing: shards may run ahead only to the round the tightest
  // step budget allows; a predicate stop tightens the burst to one round so
  // it is evaluated between rounds on a quiesced world.
  const std::uint64_t per_run = std::min(run_step_limit_, step_limit_);
  std::uint64_t headroom =
      per_run == ~0ull ? ~0ull - session_base_rounds_ - 1 : per_run - run_steps_;
  if (run_has_predicate_) headroom = std::min<std::uint64_t>(headroom, 1);
  const std::uint64_t limit = session_base_rounds_ + headroom;

  std::uint64_t progressed = run_burst(limit);
  const bool aborted = stop_flag_.load(std::memory_order_acquire);
  if (aborted) {
    progressed += end_session();
    if (session_error_) {
      auto error = session_error_;
      session_error_ = nullptr;
      std::rethrow_exception(error);
    }
    // Topology restart: report the rounds that ran; the next step() rebuilds.
    last_step_rounds_ = std::max<std::uint64_t>(progressed, 1);
    return true;
  }

  if (progressed == 0) {
    if (burst_all_passive_) {
      end_session();
      return false;  // quiescent
    }
    // No progress but not passive: every shard is pinned at the run deadline
    // — now_ has reached it, and the deadline stop condition ends the run.
    last_step_rounds_ = 0;
    return true;
  }
  last_step_rounds_ = progressed;
  return true;
}

// ---------------------------------------------------------------------------
// Shard continuation (worker threads)

void FreeRunningExecutor::on_cross_shard_delivery(
    int shard, std::uint64_t /*sender_round*/) noexcept {
  if (shard < 0 || static_cast<std::size_t>(shard) >= slots_.size()) return;
  Slot& slot = *slots_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(smu_);
  if (slot.state != SlotState::Passive) return;  // the next drain sees it
  // Wake only — never advance the round counter here: with several senders
  // the EARLIEST pending stamp decides the resume round, and the shard's
  // own loop recovers it exactly (drain filter + the min_future leap). From
  // this instant the shard also bounds the merge watermark again (see
  // merge_logs), so nothing past its resume point gets announced
  // before its entries exist.
  if (!slot.wake_pending) {
    slot.wake_pending = true;
    slot.cv.notify_all();
  }
}

void FreeRunningExecutor::complete_round(Slot& slot, std::uint64_t round) {
  slot.completed = round;
  slot.advertised.store(round);  // seq_cst pairs with the gate registration
  if (gate_waiter_count_.load() > 0) {
    std::lock_guard<std::mutex> lock(smu_);
    gate_cv_.notify_all();
  }
}

bool FreeRunningExecutor::gate_wait(Slot& slot, Slot& target, int target_id,
                                    std::uint64_t need) {
  std::unique_lock<std::mutex> lock(smu_);
  if (stop_) return false;
  slot.state = SlotState::GateWait;
  slot.gate_target = target_id;
  slot.gate_need = need;
  ++slot.parks;
  gate_waiter_count_.fetch_add(1);  // seq_cst pairs with complete_round
  run_cv_.notify_all();
  gate_cv_.wait(lock, [&] {
    return stop_ || target.advertised.load() >= need;
  });
  gate_waiter_count_.fetch_sub(1);
  slot.state = SlotState::Running;
  return !stop_;
}

template <typename Pred>
bool FreeRunningExecutor::park_until(Slot& slot, SlotState why, Pred ready) {
  std::unique_lock<std::mutex> lock(smu_);
  if (stop_) return false;
  if (ready()) return true;  // a release raced ahead of the park
  slot.state = why;
  ++slot.parks;
  run_cv_.notify_all();
  slot.cv.wait(lock, [&] { return stop_ || ready(); });
  slot.state = SlotState::Running;
  return !stop_;
}

bool FreeRunningExecutor::passive_park(Slot& slot, const ShardState& shard) {
  std::unique_lock<std::mutex> lock(smu_);
  if (stop_) return false;
  if (slot.wake_pending) {
    slot.wake_pending = false;
    return true;
  }
  // Last-instant recheck under the session lock: a delivery that raced the
  // drain has already published its mailbox count (the hook runs after the
  // store), so an empty check here really means nothing is pending.
  for (InteractionPoint* ip : shard.boundary)
    if (ip->has_pending_transfers()) return true;
  slot.state = SlotState::Passive;
  ++slot.parks;
  run_cv_.notify_all();
  slot.cv.wait(lock, [&] { return stop_ || slot.wake_pending; });
  slot.wake_pending = false;
  slot.state = SlotState::Running;
  // A bump (null-message service or burst wake) may have moved completed
  // while we slept; republish — and tell gate waiters, like every other
  // advertised movement, or a satisfied waiter sleeps forever.
  slot.advertised.store(slot.completed);
  if (gate_waiter_count_.load(std::memory_order_relaxed) > 0)
    gate_cv_.notify_all();
  ++slot.wakes;
  return !stop_;
}

void FreeRunningExecutor::log_push(Slot& slot, const FiredEntry& entry) {
  const std::size_t cap = slot.log.size();
  for (;;) {
    const std::uint64_t head = slot.log_head.load(std::memory_order_acquire);
    const std::uint64_t tail = slot.log_tail.load(std::memory_order_relaxed);
    if (tail - head < cap) {
      slot.log[tail % cap] = entry;
      slot.log_tail.store(tail + 1, std::memory_order_release);
      slot.log_high_water = std::max(slot.log_high_water, tail + 1 - head);
      return;
    }
    std::unique_lock<std::mutex> lock(smu_);
    if (slot.log_head.load(std::memory_order_acquire) != head) continue;
    if (stop_) {
      // Session aborting with the merger gone: spill to the unbounded
      // overflow (consumed by end_session's final merge) rather than drop
      // an announcement the fired counters will include.
      slot.log_overflow.push_back(entry);
      return;
    }
    slot.state = SlotState::LogFull;
    ++slot.parks;
    run_cv_.notify_all();
    slot.cv.wait(lock, [&] {
      return stop_ || slot.log_head.load(std::memory_order_acquire) != head;
    });
    slot.state = SlotState::Running;
    if (stop_) {
      slot.log_overflow.push_back(entry);
      return;
    }
  }
}

bool FreeRunningExecutor::continuation_round(int s, Slot& slot,
                                             std::uint64_t r,
                                             std::uint64_t* min_future) {
  ShardState& shard = shards_[static_cast<std::size_t>(s)];
  if (begin_round(s, r, shard.clock, min_future)) {
    fire_round(s, r, free_announce_.load(std::memory_order_relaxed),
               [this, &slot, r](const FiringCandidate& c, SimTime at) {
                 log_push(slot, {c, at, r});
               });
    return true;
  }
  // Nothing fireable: leap to the shard's next delay deadline, clamped to
  // the run deadline — an empty round, counted like the sequential
  // scheduler's idle round. No deadline, or one the clamp truncates to the
  // current clock (the shard is pinned at the run deadline), means there is
  // nothing to do.
  const SimTime wake = shard.ready.next_deadline();
  if (wake == kNeverTime) return false;
  const SimTime cap{session_deadline_ns_.load(std::memory_order_relaxed)};
  const SimTime target = std::min(wake, cap);
  if (target <= shard.clock) return false;
  shard.clock = target;
  return true;
}

void FreeRunningExecutor::shard_loop(int s, Slot& slot, ShardState& shard) {
  for (;;) {
    if (stop_flag_.load(std::memory_order_acquire)) return;
    const std::uint64_t r = slot.completed + 1;

    // Pacing gates: released round limit, then the run deadline.
    if (round_limit_.load(std::memory_order_acquire) < r) {
      if (!park_until(slot, SlotState::LimitParked, [&] {
            return round_limit_.load(std::memory_order_relaxed) >=
                   slot.completed + 1;
          }))
        return;
      continue;  // completed may have moved (wake hook) — recompute r
    }
    if (shard.clock.ns >=
        session_deadline_ns_.load(std::memory_order_relaxed)) {
      if (!park_until(slot, SlotState::DeadlineParked, [&] {
            return shard.clock.ns <
                   session_deadline_ns_.load(std::memory_order_relaxed);
          }))
        return;
      continue;
    }

    // Neighbor gate: round r may run once every channel-sharing shard has
    // completed r-1, so every message sent before round r is already parked
    // in our mailboxes (their completion bump publishes their deliveries).
    bool stopped = false;
    for (int nb : slot.neighbors) {
      Slot& target = *slots_[static_cast<std::size_t>(nb)];
      if (target.advertised.load() >= r - 1) continue;  // seq_cst fast path
      if (!gate_wait(slot, target, nb, r - 1)) {
        stopped = true;
        break;
      }
    }
    if (stopped) return;

    // The shared round engine (shard_round.hpp): drain <= r-1, collect,
    // fire with revalidation (logging announcements into this slot's SPSC
    // ring) or leap. min_future remembers the earliest later-stamped parked
    // arrival so an idle shard can leap to it below.
    std::uint64_t min_future = kAllRounds;
    const bool completed = continuation_round(s, slot, r, &min_future);
    const RoundDelta& delta = shard.delta;
    shard.fired += delta.fired;
    shard.rounds += delta.rounds;
    slot.rounds += delta.rounds;
    slot.fired += delta.fired;
    slot.guards += delta.guards;
    slot.cands += delta.cands;
    slot.alloc_rounds += delta.alloc_rounds;
    slot.busy += delta.busy;
    slot.sched += delta.sched;

    if (completed) {
      complete_round(slot, r);
    } else if (min_future != kAllRounds) {
      // Nothing now, but a future-stamped arrival is parked: skip the empty
      // rounds (sequential spent them on other shards) and resume at the
      // arrival round — clamped to the release limit AND to every
      // neighbor's progress (a shard at round a can still send stamps as
      // low as a+1, and those must be consumed at a+2, so skipping past a+1
      // would replay them late).
      std::uint64_t jump =
          std::min(min_future, round_limit_.load(std::memory_order_relaxed));
      for (int nb : slot.neighbors)
        jump = std::min(
            jump, slots_[static_cast<std::size_t>(nb)]->advertised.load() + 1);
      if (jump > slot.completed) complete_round(slot, jump);
      continue;
    } else if (!passive_park(slot, shard)) {
      return;
    }

    // Structural changes (a firing created modules or channels) invalidate
    // shard assignment and the conflict proof: abort the session; the run
    // thread rebuilds the analysis and restarts.
    if (spec_.topology_version() != session_topology_version_) {
      std::lock_guard<std::mutex> lock(smu_);
      stop_ = true;
      stop_flag_.store(true, std::memory_order_release);
      topology_dirty_.store(true, std::memory_order_release);
      wake_everyone_locked();
      return;
    }
  }
}

void FreeRunningExecutor::shard_main(int s) {
  Slot& slot = *slots_[static_cast<std::size_t>(s)];
  ShardState& shard = shards_[static_cast<std::size_t>(s)];
  // Route every dirty mark this thread produces straight into the shard's
  // own ready scope — the lock-free dirty tracking of the round hot path.
  LocalReadyScopeBinding binding(shard.ready, s);
  try {
    shard_loop(s, slot, shard);
  } catch (...) {
    // Surface worker-side failures (verify_ready_set divergence, a throwing
    // action) through the run thread instead of terminating the process.
    std::lock_guard<std::mutex> lock(smu_);
    if (!session_error_) session_error_ = std::current_exception();
    stop_ = true;
    stop_flag_.store(true, std::memory_order_release);
    wake_everyone_locked();
  }
}

}  // namespace mcam::estelle
