#include "estelle/ready_set.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "estelle/sched.hpp"

namespace mcam::estelle {

namespace {

/// Process-global round stamp for the activity-exclusion claim marks: a
/// fresh value per build_candidates call, never reused, so stale marks from
/// earlier rounds (or other scopes/executors) can never collide.
std::atomic<std::uint64_t> g_claim_stamp{0};

}  // namespace

const std::vector<FiringCandidate>& ReadyScope::collect(common::SimTime now) {
  const std::size_t before = footprint();
  round_guards_ = 0;
  pop_matured(now);
  evaluate(now);
  build_candidates();
  round_allocated_ = footprint() != before;
  return candidates_;
}

common::SimTime ReadyScope::next_deadline() const noexcept {
  return heap_.empty() ? kNeverTime : heap_.front().at;
}

void ReadyScope::pop_matured(common::SimTime now) {
  const auto later = [](const Deadline& a, const Deadline& b) {
    return a.at > b.at;  // min-heap on deadline
  };
  while (!heap_.empty() && heap_.front().at <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Deadline d = heap_.back();
    heap_.pop_back();
    // Keep the "queued_deadline_ is the earliest queued entry" invariant;
    // later (stale) entries for the same module just re-mark it, harmlessly.
    if (d.module->queued_deadline_ == d.at)
      d.module->queued_deadline_ = kNeverTime;
    mark(*d.module);
  }
}

void ReadyScope::evaluate(common::SimTime now) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    Module* m = ready_[i];
    ReadinessProbe probe;
    const Transition* t = m->select_fireable(now, &probe);
    round_guards_ += static_cast<std::uint64_t>(m->last_scan_effort());
    set_fireable(*m, t);
    if (probe.next_deadline != kNeverTime)
      push_deadline(*m, probe.next_deadline);
    if (probe.guard_invoked) {
      // Sticky: a consulted opaque guard may read state no hook can see;
      // keep the module under per-round re-evaluation until its opaque
      // guards go dormant.
      ready_[keep++] = m;
    } else {
      m->scope_ready_ = false;
    }
  }
  ready_.resize(keep);
}

void ReadyScope::set_fireable(Module& m, const Transition* t) {
  m.cached_fireable_ = t;
  if (t != nullptr) {
    if (m.fireable_slot_ < 0) {
      m.fireable_slot_ = static_cast<int>(fireable_.size());
      fireable_.push_back(&m);
    }
    return;
  }
  if (m.fireable_slot_ >= 0) {
    const auto slot = static_cast<std::size_t>(m.fireable_slot_);
    Module* last = fireable_.back();
    fireable_[slot] = last;
    last->fireable_slot_ = static_cast<int>(slot);
    fireable_.pop_back();
    m.fireable_slot_ = -1;
  }
}

void ReadyScope::push_deadline(Module& m, common::SimTime at) {
  if (m.queued_deadline_ <= at) return;  // an equal-or-earlier entry exists
  m.queued_deadline_ = at;
  heap_.push_back({at, &m});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Deadline& a, const Deadline& b) {
                   return a.at > b.at;  // min-heap on deadline
                 });
}

void ReadyScope::build_candidates() {
  order_.clear();
  order_.insert(order_.end(), fireable_.begin(), fireable_.end());
  std::sort(order_.begin(), order_.end(),
            [](const Module* a, const Module* b) {
              return a->preorder_ < b->preorder_;
            });

  const std::uint64_t stamp =
      g_claim_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
  candidates_.clear();
  for (Module* m : order_) {
    // Parent precedence: a fireable ancestor blocks the whole subtree.
    // Activity exclusion: the first (document-order) accepted candidate
    // under an activity-like module claims it, blocking the rest of that
    // child forest. Walking to the root is exactly "up to the system
    // module": modules above it are Inactive, carry no transitions, and so
    // are never fireable or activity-like.
    bool blocked = false;
    for (Module* a = m->parent(); a != nullptr; a = a->parent()) {
      if (a->cached_fireable_ != nullptr ||
          (is_activity_like(a->attribute()) && a->claim_stamp_ == stamp)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    for (Module* a = m->parent(); a != nullptr; a = a->parent())
      if (is_activity_like(a->attribute())) a->claim_stamp_ = stamp;
    candidates_.push_back({m, m->cached_fireable_});
  }
}

std::size_t ReadyScope::footprint() const noexcept {
  return ready_.capacity() + fireable_.capacity() + heap_.capacity() +
         order_.capacity() + candidates_.capacity();
}

void ReadyScope::clear() noexcept {
  ready_.clear();
  fireable_.clear();
  heap_.clear();
  order_.clear();
  candidates_.clear();
  round_guards_ = 0;
  round_allocated_ = false;
}

// ---------------------------------------------------------------------------
// SpecReadySet

bool SpecReadySet::refresh() {
  ReadyLedger& ledger = spec_.ready_ledger();
  if (seen_version_ != spec_.topology_version()) {
    reseed();
  } else {
    ledger.drain([this](Module& m) {
      if (m.shard_ != kNoShard)
        scopes_[static_cast<std::size_t>(m.shard_)].mark(m);
    });
  }
  const bool grew = ledger.capacity() != ledger_capacity_seen_;
  ledger_capacity_seen_ = ledger.capacity();
  return grew;
}

SimTime SpecReadySet::reached_time() const noexcept {
  SimTime reached{};
  for (const ReadyScope& scope : scopes_)
    reached = std::max(reached, scope.clock());
  return reached;
}

void SpecReadySet::raise_clocks(SimTime t) {
  if (seen_version_ == ~0ull) reseed();
  for (ReadyScope& scope : scopes_)
    scope.clock() = std::max(scope.clock(), t);
}

void SpecReadySet::reseed() {
  seen_version_ = spec_.topology_version();
  // Queued entries may point at destroyed modules; forget them without
  // looking. The walks below reset every survivor's intrusive state.
  spec_.ready_ledger().clear_unsafe();
  std::uint32_t preorder = 0;
  spec_.root().for_each([&preorder](Module& m) {
    m.ledger_marked_.store(false, std::memory_order_relaxed);
    m.scope_ready_ = false;
    m.cached_fireable_ = nullptr;
    m.fireable_slot_ = -1;
    m.preorder_ = preorder++;
    m.claim_stamp_ = 0;
    m.queued_deadline_ = kNeverTime;
    m.shard_ = kNoShard;
  });
  systems_ = spec_.system_modules();
  // System modules join only before initialize(), when no shard backend can
  // have run: a new one starts at the time the others reached.
  const std::size_t clocked = scopes_.size();
  const SimTime reached = reached_time();
  scopes_.resize(systems_.size());
  for (std::size_t s = clocked; s < scopes_.size(); ++s)
    scopes_[s].clock() = reached;
  for (std::size_t s = 0; s < systems_.size(); ++s) {
    ReadyScope& scope = scopes_[s];
    scope.clear();
    // Seed every module of the subtree. Modules outside the system subtrees
    // carry no transitions (rule R1), so they need no scope.
    systems_[s]->for_each([&scope, s](Module& m) {
      m.shard_ = static_cast<int>(s);
      scope.mark(m);
    });
  }
}

// ---------------------------------------------------------------------------
// Verification

void verify_against_full_scan(Module& system_module, common::SimTime now,
                              const std::vector<FiringCandidate>& got) {
  const std::vector<FiringCandidate> ref =
      collect_firing_set(system_module, now);
  const auto describe = [](const FiringCandidate& c) {
    return c.module->path() + "/" +
           (c.transition->name.empty() ? "?" : c.transition->name);
  };
  const auto fail = [&](const std::string& what) {
    std::string msg = "verify_ready_set: " + what + "; full scan has " +
                      std::to_string(ref.size()) + " candidate(s)";
    for (const FiringCandidate& c : ref) msg += " [" + describe(c) + "]";
    msg += ", ready set produced " + std::to_string(got.size()) +
           " candidate(s)";
    for (const FiringCandidate& c : got) msg += " [" + describe(c) + "]";
    throw std::logic_error(msg);
  };
  if (got.size() != ref.size()) fail("candidate count diverged");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const FiringCandidate& a = ref[i];
    const FiringCandidate& b = got[i];
    if (a.module != b.module || a.transition != b.transition)
      fail("candidate " + std::to_string(i) + " diverged");
  }
}

}  // namespace mcam::estelle
