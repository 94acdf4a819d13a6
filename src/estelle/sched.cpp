#include "estelle/sched.hpp"

#include <algorithm>
#include <optional>

#include "estelle/ready_set.hpp"

namespace mcam::estelle {

namespace {

/// Collect at most one candidate from an activity subtree (all modules in it
/// are activity-attributed, so sequential by definition).
bool collect_single(Module& m, SimTime now, std::vector<FiringCandidate>& out,
                    int& effort) {
  if (const Transition* t = m.select_fireable(now)) {
    effort += m.last_scan_effort();
    out.push_back({&m, t});
    return true;
  }
  effort += m.last_scan_effort();
  for (auto& child : m.children())
    if (collect_single(*child, now, out, effort)) return true;
  return false;
}

void collect(Module& m, SimTime now, std::vector<FiringCandidate>& out,
             int& effort) {
  // Parent precedence: if this module can fire, its whole subtree is blocked.
  if (const Transition* t = m.select_fireable(now)) {
    effort += m.last_scan_effort();
    out.push_back({&m, t});
    return;
  }
  effort += m.last_scan_effort();
  if (is_process_like(m.attribute())) {
    // Children of a process-like parent run in parallel.
    for (auto& child : m.children()) collect(*child, now, out, effort);
  } else {
    // Children of an activity-like parent are mutually exclusive: take one
    // candidate from the first child subtree that offers one.
    for (auto& child : m.children())
      if (collect_single(*child, now, out, effort)) return;
  }
}

/// Earliest time at which a delay transition blocked at candidate-collection
/// time can fire (state and guard permitting); kNeverTime if none. A deadline
/// already reached wakes immediately (`now`): the world is not quiescent, and
/// the next round's collection sees the matured transition.
SimTime next_delay_wakeup(Specification& spec, SimTime now) {
  SimTime best = kNeverTime;
  spec.root().for_each([&](Module& m) {
    for (const Transition& t : m.transitions()) {
      if (t.ip != nullptr || t.delay.ns == 0) continue;
      if (t.from_state != kAnyState && t.from_state != m.state()) continue;
      if (t.provided && !t.provided(m, nullptr)) continue;
      const SimTime ready = m.state_entered_at() + t.delay;
      const SimTime wake = ready > now ? ready : now;
      if (wake < best) best = wake;
    }
  });
  return best;
}

}  // namespace

std::vector<FiringCandidate> collect_firing_set(Module& system_module,
                                                SimTime now,
                                                int* scan_effort) {
  std::vector<FiringCandidate> out;
  int effort = 0;
  collect(system_module, now, out, effort);
  if (scan_effort != nullptr) *scan_effort += effort;
  return out;
}

void fire(const FiringCandidate& c, SimTime now, RunObserver* observer) {
  Module& m = *c.module;
  const Transition& t = *c.transition;
  if (observer != nullptr) observer->on_fire(m, t, now);
  std::optional<Interaction> msg;
  const Interaction* head = nullptr;
  if (t.ip != nullptr) {
    msg = t.ip->pop();
    head = &*msg;
  }
  t.action(m, head);
  if (t.to_state != kAnyState) {
    m.set_state(t.to_state);
    m.note_state_entry(now);
  } else if (t.ip == nullptr) {
    // Neither a pop nor a state change marked the module, yet the action may
    // have changed variables a hooked guard reads.
    m.mark_ready();
  }
}

// ---------------------------------------------------------------------------
// SequentialScheduler

SequentialScheduler::SequentialScheduler(Specification& spec,
                                         const ExecutorConfig& cfg)
    : ExecutorBase(spec, cfg.max_steps, true),
      verify_(cfg.verify_ready_set) {}

bool SequentialScheduler::step() {
  // Candidate collection from the specification's dirty set, every system
  // module's scope before anything fires: guards are examined only for
  // modules something happened to. The virtual scan cost charges whatever
  // was actually examined, so dirty-set scheduling shrinks modelled
  // scheduler overhead exactly like it shrinks real overhead. The round's
  // firing set is the scopes' candidates one after the other, which is
  // document order.
  SpecReadySet& ready = spec_.ready_set();
  bool allocated = ready.refresh();
  const std::size_t capacity = firing_.capacity();
  firing_.clear();
  std::uint64_t guards = 0;
  for (int s = 0; s < ready.size(); ++s) {
    ReadyScope& scope = ready.scope(s);
    const std::vector<FiringCandidate>& got = scope.collect(now_);
    if (verify_) verify_against_full_scan(ready.system_module(s), now_, got);
    firing_.insert(firing_.end(), got.begin(), got.end());
    guards += scope.round_guards();
    allocated = allocated || scope.round_allocated();
  }
  stats_.guards_examined += guards;
  stats_.candidates_considered += firing_.size();
  if (allocated || firing_.capacity() != capacity)
    ++stats_.rounds_with_allocation;
  if (firing_.empty()) {
    // Empty rounds charge no scan cost — empty barrier rounds don't
    // either, and firing-trace identity on delay specs needs both
    // clocks to leap to the same absolute deadlines. O(log n) wakeup:
    // straight to the earliest queued delay deadline, clamped by the run's
    // deadline, never backwards.
    SimTime wake = kNeverTime;
    for (int s = 0; s < ready.size(); ++s)
      wake = std::min(wake, ready.scope(s).next_deadline());
    if (wake == kNeverTime) return false;
    advance_clock_toward(wake);
    return true;
  }
  const SimTime scan_cost{kScanPerGuard.ns * static_cast<std::int64_t>(guards)};
  now_ += scan_cost;
  stats_.sched_time += scan_cost;

  // Everything fires on this thread, so the firing loop's marks go straight
  // into their modules' scopes.
  const LocalReadyScopeBinding direct_marks(spec_, kNoShard);
  for (const FiringCandidate& c : firing_) {
    // Revalidate: an earlier firing in this round may have consumed state.
    if (!is_fireable(*c.transition, *c.module, now_)) continue;
    now_ += kSchedPerTransition;
    stats_.sched_time += kSchedPerTransition;
    now_ += c.transition->cost;
    stats_.busy += c.transition->cost;
    fire(c, now_, observer());
    ++stats_.fired;
  }
  ++stats_.rounds;
  return true;
}

// ---------------------------------------------------------------------------
// ParallelSimScheduler

ParallelSimScheduler::ParallelSimScheduler(Specification& spec,
                                           const ExecutorConfig& cfg)
    : ExecutorBase(spec, cfg.max_steps, true),
      processors_(cfg.processors),
      mapping_(cfg.mapping),
      engine_(cfg.processors, cfg.costs) {
  if (mapping_ == Mapping::GroupedUnits) {
    // Exactly one unit per processor, created up front; modules round-robin
    // onto them (§5.2's grouping scheme).
    for (int p = 0; p < processors_; ++p)
      engine_.add_task("unit" + std::to_string(p), p);
  }
}

int ParallelSimScheduler::unit_of(Module& m) {
  std::uint64_t key = 0;
  // A uniprocessor host (client workstation, §3) runs its whole system
  // subtree on one unit regardless of the mapping policy. The high bit
  // keeps these keys out of the policy key spaces below.
  if (Module* sys = m.owning_system_module();
      sys != nullptr && sys->uniprocessor_host()) {
    key = (1ULL << 63) | sys->instance_id();
    auto it = unit_by_module_.find(key);
    if (it == unit_by_module_.end()) {
      const int task =
          engine_.add_task("host" + std::to_string(sys->instance_id()), -1);
      it = unit_by_module_.emplace(key, task).first;
    }
    return it->second;
  }
  switch (mapping_) {
    case Mapping::ThreadPerModule:
      key = m.instance_id();
      break;
    case Mapping::GroupedUnits:
      return static_cast<int>(m.instance_id() %
                              static_cast<std::uint64_t>(processors_));
    case Mapping::ConnectionPerProcessor: {
      // Unit = the subtree rooted at a direct child of a system module (one
      // "connection"); the system module itself is its own unit.
      Module* cursor = &m;
      while (cursor->parent() != nullptr &&
             !is_system(cursor->attribute()) &&
             !is_system(cursor->parent()->attribute()))
        cursor = cursor->parent();
      key = cursor->instance_id();
      break;
    }
    case Mapping::LayerPerProcessor: {
      // Unit = depth below the owning system module (protocol layer).
      std::uint64_t depth = 0;
      for (Module* cursor = &m;
           cursor->parent() != nullptr && !is_system(cursor->attribute());
           cursor = cursor->parent())
        ++depth;
      key = depth;
      break;
    }
  }
  auto it = unit_by_module_.find(key);
  if (it == unit_by_module_.end()) {
    const int task = engine_.add_task("unit" + std::to_string(key), -1);
    it = unit_by_module_.emplace(key, task).first;
  }
  return it->second;
}

bool ParallelSimScheduler::step() {
  std::vector<FiringCandidate> candidates = collect_candidates();
  if (candidates.empty()) return advance_to_wakeup();

  for (const FiringCandidate& c : candidates) {
    const int unit = unit_of(*c.module);
    const SimTime when = now_;
    engine_.post_external(
        unit, c.transition->cost,
        [this, c](sim::Context& ctx) {
          if (!is_fireable(*c.transition, *c.module, ctx.now())) return;
          fire(c, ctx.now(), observer());
          ++stats_.fired;
        },
        when);
  }
  const sim::RunStats s = engine_.run();
  now_ = s.makespan > now_ ? s.makespan : now_;
  ++stats_.rounds;
  return true;
}

void ParallelSimScheduler::finalize_stats() {
  const sim::RunStats& s = engine_.stats();
  stats_.busy = s.busy;
  stats_.sched_time = s.sched_time;
  stats_.switch_time = s.switch_time;
  stats_.msg_time = s.msg_time;
}

std::vector<FiringCandidate> ParallelSimScheduler::collect_candidates() {
  std::vector<FiringCandidate> candidates;
  int effort = 0;
  for (Module* sm : spec_.system_modules()) {
    auto v = collect_firing_set(*sm, now_, &effort);
    candidates.insert(candidates.end(), v.begin(), v.end());
  }
  stats_.guards_examined += static_cast<std::uint64_t>(effort);
  stats_.candidates_considered += candidates.size();
  // The tree scan allocates fresh buffers every round by design.
  ++stats_.rounds_with_allocation;
  return candidates;
}

bool ParallelSimScheduler::advance_to_wakeup() {
  const SimTime wake = next_delay_wakeup(spec_, now_);
  if (wake == kNeverTime) return false;
  advance_clock_toward(wake);
  return true;
}

}  // namespace mcam::estelle
