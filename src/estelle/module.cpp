#include "estelle/module.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "estelle/ready_set.hpp"

namespace mcam::estelle {

namespace {
std::atomic<std::uint64_t> g_next_instance_id{1};
}  // namespace

bool is_fireable(const Transition& t, Module& m, common::SimTime now,
                 ReadinessProbe* probe) {
  if (t.from_state != kAnyState && t.from_state != m.state()) return false;
  const Interaction* head = nullptr;
  if (t.ip != nullptr) {
    head = t.ip->head();
    if (head == nullptr) return false;
    if (t.kind != kAnyKind && head->kind != t.kind) return false;
  } else if (t.delay.ns > 0) {
    if (now - m.state_entered_at() < t.delay) {
      if (probe != nullptr) {
        // An immature delay defines the module's next wakeup — but, like
        // ParallelSim's tree-scan wakeup, only while its guard passes. A
        // later guard flip is caught by the per-round re-evaluation an
        // opaque guard makes sticky (guard_invoked), or by the hook that
        // marks the module when a hooked guard's input changes.
        bool pass = true;
        if (t.provided) {
          if (t.guard_reads == GuardReads::Opaque) probe->guard_invoked = true;
          pass = t.provided(m, nullptr);
        }
        if (pass) {
          const common::SimTime ready = m.state_entered_at() + t.delay;
          if (ready < probe->next_deadline) probe->next_deadline = ready;
        }
      }
      return false;
    }
  }
  if (t.provided) {
    if (probe != nullptr && t.guard_reads == GuardReads::Opaque)
      probe->guard_invoked = true;
    if (!t.provided(m, head)) return false;
  }
  return true;
}

const char* attribute_name(Attribute a) noexcept {
  switch (a) {
    case Attribute::SystemProcess:
      return "systemprocess";
    case Attribute::SystemActivity:
      return "systemactivity";
    case Attribute::Process:
      return "process";
    case Attribute::Activity:
      return "activity";
    case Attribute::Inactive:
      return "inactive";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TransitionBuilder

TransitionBuilder::TransitionBuilder(Module& module, std::string name)
    : module_(module) {
  t_.name = std::move(name);
}

void TransitionBuilder::action(
    std::function<void(Module&, Interaction*)> a) {
  t_.action = std::move(a);
  module_.add_transition(std::move(t_));
}

// ---------------------------------------------------------------------------
// Module

Module::Module(std::string name, Attribute attribute)
    : name_(std::move(name)),
      attribute_(attribute),
      id_(g_next_instance_id.fetch_add(1)) {}

Module::~Module() {
  // Disconnect all channels before members are destroyed so peers never see
  // a dangling pointer (IP destructors handle their own side too).
  for (auto& ip : ips_) disconnect(*ip);
}

std::string Module::path() const {
  return parent_ == nullptr ? name_ : parent_->path() + "." + name_;
}

void Module::check_child_rules(const Module& child) const {
  const Attribute c = child.attribute();
  if (c == Attribute::Inactive) {
    if (attribute_ != Attribute::Inactive)
      throw EstelleRuleError("inactive module '" + child.name() +
                             "' cannot be placed inside attributed module '" +
                             name_ + "' (" + attribute_name(attribute_) + ")");
    return;
  }
  if (is_system(c)) {
    // R2: no attributed ancestor.
    for (const Module* a = this; a != nullptr; a = a->parent()) {
      if (a->attribute() != Attribute::Inactive)
        throw EstelleRuleError("system module '" + child.name() +
                               "' cannot be contained in attributed module '" +
                               a->name() + "' (R2)");
    }
    // R6: system population static after initialization.
    if (spec_ != nullptr && spec_->initialized())
      throw EstelleRuleError(
          "cannot create system module '" + child.name() +
          "' after initialization: system modules are static (R6)");
    return;
  }
  // Process / Activity child: must sit inside a system module (R3) — i.e.
  // directly under an attributed module, whose chain is rooted at a system
  // module by induction.
  if (attribute_ == Attribute::Inactive)
    throw EstelleRuleError("module '" + child.name() + "' (" +
                           attribute_name(c) +
                           ") must be contained in a system module (R3)");
  if (c == Attribute::Process && !is_process_like(attribute_))
    throw EstelleRuleError("process module '" + child.name() +
                           "' cannot be a child of " +
                           attribute_name(attribute_) + " module '" + name_ +
                           "' (R5: activity modules contain only activities)");
  // Activity children are legal under any attributed parent (R4/R5).
}

void Module::adopt(std::unique_ptr<Module> child) {
  check_child_rules(*child);
  child->parent_ = this;
  child->set_specification(spec_);
  // Inherit the shard immediately: a module created by a firing action must
  // be routable before the next reseed of the ready set.
  child->for_each([this](Module& m) { m.shard_ = shard_; });
  Module& ref = *child;
  children_.push_back(std::move(child));
  if (spec_ != nullptr) spec_->note_topology_change();
  // Dynamically created modules (after initialize()) run their init hook
  // immediately; static ones are initialized by Specification::initialize().
  if (spec_ != nullptr && spec_->initialized())
    ref.for_each([](Module& m) {
      if (!m.initialized_) {
        m.initialized_ = true;
        m.on_init();
      }
    });
}

void Module::release_child(Module& child) {
  auto it = std::find_if(children_.begin(), children_.end(),
                         [&](const auto& c) { return c.get() == &child; });
  if (it == children_.end())
    throw EstelleRuleError("release_child: '" + child.name() +
                           "' is not a child of '" + name_ +
                           "' (R7: only the parent may destroy a module)");
  // Disconnect every channel into/out of the subtree before destruction.
  child.for_each([](Module& m) {
    for (auto& ip : m.ips_) disconnect(*ip);
  });
  children_.erase(it);
  if (spec_ != nullptr) spec_->note_topology_change();
}

std::size_t Module::subtree_size() const noexcept {
  std::size_t n = 1;
  for (const auto& c : children_) n += c->subtree_size();
  return n;
}

InteractionPoint& Module::ip(const std::string& name) {
  if (InteractionPoint* existing = find_ip(name)) return *existing;
  ips_.push_back(std::make_unique<InteractionPoint>(*this, name));
  return *ips_.back();
}

InteractionPoint* Module::find_ip(const std::string& name) noexcept {
  for (auto& p : ips_)
    if (p->name() == name) return p.get();
  return nullptr;
}

void Module::add_transition(Transition t) {
  if (attribute_ == Attribute::Inactive)
    throw EstelleRuleError("inactive module '" + name_ +
                           "' cannot declare transitions (R1)");
  if (!t.action)
    throw EstelleRuleError("transition '" + t.name + "' of '" + name_ +
                           "' has no action");
  if (t.ip != nullptr && &t.ip->owner() != this)
    throw EstelleRuleError("transition '" + t.name + "' of '" + name_ +
                           "' references an interaction point of module '" +
                           t.ip->owner().name() + "'");
  if (t.ip != nullptr && t.delay.ns > 0)
    throw EstelleRuleError("transition '" + t.name + "' of '" + name_ +
                           "' combines when- and delay-clauses");
  if (transitions_.size() > std::numeric_limits<std::uint16_t>::max())
    throw EstelleRuleError("module '" + name_ +
                           "' cannot hold more than 65536 transitions");
  transitions_.push_back(std::move(t));
  index_dirty_ = true;
  // A transition registered mid-run (dynamic specialization) must be seen by
  // the event-driven schedulers without a topology change.
  mark_ready();
}

void Module::rebuild_index() {
  rows_.clear();
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const Transition& t = transitions_[i];
    rows_.push_back({t.ip, t.from_state, t.kind, static_cast<std::uint16_t>(i),
                     !t.provided && t.delay.ns == 0});
  }
  std::sort(rows_.begin(), rows_.end(),
            [this](const DispatchRow& a, const DispatchRow& b) {
              const int pa = transitions_[a.transition].priority;
              const int pb = transitions_[b.transition].priority;
              return pa != pb ? pa < pb : a.transition < b.transition;
            });

  // Per-state lists. Counting first: state_begin_[s + 1] holds state s's
  // own row count, then serves as its fill cursor, and ends as the start of
  // s + 1. Filling in row order merges each state's rows with the
  // kAnyState rows by (priority, declaration).
  int max_state = -1;
  std::uint32_t any = 0;
  for (const DispatchRow& r : rows_) {
    if (r.from_state == kAnyState)
      ++any;
    else
      max_state = std::max(max_state, r.from_state);
  }
  const auto states = static_cast<std::size_t>(max_state + 1);
  state_begin_.assign(states + 2, 0);
  for (const DispatchRow& r : rows_)
    if (r.from_state >= 0)
      ++state_begin_[static_cast<std::size_t>(r.from_state) + 1];
  std::uint32_t start = 0;
  for (std::size_t s = 0; s <= states; ++s) {
    const std::uint32_t length = state_begin_[s + 1] + any;
    state_begin_[s + 1] = start;
    start += length;
  }
  state_rows_.resize(start);
  for (std::size_t p = 0; p < rows_.size(); ++p) {
    const auto row = static_cast<std::uint16_t>(p);
    const int from = rows_[p].from_state;
    if (from == kAnyState) {
      for (std::size_t s = 0; s <= states; ++s)
        state_rows_[state_begin_[s + 1]++] = row;
    } else if (from >= 0) {
      state_rows_[state_begin_[static_cast<std::size_t>(from) + 1]++] = row;
    }
  }
  index_dirty_ = false;
}

const Transition* Module::select_fireable(common::SimTime now,
                                          ReadinessProbe* probe) {
  scan_effort_ = 0;
  if (transitions_.empty()) return nullptr;
  if (index_dirty_) rebuild_index();

  // A row whose state or head does not match is rejected here, without
  // touching its Transition; is_fireable() would reject it the same way,
  // before consulting any guard or the probe. A plain row that matches
  // fires. Every other row takes is_fireable(), which adds the guard, the
  // delay clause and the probe.
  const auto fires = [&](const DispatchRow& r) {
    if (r.from_state != kAnyState && r.from_state != state_) return false;
    if (r.ip != nullptr) {
      const Interaction* head = r.ip->head();
      if (head == nullptr || (r.kind != kAnyKind && head->kind != r.kind))
        return false;
    }
    return r.plain ||
           is_fireable(transitions_[r.transition], *this, now, probe);
  };
  const DispatchRow* const rows = rows_.data();
  const Transition* selected = nullptr;
  int effort = 0;
  if (dispatch_ == DispatchKind::LinearScan) {
    // Hard-coded if/else chain: every row in (priority, declaration) order.
    for (const DispatchRow* r = rows; r != rows + rows_.size(); ++r) {
      ++effort;
      if (fires(*r)) {
        selected = &transitions_[r->transition];
        break;
      }
    }
  } else {
    // StateTable: the current state indexes its merged list directly.
    const std::size_t states = state_begin_.size() - 2;
    const std::size_t slot =
        state_ >= 0 && static_cast<std::size_t>(state_) < states
            ? static_cast<std::size_t>(state_)
            : states;
    const std::uint16_t* const list = state_rows_.data();
    const std::uint16_t* const end = list + state_begin_[slot + 1];
    for (const std::uint16_t* i = list + state_begin_[slot]; i != end; ++i) {
      ++effort;
      if (fires(rows[*i])) {
        selected = &transitions_[rows[*i].transition];
        break;
      }
    }
  }
  scan_effort_ = effort;
  return selected;
}

namespace {

// The per-thread mark routing (LocalReadyScopeBinding): the bound
// specification's scopes, and the bound shard (kNoShard: every shard).
thread_local ReadyScope* t_ready_scopes = nullptr;
thread_local const Specification* t_ready_spec = nullptr;
thread_local int t_ready_shard = kNoShard;

}  // namespace

LocalReadyScopeBinding::LocalReadyScopeBinding(Specification& spec,
                                               int shard) noexcept
    : prev_scopes_(t_ready_scopes),
      prev_spec_(t_ready_spec),
      prev_shard_(t_ready_shard) {
  t_ready_scopes = spec.ready_set().scopes_.data();
  t_ready_spec = &spec;
  t_ready_shard = shard;
}

LocalReadyScopeBinding::~LocalReadyScopeBinding() {
  t_ready_scopes = prev_scopes_;
  t_ready_spec = prev_spec_;
  t_ready_shard = prev_shard_;
}

void Module::mark_ready() noexcept {
  if (spec_ == nullptr) return;
  if (spec_ == t_ready_spec && shard_ != kNoShard &&
      (t_ready_shard == kNoShard || shard_ == t_ready_shard)) {
    t_ready_scopes[shard_].mark(*this);
    return;
  }
  spec_->ready_ledger().mark(*this);
}

// ---------------------------------------------------------------------------
// ReadyLedger

void ReadyLedger::mark(Module& m) {
  // The exchange dedups; the happens-before between a worker-thread mark and
  // the boundary-time drain comes from the free-running session's lock and
  // the pool's wait_idle (barrier rounds mark and drain on one thread), not
  // from this flag.
  if (m.ledger_marked_.exchange(true, std::memory_order_acq_rel)) return;
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(&m);
}

void ReadyLedger::reset_flag(Module& m) noexcept {
  m.ledger_marked_.store(false, std::memory_order_release);
}

Module* Module::owning_system_module() noexcept {
  for (Module* cursor = this; cursor != nullptr; cursor = cursor->parent())
    if (is_system(cursor->attribute())) return cursor;
  return nullptr;
}

void Module::for_each(const std::function<void(Module&)>& f) {
  f(*this);
  for (auto& c : children_) c->for_each(f);
}

void Module::set_specification(Specification* spec) noexcept {
  spec_ = spec;
  for (auto& c : children_) c->set_specification(spec);
}

// ---------------------------------------------------------------------------
// Specification

Specification::Specification(std::string name)
    : name_(std::move(name)),
      ready_set_(std::make_unique<SpecReadySet>(*this)),
      root_(std::make_unique<Module>("spec:" + name_, Attribute::Inactive)) {
  root_->set_specification(this);
}

Specification::~Specification() = default;

void Specification::initialize() {
  if (initialized_)
    throw EstelleRuleError("specification already initialized");
  initialized_ = true;
  root_->for_each([](Module& m) {
    if (!m.initialized_) {
      m.initialized_ = true;
      m.on_init();
    }
  });
}

std::vector<Module*> Specification::system_modules() {
  std::vector<Module*> out;
  root_->for_each([&](Module& m) {
    if (is_system(m.attribute())) out.push_back(&m);
  });
  return out;
}

}  // namespace mcam::estelle
