#include "estelle/module.hpp"

#include <algorithm>
#include <atomic>

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
        // ParallelSim's tree-scan wakeup, only while its guard passes. The
        // guard evaluation itself makes the module sticky (guard_invoked),
        // so a later guard flip is caught by the per-round re-evaluation.
        bool pass = true;
        if (t.provided) {
          probe->guard_invoked = true;
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
    if (probe != nullptr) probe->guard_invoked = true;
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
    std::function<void(Module&, const Interaction*)> a) {
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
  // be routable before the next ConflictAnalysis refresh.
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
  transitions_.push_back(std::move(t));
  index_dirty_ = true;
  // A transition registered mid-run (dynamic specialization) must be seen by
  // the event-driven schedulers without a topology change.
  mark_ready();
}

void Module::rebuild_index() {
  auto by_priority = [this](int a, int b) {
    const auto& ta = transitions_[static_cast<std::size_t>(a)];
    const auto& tb = transitions_[static_cast<std::size_t>(b)];
    return ta.priority != tb.priority ? ta.priority < tb.priority : a < b;
  };

  linear_order_.resize(transitions_.size());
  for (std::size_t i = 0; i < linear_order_.size(); ++i)
    linear_order_[i] = static_cast<int>(i);
  std::sort(linear_order_.begin(), linear_order_.end(), by_priority);

  state_buckets_.clear();
  any_bucket_.clear();
  int max_state = -1;
  for (const Transition& t : transitions_)
    if (t.from_state != kAnyState) max_state = std::max(max_state, t.from_state);
  state_buckets_.resize(static_cast<std::size_t>(max_state + 1));
  for (int i : linear_order_) {
    const Transition& t = transitions_[static_cast<std::size_t>(i)];
    if (t.from_state == kAnyState)
      any_bucket_.push_back(i);
    else if (t.from_state >= 0)
      state_buckets_[static_cast<std::size_t>(t.from_state)].push_back(i);
  }
  index_dirty_ = false;
}

const Transition* Module::select_fireable(common::SimTime now,
                                          ReadinessProbe* probe) {
  scan_effort_ = 0;
  if (transitions_.empty()) return nullptr;
  if (index_dirty_) rebuild_index();

  if (dispatch_ == DispatchKind::LinearScan) {
    // Hard-coded if/else chain: all transitions in (priority, decl) order,
    // first fireable wins; every guard on the way is evaluated.
    for (int i : linear_order_) {
      ++scan_effort_;
      Transition& t = transitions_[static_cast<std::size_t>(i)];
      if (is_fireable(t, *this, now, probe)) return &t;
    }
    return nullptr;
  }

  // StateTable: the current state indexes its bucket directly; only that
  // bucket and the kAnyState bucket are examined, merged by priority (both
  // are already priority-sorted).
  static const std::vector<int> kEmpty;
  const std::vector<int>& exact =
      state_ >= 0 && static_cast<std::size_t>(state_) < state_buckets_.size()
          ? state_buckets_[static_cast<std::size_t>(state_)]
          : kEmpty;
  const std::vector<int>& any = any_bucket_;
  std::size_t ei = 0;
  std::size_t ai = 0;
  auto better = [this](int a, int b) {
    const auto& ta = transitions_[static_cast<std::size_t>(a)];
    const auto& tb = transitions_[static_cast<std::size_t>(b)];
    return ta.priority != tb.priority ? ta.priority < tb.priority : a < b;
  };
  while (ei < exact.size() || ai < any.size()) {
    int idx;
    if (ei < exact.size() &&
        (ai >= any.size() || better(exact[ei], any[ai])))
      idx = exact[ei++];
    else
      idx = any[ai++];
    ++scan_effort_;
    Transition& t = transitions_[static_cast<std::size_t>(idx)];
    if (is_fireable(t, *this, now, probe)) return &t;
  }
  return nullptr;
}

namespace {

// The free-running executor's per-thread mark routing (LocalReadyScopeBinding).
thread_local ReadyScope* t_ready_scope = nullptr;
thread_local int t_ready_shard = kNoShard;

}  // namespace

LocalReadyScopeBinding::LocalReadyScopeBinding(ReadyScope& scope,
                                               int shard) noexcept
    : prev_scope_(t_ready_scope), prev_shard_(t_ready_shard) {
  t_ready_scope = &scope;
  t_ready_shard = shard;
}

LocalReadyScopeBinding::~LocalReadyScopeBinding() {
  t_ready_scope = prev_scope_;
  t_ready_shard = prev_shard_;
}

void Module::mark_ready() noexcept {
  if (t_ready_scope != nullptr && shard_ == t_ready_shard) {
    t_ready_scope->mark(*this);
    return;
  }
  if (spec_ != nullptr) spec_->ready_ledger().mark(*this);
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
      root_(std::make_unique<Module>("spec:" + name_, Attribute::Inactive)) {
  root_->set_specification(this);
}

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
