#include "estelle/interaction.hpp"

#include <array>
#include <mutex>
#include <stdexcept>

#include "estelle/module.hpp"

namespace mcam::estelle {

InteractionPoint::InteractionPoint(Module& owner, std::string name)
    : owner_(owner), name_(std::move(name)) {}

InteractionPoint::~InteractionPoint() { disconnect(*this); }

namespace {

thread_local int t_shard = kNoShard;
thread_local SimTime t_shard_now{};
thread_local std::uint64_t t_shard_round = 0;

/// Striped lock pool for the cross-shard transfer mailboxes. Striping keeps
/// the per-IP footprint at one vector while still letting unrelated channels
/// transfer concurrently; two IPs hashing to one stripe merely contend, they
/// never deadlock (each deliver/drain takes exactly one stripe).
constexpr std::size_t kTransferStripes = 64;
std::array<std::mutex, kTransferStripes> g_transfer_mu;

std::mutex& stripe_of(const InteractionPoint* ip) {
  const auto h = reinterpret_cast<std::uintptr_t>(ip);
  // Mix the low bits away: IPs are heap objects with aligned addresses.
  return g_transfer_mu[(h >> 6) % kTransferStripes];
}

}  // namespace

ShardExecutionScope::ShardExecutionScope(int shard, SimTime now,
                                         std::uint64_t round)
    : prev_shard_(t_shard), prev_now_(t_shard_now), prev_round_(t_shard_round) {
  t_shard = shard;
  t_shard_now = now;
  t_shard_round = round;
}

ShardExecutionScope::~ShardExecutionScope() {
  t_shard = prev_shard_;
  t_shard_now = prev_now_;
  t_shard_round = prev_round_;
}

int ShardExecutionScope::current_shard() noexcept { return t_shard; }

void InteractionPoint::deliver(Interaction msg) {
  if (t_shard != kNoShard && owner_.shard() != t_shard) {
    // Two-phase cross-shard handoff: park in the transfer mailbox, stamped
    // with the sender shard's clock and round; the owning shard drains at
    // its next round (the drain is what marks the owner ready). The wake
    // sink fires after the store is published so a passive free-running
    // shard can be unparked instead of waiting for a coordinator round.
    inject_transfer(std::move(msg), t_shard_now, t_shard_round);
    return;
  }
  // Only the queue head is offered to when-clauses, so fireability changes
  // exactly when the delivery creates a new head.
  const bool new_head = inbox_.empty();
  inbox_.push_back(std::move(msg));
  if (new_head) owner_.mark_ready();
}

std::size_t InteractionPoint::drain_transfers_until(
    std::uint64_t max_round, SimTime* watermark,
    std::uint64_t* min_remaining) {
  // Empty-mailbox fast path, lock-free: drains are separated from foreign
  // deliveries by program order (barrier rounds run on one thread) or the
  // sender-progress gate (free-running), so a zero count really means
  // empty-for-our-round.
  if (transfer_count_.load(std::memory_order_acquire) == 0) return 0;
  std::lock_guard<std::mutex> lock(stripe_of(this));
  std::size_t moved = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < transfers_.size(); ++i) {
    Transfer& t = transfers_[i];
    if (t.round <= max_round) {
      if (watermark != nullptr && t.sent_at > *watermark) *watermark = t.sent_at;
      inbox_.push_back(std::move(t.msg));
      ++moved;
    } else {
      if (min_remaining != nullptr && t.round < *min_remaining)
        *min_remaining = t.round;
      // Guard the self-move: keep == i whenever no earlier entry matured,
      // and a self-move-assignment would empty the interaction's payload.
      if (keep != i) transfers_[keep] = std::move(t);
      ++keep;
    }
  }
  transfers_.resize(keep);
  transfer_count_.store(keep, std::memory_order_release);
  if (moved > 0) owner_.mark_ready();
  return moved;
}

void InteractionPoint::clear() noexcept {
  inbox_.clear();
  owner_.mark_ready();  // the offered head (if any) is gone
}

bool InteractionPoint::has_pending_transfers() const {
  return transfer_count_.load(std::memory_order_acquire) != 0;
}

void InteractionPoint::inject_transfer(Interaction msg, SimTime sent_at,
                                       std::uint64_t round) {
  {
    std::lock_guard<std::mutex> lock(stripe_of(this));
    transfers_.push_back({std::move(msg), sent_at, round});
    transfer_count_.store(transfers_.size(), std::memory_order_release);
  }
  if (Specification* spec = owner_.specification())
    if (CrossShardWakeSink* sink = spec->cross_shard_wake_sink())
      sink->on_cross_shard_delivery(owner_.shard(), round);
}

std::size_t InteractionPoint::take_transfers(std::vector<Transfer>& out) {
  if (transfer_count_.load(std::memory_order_acquire) == 0) return 0;
  std::lock_guard<std::mutex> lock(stripe_of(this));
  const std::size_t moved = transfers_.size();
  if (out.empty()) {
    out.swap(transfers_);  // steady state: recycle the caller's capacity
  } else {
    for (Transfer& t : transfers_) out.push_back(std::move(t));
    transfers_.clear();
  }
  transfer_count_.store(0, std::memory_order_release);
  return moved;
}

bool InteractionPoint::output(Interaction msg) {
  if (peer_ == nullptr)
    throw std::logic_error("output on unconnected interaction point '" +
                           name_ + "' of module '" + owner_.path() + "'");
  ++sent_;
  if (loss_probability_ > 0.0 && loss_rng_ != nullptr &&
      loss_rng_->chance(loss_probability_)) {
    ++dropped_;
    return false;
  }
  peer_->deliver(std::move(msg));
  return true;
}

Interaction InteractionPoint::pop() {
  if (inbox_.empty())
    throw std::logic_error("pop on empty interaction point '" + name_ + "'");
  Interaction msg = std::move(inbox_.front());
  inbox_.pop_front();
  // The next interaction (or none) is now the offered head; whichever of the
  // owner's when-clauses match has to be reconsidered.
  owner_.mark_ready();
  return msg;
}

void connect(InteractionPoint& a, InteractionPoint& b) {
  if (a.connected() || b.connected())
    throw std::logic_error("interaction point already connected: " +
                           (a.connected() ? a.name() : b.name()));
  if (&a == &b) throw std::logic_error("cannot connect IP to itself");
  a.attach_peer(&b);
  b.attach_peer(&a);
  if (Specification* spec = a.owner().specification())
    spec->note_topology_change();
  if (Specification* spec = b.owner().specification())
    spec->note_topology_change();
}

void disconnect(InteractionPoint& ip) noexcept {
  if (InteractionPoint* peer = ip.peer()) {
    peer->attach_peer(nullptr);
    ip.attach_peer(nullptr);
    if (Specification* spec = ip.owner().specification())
      spec->note_topology_change();
  }
}

}  // namespace mcam::estelle
