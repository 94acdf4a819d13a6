// Estelle interactions, interaction points and channels (ISO 9074 §5).
//
// Estelle modules communicate exclusively by exchanging *interactions* over
// bidirectional *channels* attached to *interaction points* (IPs). Each IP
// owns a FIFO queue of arrived interactions; per Estelle semantics only the
// queue head is offered to the module's `when` clauses.
//
// A channel here is simply the pairing of two IPs (connect()). Channels can
// carry impairments (loss, delay) so protocol experiments can inject faults
// below a layer without a full network simulation — this stands in for the
// paper's "simulated transport layer pipe" (§5.1).
//
// Delivery is *channel policy*, decided inside deliver() rather than by each
// backend: an interaction entering an IP is routed to exactly one of
//   1. the IP's cross-shard transfer mailbox, when a shard execution scope is
//      active on the calling thread and the destination belongs to a
//      different shard (two-phase commit per shard round — the free-running
//      and distributed executors' mechanism), or
//   2. the plain inbox (same-shard / unsharded / main-thread case).
// Because every backend funnels through the same routing point, race-free
// commit semantics are a property of the channel, not of any one scheduler.
//
// The inbox is a common::Ring: building an IP allocates nothing for it, and
// it keeps its storage, so a warmed inbox delivers and pops without
// allocating. Interactions move through it; their payload buffers are never
// copied on the way.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"

namespace mcam::estelle {

using common::Bytes;
using common::SimTime;

/// Matches any interaction kind in a `when` clause.
inline constexpr int kAnyKind = -1;
/// Matches any FSM state in a `from` clause.
inline constexpr int kAnyState = -1;

/// Shard id of a module outside every system subtree, or of any module
/// before its specification's ready set first seeds (Module::shard); also
/// what ShardExecutionScope::current_shard() reports on a thread that runs
/// no shard round.
inline constexpr int kNoShard = -1;

/// One Estelle interaction: a kind (the interaction name in the channel
/// definition) plus parameters. Estelle parameters are plain values (ISO
/// 9074 §5): `value` is one integer parameter, 0 meaning none — in the
/// stack, the connect responses' accept flag (1 or 0). Opaque user data
/// (PDUs of the layer above) travels as payload octets.
struct Interaction {
  int kind = 0;
  std::int64_t value = 0;
  Bytes payload;

  Interaction() = default;
  explicit Interaction(int k) : kind(k) {}
  Interaction(int k, Bytes p) : kind(k), payload(std::move(p)) {}
  /// A braced byte list is a payload, never a one-element value.
  Interaction(int k, std::initializer_list<std::uint8_t> p)
      : kind(k), payload(p) {}
  Interaction(int k, std::int64_t v) : kind(k), value(v) {}
  Interaction(int k, std::int64_t v, Bytes p)
      : kind(k), value(v), payload(std::move(p)) {}
};

class Module;

/// Sentinel round stamp meaning "accept every parked transfer".
inline constexpr std::uint64_t kAllRounds =
    std::numeric_limits<std::uint64_t>::max();

/// Cross-shard wake signal for continuation-style executors. A sink
/// registered on the Specification is invoked after deliver() parks an
/// interaction in a foreign shard's transfer mailbox: `shard` is the
/// destination shard, `sender_round` the sending shard's in-flight round
/// (its ShardExecutionScope stamp). Invoked from whatever worker
/// thread executed the output, after the mailbox store is published — the
/// free-running executor uses it to unpark a passive destination shard
/// instead of waiting for a coordinator round.
class CrossShardWakeSink {
 public:
  virtual ~CrossShardWakeSink() = default;
  virtual void on_cross_shard_delivery(int shard,
                                       std::uint64_t sender_round) noexcept = 0;
};

/// An interaction point. Owned by a module; optionally connected to exactly
/// one peer IP (full-duplex).
class InteractionPoint {
 public:
  InteractionPoint(Module& owner, std::string name);
  ~InteractionPoint();

  InteractionPoint(const InteractionPoint&) = delete;
  InteractionPoint& operator=(const InteractionPoint&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Module& owner() const noexcept { return owner_; }
  [[nodiscard]] InteractionPoint* peer() const noexcept { return peer_; }
  [[nodiscard]] bool connected() const noexcept { return peer_ != nullptr; }

  /// Send an interaction to the peer's queue. Unconnected output is a
  /// specification error and throws. Returns false if the channel dropped
  /// the interaction (loss injection).
  bool output(Interaction msg);

  // ---- receive side ----
  [[nodiscard]] bool has_input() const noexcept { return !inbox_.empty(); }
  /// The offered head, nullptr when the inbox is empty. The pointer stays
  /// valid until this IP's next delivery (which may grow the inbox) or pop.
  [[nodiscard]] const Interaction* head() const noexcept {
    return inbox_.empty() ? nullptr : &inbox_.front();
  }
  /// Move the head out of the inbox; the caller owns it.
  Interaction pop();
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return inbox_.size();
  }
  void clear() noexcept;

  /// Fault injection on this IP's *outgoing* direction.
  void set_loss(double probability, common::Rng* rng) noexcept {
    loss_probability_ = probability;
    loss_rng_ = rng;
  }
  /// The loss Rng (nullptr when no loss is injected). ConflictAnalysis uses
  /// pointer identity to detect an Rng shared across shards.
  [[nodiscard]] common::Rng* loss_rng() const noexcept { return loss_rng_; }
  [[nodiscard]] double loss_probability() const noexcept {
    return loss_probability_;
  }

  // Used by connect()/disconnect() free functions.
  void attach_peer(InteractionPoint* peer) noexcept { peer_ = peer; }
  /// Route one interaction into this IP (see the routing policy in the
  /// header comment). Outside a shard execution scope only the direct-inbox
  /// path is taken; the transfer path takes a striped lock and is safe from
  /// any thread.
  void deliver(Interaction msg);

  // ---- two-phase cross-shard mailbox ----
  /// Move every cross-shard arrival into the inbox, in transfer order.
  /// Single-consumer: only the worker currently stepping the owning shard
  /// (or the run thread between rounds) may call this. Returns the number of
  /// interactions moved; `watermark` (if given) is raised to the latest
  /// sender-side timestamp seen, which the sharded executor uses to keep the
  /// receiving shard's clock ahead of every message it has accepted.
  std::size_t drain_transfers(SimTime* watermark = nullptr) {
    return drain_transfers_until(kAllRounds, watermark, nullptr);
  }
  /// Round-bounded drain of every shard round (begin_round): accept only
  /// arrivals whose sender round stamp is <= `max_round` (a shard collecting
  /// its global round r passes r-1, so a message sent during round k becomes
  /// visible in round k+1 — a barrier's visibility rule, enforced per
  /// message, which is what lets free-running shards drop the barrier). Later-stamped arrivals stay
  /// parked; `min_remaining` (if given) is lowered to the smallest round
  /// stamp left behind, which an idle shard uses to leap its round counter
  /// to the next arrival instead of spinning through empty rounds.
  std::size_t drain_transfers_until(std::uint64_t max_round, SimTime* watermark,
                                    std::uint64_t* min_remaining);
  /// True when cross-shard arrivals are waiting to be drained.
  [[nodiscard]] bool has_pending_transfers() const;

  /// One parked cross-shard arrival: the interaction plus the sender shard's
  /// clock and in-flight global round at output() time. Public because the
  /// distributed runner moves parked transfers onto the wire stamps-intact.
  struct Transfer {
    Interaction msg;
    SimTime sent_at{};
    std::uint64_t round = 0;
  };

  // ---- remote-shard bridge (transport/dist_runner) ----
  /// Move every parked transfer (stamps included) into `out`, emptying the
  /// mailbox. The distributed runner calls this on the local replica IP of a
  /// remote module after each round: locally-fired outputs to that module
  /// parked here via deliver()'s cross-shard path, and this is how they
  /// leave for the owning process, as TransferBatch entries. Same
  /// single-consumer rule as the drains. Returns the number of transfers
  /// moved.
  std::size_t take_transfers(std::vector<Transfer>& out);
  /// Park one arrival in the transfer mailbox with explicit stamps — the
  /// receive half of the bridge: a batch entry from the sender process is
  /// re-parked here exactly as deliver() would have parked it in-process, so
  /// drain_transfers_until() and the round-visibility rule treat remote and
  /// local senders identically. Fires the cross-shard wake sink.
  void inject_transfer(Interaction msg, SimTime sent_at, std::uint64_t round);

  /// Statistics for Table-1 style reliability measurements.
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Zero the sent/dropped counters. clear() deliberately does NOT touch
  /// them (it empties the queue, it does not rewrite history); call this
  /// when an IP is reused across otherwise-independent runs.
  void reset_stats() noexcept {
    sent_ = 0;
    dropped_ = 0;
  }

 private:
  Module& owner_;
  std::string name_;
  InteractionPoint* peer_ = nullptr;
  common::Ring<Interaction> inbox_;
  /// Cross-shard arrivals parked until the owning shard's next round drains
  /// them, stamped with the sender shard's clock and round. Guarded by a
  /// striped mutex pool (see interaction.cpp), not a per-IP mutex, so idle
  /// IPs cost nothing; `transfer_count_` mirrors the size so the per-round
  /// drain sweep can skip empty mailboxes without touching a lock.
  std::vector<Transfer> transfers_;
  std::atomic<std::size_t> transfer_count_{0};
  double loss_probability_ = 0.0;
  common::Rng* loss_rng_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Connect two interaction points with a channel. Both must be unconnected.
void connect(InteractionPoint& a, InteractionPoint& b);

/// Tear down the channel between `ip` and its peer (idempotent).
void disconnect(InteractionPoint& ip) noexcept;

/// While alive on a thread, marks that thread as executing shard `shard` at
/// shard-local time `now` in global round `round`: deliveries to IPs of
/// other shards detour into their transfer mailboxes (stamped with `now` and
/// `round`) instead of touching the foreign inbox. Every shard round
/// (fire_round, shard_round.hpp) installs one, stamped with its round number
/// — the barrier round's, or the free-running shard's own — so receivers
/// accept a message only from the round after the one that sent it.
class ShardExecutionScope {
 public:
  ShardExecutionScope(int shard, SimTime now, std::uint64_t round);
  ~ShardExecutionScope();
  ShardExecutionScope(const ShardExecutionScope&) = delete;
  ShardExecutionScope& operator=(const ShardExecutionScope&) = delete;

  /// The shard the calling thread is executing for, or kNoShard.
  [[nodiscard]] static int current_shard() noexcept;

 private:
  int prev_shard_;
  SimTime prev_now_;
  std::uint64_t prev_round_;
};

}  // namespace mcam::estelle
