#include "estelle/transport/dist_runner.hpp"

#include <algorithm>
#include <any>
#include <chrono>
#include <string>
#include <utility>

namespace mcam::estelle {

using common::SimTime;
using common::Status;

namespace {

using SteadyClock = std::chrono::steady_clock;

// FNV-1a, with a separator byte after every field so concatenations cannot
// collide ("ab"+"c" vs "a"+"bc").
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 1099511628211ull;
  }
  void str(const std::string& s) noexcept {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0xff);
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    byte(0xfe);
  }
};

}  // namespace

DistributedRunner::DistributedRunner(Specification& spec,
                                     const ExecutorConfig& cfg)
    : ShardedExecutor(spec, cfg) {
  if (const auto* opts = std::any_cast<DistOptions>(&cfg.backend_options))
    opts_ = *opts;
  transport_ = opts_.transport;
}

std::uint64_t DistributedRunner::spec_fingerprint() {
  // Structure only: module paths, transition counts/names, interaction
  // points and their channel wiring. Two processes that built the same
  // specification agree; a divergent build (different workload parameters,
  // different topology) is refused at the handshake instead of producing a
  // silently wrong merged trace.
  Fnv f;
  f.str(spec_.name());
  spec_.root().for_each([&f](Module& m) {
    f.str(m.path());
    f.u64(m.transitions().size());
    for (const Transition& t : m.transitions()) f.str(t.name);
    for (const auto& ip : m.ips()) {
      f.str(ip->name());
      if (ip->peer() != nullptr) {
        f.str(ip->peer()->owner().path());
        f.str(ip->peer()->name());
      } else {
        f.byte(0xfd);
      }
    }
  });
  return f.h;
}

void DistributedRunner::fail(std::string why) {
  if (error_.empty()) error_ = std::move(why);
}

DistributedRunner::PeerState* DistributedRunner::peer_state(
    int node) noexcept {
  for (PeerState& p : peers_)
    if (p.node == node) return &p;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Wiring

void DistributedRunner::wire() {
  wired_ = true;
  ensure_analysis();
  if (!analysis_->conflict_free()) {
    const ChannelConflict& c = analysis_->conflicts().front();
    fail(std::string("distributed: specification is not conflict-free (") +
         conflict_kind_name(c.kind) + ": " + c.detail +
         ") and cross-process rounds have no serialized fallback");
    return;
  }
  const int nshards = analysis_->shard_count();
  if (opts_.nodes < 1 || opts_.node < 0 || opts_.node >= opts_.nodes) {
    fail("distributed: bad node identity " + std::to_string(opts_.node) +
         "/" + std::to_string(opts_.nodes));
    return;
  }
  if (opts_.nodes > 1 && transport_ == nullptr) {
    fail("distributed: nodes > 1 requires a MailboxTransport");
    return;
  }
  assignment_ = opts_.assignment;
  if (assignment_.empty()) {
    assignment_.resize(static_cast<std::size_t>(nshards));
    for (int s = 0; s < nshards; ++s) assignment_[static_cast<std::size_t>(s)] =
        s % opts_.nodes;
  } else if (static_cast<int>(assignment_.size()) != nshards) {
    fail("distributed: assignment covers " +
         std::to_string(assignment_.size()) + " shards, specification has " +
         std::to_string(nshards));
    return;
  }
  for (const int owner : assignment_) {
    if (owner < 0 || owner >= opts_.nodes) {
      fail("distributed: assignment names node " + std::to_string(owner) +
           " outside 0.." + std::to_string(opts_.nodes - 1));
      return;
    }
  }
  build_tables();
  wired_version_ = spec_.topology_version();
  peers_.clear();
  if (transport_ != nullptr) {
    for (const int p : transport_->peers()) {
      if (p < 0 || p >= opts_.nodes || p == opts_.node) {
        fail("distributed: transport peer id " + std::to_string(p) +
             " is not a valid other node");
        return;
      }
      PeerState st;
      st.node = p;
      peers_.push_back(st);
    }
  }
  if (opts_.nodes > 1 &&
      static_cast<int>(peers_.size()) != opts_.nodes - 1) {
    fail("distributed: transport connects " + std::to_string(peers_.size()) +
         " peers, need " + std::to_string(opts_.nodes - 1));
    return;
  }
  if (transport_ != nullptr && !peers_.empty()) {
    // Session/recovery configuration must be in place before the first
    // frame: the fingerprint seals resume handshakes to this specification.
    MailboxTransport::SessionOptions so;
    so.reconnect_max_attempts = opts_.reconnect_max_attempts;
    so.backoff_initial_ms = opts_.backoff_initial_ms;
    so.backoff_cap_ms = opts_.backoff_cap_ms;
    so.resend_timeout_ms = opts_.resend_timeout_ms;
    so.fingerprint = spec_fingerprint();
    transport_->configure_session(so);
  }
  if (!peers_.empty()) (void)handshake();
}

void DistributedRunner::build_tables() {
  const int nshards = analysis_->shard_count();
  local_shards_.clear();
  for (int s = 0; s < nshards; ++s)
    if (is_local(s)) local_shards_.push_back(s);
  advertise_peers_.assign(local_shards_.size(), {});
  gate_shards_.clear();
  wire_channels_.clear();
  neighbor_peers_.clear();
  remote_advertised_.assign(static_cast<std::size_t>(nshards), 0);

  const auto& cross = analysis_->cross_shard_channels();
  wire_by_index_.assign(cross.size(), -1);
  const auto local_pos = [this](int s) {
    return static_cast<std::size_t>(
        std::lower_bound(local_shards_.begin(), local_shards_.end(), s) -
        local_shards_.begin());
  };
  for (std::size_t i = 0; i < cross.size(); ++i) {
    const CrossShardChannel& cc = cross[i];
    const bool a_local = is_local(cc.shard_a);
    const bool b_local = is_local(cc.shard_b);
    if (a_local == b_local) continue;  // both local (in-process) / both remote
    WireChannel wc;
    wc.index = static_cast<std::uint32_t>(i);
    if (a_local) {
      wc.local_ep = cc.a;
      wc.remote_ep = cc.b;
      wc.dir_to_remote = 1;  // Frame::dir 1 delivers into endpoint b
      wc.dir_to_local = 0;
      wc.peer_node = assignment_[static_cast<std::size_t>(cc.shard_b)];
      gate_shards_.push_back(cc.shard_b);
      advertise_peers_[local_pos(cc.shard_a)].push_back(wc.peer_node);
    } else {
      wc.local_ep = cc.b;
      wc.remote_ep = cc.a;
      wc.dir_to_remote = 0;
      wc.dir_to_local = 1;
      wc.peer_node = assignment_[static_cast<std::size_t>(cc.shard_a)];
      gate_shards_.push_back(cc.shard_a);
      advertise_peers_[local_pos(cc.shard_b)].push_back(wc.peer_node);
    }
    wire_by_index_[i] = static_cast<int>(wire_channels_.size());
    wire_channels_.push_back(wc);
    neighbor_peers_.push_back(wc.peer_node);
  }
  const auto dedupe = [](std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedupe(gate_shards_);
  dedupe(neighbor_peers_);
  for (auto& v : advertise_peers_) dedupe(v);
  peer_batches_.clear();
  for (const int p : neighbor_peers_) {
    PeerBatch b;
    b.peer = p;
    b.frame.type = FrameType::TransferBatch;
    peer_batches_.push_back(std::move(b));
  }
}

bool DistributedRunner::handshake() {
  id_spec_hash_ = spec_fingerprint();
  {
    Fnv f;
    for (const int owner : assignment_)
      f.u64(static_cast<std::uint64_t>(owner));
    id_assign_hash_ = f.h;
  }
  Frame hello;
  hello.type = FrameType::Hello;
  hello.node = static_cast<std::uint32_t>(opts_.node);
  hello.nodes = static_cast<std::uint32_t>(opts_.nodes);
  hello.shards = static_cast<std::uint32_t>(analysis_->shard_count());
  hello.spec_hash = id_spec_hash_;
  hello.topology_version = wired_version_;
  hello.assign_hash = id_assign_hash_;
  for (PeerState& p : peers_)
    if (!send_frame(p.node, hello)) return false;
  transport_->flush();

  const auto watchdog = std::chrono::milliseconds(opts_.gate_timeout_ms);
  auto deadline = SteadyClock::now() + watchdog;
  for (;;) {
    if (!error_.empty()) return false;
    bool all = true;
    for (const PeerState& p : peers_)
      if (!p.hello_seen || !p.welcome_seen) {
        all = false;
        break;
      }
    if (all) return true;
    if (SteadyClock::now() > deadline) {
      fail("distributed: membership handshake timed out after " +
           std::to_string(opts_.gate_timeout_ms) + " ms");
      return false;
    }
    switch (pump(20)) {
      case Pump::kFailed:
        return false;
      case Pump::kFrame:
        deadline = SteadyClock::now() + watchdog;
        break;
      case Pump::kIdle:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Frame pump

DistributedRunner::Pump DistributedRunner::pump(int timeout_ms) {
  if (transport_ == nullptr) return Pump::kIdle;
  int from = -1;
  Frame f;
  std::string why;
  switch (transport_->recv(&from, &f, timeout_ms, &why)) {
    case MailboxTransport::RecvOutcome::kFrame:
      on_frame(from, f);
      return error_.empty() ? Pump::kFrame : Pump::kFailed;
    case MailboxTransport::RecvOutcome::kIdle:
      return Pump::kIdle;
    case MailboxTransport::RecvOutcome::kClosed: {
      const PeerState* p = peer_state(from);
      if (p != nullptr && p->departed) return Pump::kIdle;  // Bye preceded it
      fail("distributed: node " + std::to_string(from) + " died mid-run" +
           (why.empty() ? "" : " (" + why + ")"));
      return Pump::kFailed;
    }
  }
  return Pump::kIdle;
}

void DistributedRunner::on_frame(int from, Frame& f) {
  PeerState* p = peer_state(from);
  if (p == nullptr) return;  // not a member — drop
  switch (f.type) {
    case FrameType::Hello:
      on_hello(from, f);
      return;
    case FrameType::Welcome:
      p->welcome_seen = true;
      if (!f.accept)
        fail("distributed: node " + std::to_string(from) +
             " refused the handshake: " + f.reason);
      return;
    case FrameType::Transfer:
      (void)accept_transfer(from, f.channel, f.dir, std::move(f.msg),
                            f.sent_at_ns, f.round);
      return;
    case FrameType::TransferBatch: {
      if (f.rejected_entries != 0) {
        // The frame decoded but entries inside it did not: their transfers
        // are lost, which would silently break the ≡ Sequential guarantee.
        // Fail loudly instead.
        fail("distributed: node " + std::to_string(from) +
             " sent a transfer batch with " +
             std::to_string(f.rejected_entries) + " undecodable entries");
        return;
      }
      for (TransferEntry& e : f.entries)
        if (!accept_transfer(from, e.channel, e.dir, std::move(e.msg),
                             e.sent_at_ns, f.round))
          return;
      return;
    }
    case FrameType::Advertise:
    case FrameType::NullRound: {
      const std::size_t s = f.shard;
      if (s >= remote_advertised_.size() || is_local(static_cast<int>(s)))
        return;  // bogus shard id — ignore, the gate would hang on nothing
      if (f.round > remote_advertised_[s]) {
        remote_advertised_[s] = f.round;
        if (f.type == FrameType::NullRound)
          ++transport_->mutable_stats().null_rounds_serviced;
      }
      return;
    }
    case FrameType::RoundDone:
      p->round_seen = true;
      if (f.round > p->last_round) p->last_round = f.round;
      p->quiescent = f.quiescent;
      return;
    case FrameType::Probe:
      answer_probe(from, f.epoch);
      return;
    case FrameType::ProbeAck:
      p->ack_epoch = f.epoch;
      p->ack_quiescent = f.quiescent;
      p->ack_sent = f.sent;
      p->ack_recv = f.recv;
      return;
    case FrameType::Bye:
      p->departed = true;
      return;
    case FrameType::HelloResume:
    case FrameType::SessionAck:
      // Session-layer control frames: the socket transport consumes both in
      // on_control and never hands them up, so there is nothing to do here.
      return;
  }
}

void DistributedRunner::on_hello(int from, const Frame& f) {
  PeerState* p = peer_state(from);
  if (p == nullptr) return;
  p->hello_seen = true;
  std::string why;
  if (static_cast<int>(f.node) != from)
    why = "claims node id " + std::to_string(f.node);
  else if (static_cast<int>(f.nodes) != opts_.nodes)
    why = "expects " + std::to_string(f.nodes) + " nodes, this group has " +
          std::to_string(opts_.nodes);
  else if (static_cast<int>(f.shards) != analysis_->shard_count())
    why = "sees " + std::to_string(f.shards) + " shards, this node sees " +
          std::to_string(analysis_->shard_count());
  else if (f.spec_hash != id_spec_hash_)
    why = "specification fingerprint mismatch";
  else if (f.topology_version != wired_version_)
    why = "topology version mismatch";
  else if (f.assign_hash != id_assign_hash_)
    why = "shard assignment mismatch";
  Frame w;
  w.type = FrameType::Welcome;
  w.node = static_cast<std::uint32_t>(opts_.node);
  w.accept = why.empty();
  w.reason = why;
  if (send_frame(from, w)) transport_->flush();
  if (!why.empty())
    fail("distributed: refusing node " + std::to_string(from) + ": " + why);
}

bool DistributedRunner::send_frame(int peer, Frame& f) {
  // The transport contract keeps `f` intact on failure, so the retry loop
  // below re-sends the same object without copying. On success an
  // in-process endpoint may have MOVED it — callers that reuse one frame
  // across peers rely on frames whose live fields are scalars (member-wise
  // move copies those); the batch path clears its entries after each send.
  if (transport_ == nullptr) return true;
  const auto deadline = SteadyClock::now() +
                        std::chrono::milliseconds(opts_.gate_timeout_ms);
  for (;;) {
    Status st = transport_->send(peer, f);
    if (st.ok()) return true;
    if (st.error().code == kQueueFull) {
      // Back-pressure park: keep draining our own inbound (which also
      // opportunistically flushes socket buffers) and retry.
      if (SteadyClock::now() > deadline) {
        fail("distributed: send to node " + std::to_string(peer) +
             " back-pressured past the watchdog");
        return false;
      }
      if (pump(5) == Pump::kFailed) return false;
      continue;
    }
    // A failed send races the peer's departure: its Bye (graceful leave)
    // or bare close (death) is on the inbound side, possibly behind frames
    // we have not ingested yet. Drain and let the recv path classify the
    // close before deciding whether anything was owed.
    while (pump(0) == Pump::kFrame) {
    }
    const PeerState* p = peer_state(peer);
    if (p != nullptr && p->departed) return true;  // it left; nothing owed
    if (!error_.empty()) return false;  // pump saw it die without a Bye
    fail("distributed: send to node " + std::to_string(peer) +
         " failed: " + st.error().message);
    return false;
  }
}

bool DistributedRunner::accept_transfer(int from, std::uint32_t channel,
                                        std::uint8_t dir, Interaction&& msg,
                                        std::int64_t sent_at_ns,
                                        std::uint64_t round) {
  const int pos =
      channel < wire_by_index_.size() ? wire_by_index_[channel] : -1;
  if (pos < 0) {
    fail("distributed: node " + std::to_string(from) +
         " sent a transfer on unknown channel " + std::to_string(channel));
    return false;
  }
  const WireChannel& wc = wire_channels_[static_cast<std::size_t>(pos)];
  if (dir != wc.dir_to_local) {
    fail("distributed: node " + std::to_string(from) +
         " sent a transfer for an endpoint it owns (channel " +
         std::to_string(channel) + ")");
    return false;
  }
  wc.local_ep->inject_transfer(std::move(msg), SimTime{sent_at_ns}, round);
  ++transfers_recv_;
  return true;
}

// ---------------------------------------------------------------------------
// Round protocol

bool DistributedRunner::gate(std::uint64_t need) {
  if (need == 0 || gate_shards_.empty()) return true;
  const auto watchdog = std::chrono::milliseconds(opts_.gate_timeout_ms);
  auto deadline = SteadyClock::now() + watchdog;
  for (;;) {
    maybe_heartbeat();
    int lagging = -1;
    for (const int gs : gate_shards_)
      if (remote_advertised_[static_cast<std::size_t>(gs)] < need) {
        lagging = gs;
        break;
      }
    if (lagging < 0) return true;
    const int owner = assignment_[static_cast<std::size_t>(lagging)];
    const PeerState* p = peer_state(owner);
    if (p != nullptr && p->departed) {
      fail("distributed: node " + std::to_string(owner) +
           " left the run while shard " + std::to_string(lagging) +
           " still gates round " + std::to_string(need + 1));
      return false;
    }
    if (SteadyClock::now() > deadline) {
      fail("distributed: gate timed out waiting for shard " +
           std::to_string(lagging) + " (node " + std::to_string(owner) +
           ") to advertise round " + std::to_string(need));
      return false;
    }
    switch (pump(10)) {
      case Pump::kFailed:
        return false;
      case Pump::kFrame:
        deadline = SteadyClock::now() + watchdog;
        break;
      case Pump::kIdle:
        break;
    }
  }
}

bool DistributedRunner::run_round(std::uint64_t r) {
  // Every announcement carries round r, so the barrier's shard-id-order
  // replay is exactly the (round, shard) order the cross-node trace merge
  // sorts by.
  return barrier_round(r, local_shards_, opts_.trace_hook);
}

bool DistributedRunner::export_transfers(std::uint64_t r) {
  // Coalesce this round's transfers into one TransferBatch per peer: the
  // flush in send_round_frames() still precedes the round's Advertise on the
  // same FIFO stream, so gate release continues to imply transfer arrival.
  // Transfers stamped for another round (delay leaps) take the legacy
  // per-frame path — correct either way, they just never share a stamp.
  bool any_batched = false;
  for (const WireChannel& wc : wire_channels_) {
    if (!wc.remote_ep->has_pending_transfers()) continue;
    export_scratch_.clear();
    wc.remote_ep->take_transfers(export_scratch_);
    for (InteractionPoint::Transfer& t : export_scratch_) {
      if (opts_.batch_transfers && t.round == r) {
        for (PeerBatch& b : peer_batches_) {
          if (b.peer != wc.peer_node) continue;
          b.frame.entries.push_back(TransferEntry{
              wc.index, wc.dir_to_remote, t.sent_at.ns, std::move(t.msg)});
          any_batched = true;
          break;
        }
      } else {
        Frame f;
        f.type = FrameType::Transfer;
        f.channel = wc.index;
        f.dir = wc.dir_to_remote;
        f.round = t.round;
        f.sent_at_ns = t.sent_at.ns;
        f.msg = std::move(t.msg);
        if (!send_frame(wc.peer_node, f)) return false;
        if (!opts_.batch_transfers && transport_ != nullptr)
          transport_->flush();  // baseline mode: one syscall per frame
        ++transfers_sent_;
      }
    }
  }
  if (!any_batched) return true;
  for (PeerBatch& b : peer_batches_) {
    if (b.frame.entries.empty()) continue;
    const std::size_t n = b.frame.entries.size();
    if (n == 1) {
      // Single-transfer round: the small Transfer frame costs fewer wire
      // bytes than a one-entry batch.
      TransferEntry& e = b.frame.entries.front();
      Frame f;
      f.type = FrameType::Transfer;
      f.channel = e.channel;
      f.dir = e.dir;
      f.round = r;
      f.sent_at_ns = e.sent_at_ns;
      f.msg = std::move(e.msg);
      if (!send_frame(b.peer, f)) return false;
    } else {
      b.frame.type = FrameType::TransferBatch;
      b.frame.round = r;
      if (!send_frame(b.peer, b.frame)) return false;
    }
    transfers_sent_ += n;
    b.frame.entries.clear();
  }
  return true;
}

bool DistributedRunner::send_round_frames(std::uint64_t r, bool quiescent) {
  // Transfers left first (export_transfers); FIFO per peer then makes every
  // round-r stamp visible before the round-r Advertise releases a gate. A
  // shard that fired nothing this round advertises a null round.
  for (std::size_t pos = 0; pos < local_shards_.size(); ++pos) {
    if (advertise_peers_[pos].empty()) continue;
    const int s = local_shards_[pos];
    Frame f;
    f.type = shards_[static_cast<std::size_t>(s)].delta.rounds != 0
                 ? FrameType::Advertise
                 : FrameType::NullRound;
    f.shard = static_cast<std::uint32_t>(s);
    f.round = r;
    for (const int peer : advertise_peers_[pos])
      if (!send_frame(peer, f)) return false;
  }
  Frame done;
  done.type = FrameType::RoundDone;
  done.node = static_cast<std::uint32_t>(opts_.node);
  done.round = r;
  done.quiescent = quiescent;
  for (const PeerState& p : peers_) {
    if (p.departed) continue;
    if (!send_frame(p.node, done)) return false;
  }
  // Round boundary: push the whole backlog — transfers, then advertises,
  // then RoundDone — in one scatter-gather syscall per peer.
  if (transport_ != nullptr) transport_->flush();
  return true;
}

void DistributedRunner::maybe_heartbeat() {
  // Piggyback liveness on the protocol's own idle-peer frame: re-sending
  // the latest RoundDone is idempotent for the receiver (its round bound
  // only moves forward) but counts as a received frame, so the receiver's
  // watchdog resets. Waiting peers thus distinguish "slow" (heartbeats keep
  // arriving — wait on) from "dead" (silence; the transport's reconnect
  // budget expires and surfaces a structured kClosed abort).
  if (transport_ == nullptr || opts_.heartbeat_interval_ms <= 0 ||
      !ran_any_round_ || peers_.empty())
    return;
  const auto now = SteadyClock::now();
  if (now < next_heartbeat_) return;
  next_heartbeat_ =
      now + std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  Frame hb;
  hb.type = FrameType::RoundDone;
  hb.node = static_cast<std::uint32_t>(opts_.node);
  hb.round = round_;
  hb.quiescent = last_quiescent_;
  for (const PeerState& p : peers_) {
    if (p.departed) continue;
    (void)transport_->send(p.node, hb);  // best-effort; losses surface later
  }
  transport_->flush();
  ++transport_->mutable_stats().heartbeats;
}

// ---------------------------------------------------------------------------
// Quiescence

bool DistributedRunner::transfers_pending() const noexcept {
  for (const int s : local_shards_)
    for (const InteractionPoint* ip :
         shards_[static_cast<std::size_t>(s)].boundary)
      if (ip->has_pending_transfers()) return true;
  return false;
}

bool DistributedRunner::neighbors_active() const noexcept {
  // A channel neighbor that completed a round past our cursor will gate on
  // our advertisements: we must keep null-advancing. This is transitive —
  // our null rounds raise our RoundDone, which can in turn wake OUR idle
  // neighbors — so quiescent regions between active ones stay permeable.
  for (const int n : neighbor_peers_)
    for (const PeerState& p : peers_)
      if (p.node == n && !p.departed && p.round_seen &&
          p.last_round > round_)
        return true;
  return false;
}

bool DistributedRunner::await_termination() {
  const auto watchdog = std::chrono::milliseconds(opts_.gate_timeout_ms);
  auto deadline = SteadyClock::now() + watchdog;
  const bool coordinator = opts_.node == 0;
  bool probe_stale = false;  // last probe failed: wait for news to re-probe
  for (;;) {
    maybe_heartbeat();
    if (!error_.empty()) return true;
    for (const PeerState& p : peers_)
      if (p.departed) {
        // A Bye ends the group: coordinator-confirmed global quiescence in
        // the healthy path, an early leaver otherwise — either way no more
        // frames are coming from it and we are locally done.
        finished_ = true;
        return true;
      }
    if (transfers_pending()) return false;  // new work arrived — resume
    if (neighbors_active()) return false;   // a neighbor needs null rounds
    if (coordinator && !probe_stale) {
      bool hints_ok = true;
      for (const PeerState& p : peers_)
        if (p.round_seen && !p.quiescent) {
          hints_ok = false;
          break;
        }
      if (hints_ok) {
        ++probe_epoch_;
        Frame probe;
        probe.type = FrameType::Probe;
        probe.node = static_cast<std::uint32_t>(opts_.node);
        probe.epoch = probe_epoch_;
        for (PeerState& p : peers_)
          if (!send_frame(p.node, probe)) return true;
        transport_->flush();
        for (;;) {  // collect this epoch's acks
          maybe_heartbeat();
          if (!error_.empty()) return true;
          for (const PeerState& p : peers_)
            if (p.departed) {
              finished_ = true;
              return true;
            }
          if (transfers_pending()) return false;
          bool all = true;
          for (const PeerState& p : peers_)
            if (p.ack_epoch != probe_epoch_) {
              all = false;
              break;
            }
          if (all) break;
          if (SteadyClock::now() > deadline) {
            fail("distributed: termination probe " +
                 std::to_string(probe_epoch_) + " timed out");
            return true;
          }
          const Pump got = pump(20);
          if (got == Pump::kFailed) return true;
          if (got == Pump::kFrame) deadline = SteadyClock::now() + watchdog;
        }
        // Flow conservation across the whole group: everyone quiescent AND
        // every Transfer frame ever sent was received ⇒ nothing in flight
        // that could wake anyone ⇒ global quiescence (messages are the only
        // cross-node wake source).
        std::uint64_t sent = transfers_sent_;
        std::uint64_t recv = transfers_recv_;
        bool all_quiescent = last_quiescent_ && !transfers_pending();
        for (const PeerState& p : peers_) {
          all_quiescent = all_quiescent && p.ack_quiescent;
          sent += p.ack_sent;
          recv += p.ack_recv;
        }
        if (all_quiescent && sent == recv) {
          Frame bye;
          bye.type = FrameType::Bye;
          bye.node = static_cast<std::uint32_t>(opts_.node);
          for (const PeerState& p : peers_)
            if (!p.departed) (void)transport_->send(p.node, bye);
          transport_->flush();
          bye_sent_ = true;
          finished_ = true;
          return true;
        }
        probe_stale = true;
      }
    }
    if (SteadyClock::now() > deadline) {
      fail("distributed: termination wait starved for " +
           std::to_string(opts_.gate_timeout_ms) + " ms");
      return true;
    }
    const Pump got = pump(50);
    if (got == Pump::kFailed) return true;
    if (got == Pump::kFrame) {
      deadline = SteadyClock::now() + watchdog;
      probe_stale = false;
    }
  }
}

void DistributedRunner::answer_probe(int from, std::uint64_t epoch) {
  Frame ack;
  ack.type = FrameType::ProbeAck;
  ack.node = static_cast<std::uint32_t>(opts_.node);
  ack.epoch = epoch;
  ack.quiescent = ran_any_round_ && last_quiescent_ && !transfers_pending();
  ack.sent = transfers_sent_;
  ack.recv = transfers_recv_;
  if (send_frame(from, ack)) transport_->flush();
}

// ---------------------------------------------------------------------------
// The step loop

bool DistributedRunner::step() {
  if (!error_.empty() || finished_) return false;
  if (!wired_) {
    wire();
    if (!error_.empty()) return false;
  }
  if (spec_.topology_version() != wired_version_) {
    fail("distributed: topology changed after round " +
         std::to_string(round_) +
         "; dynamic module creation does not span processes");
    return false;
  }
  if (ran_any_round_ && last_quiescent_ && !transfers_pending()) {
    if (peers_.empty()) return false;
    if (await_termination()) return false;
    if (!error_.empty()) return false;
    // Resumed: an active neighbor needs null rounds / a transfer arrived.
  }
  const std::uint64_t r = round_ + 1;
  if (!gate(r - 1)) return false;
  while (pump(0) == Pump::kFrame) {  // ingest whatever already arrived
  }
  if (!error_.empty()) return false;
  const bool worked = run_round(r);
  if (!export_transfers(r)) return false;
  last_quiescent_ = !worked && !transfers_pending();
  if (!send_round_frames(r, last_quiescent_)) return false;
  round_ = r;
  ran_any_round_ = true;
  std::uint64_t burst = 1;
  if (worked && peers_.empty() && transport_ == nullptr &&
      run_deadline_ == kNeverTime && !run_has_predicate_) {
    // Single-node group: nothing to gate on, pump, or advertise — burst
    // rounds like the free-running backend, bounded to the run's exact step
    // budget so the StepLimit cutoff stays precise. Deadline and predicate
    // stops are evaluated between steps, so they suppress the burst rather
    // than being skipped inside one.
    const std::uint64_t cap = std::min(run_step_limit_, step_limit_);
    while (run_steps_ + burst < cap) {
      if (!run_round(round_ + 1)) {
        // Quiescence discovered inside the burst: the empty round stays
        // uncounted, exactly like the non-burst path below.
        last_quiescent_ = true;
        break;
      }
      ++round_;
      ++burst;
    }
  }
  last_step_rounds_ = burst;
  // A single-node group discovering quiescence reports it immediately and
  // does not count the empty round (the sequential scheduler's behavior).
  // With peers, the round still counts: channel-coupled nodes consume their
  // step budgets in lockstep, null rounds included.
  if (!worked && peers_.empty() && !transfers_pending()) return false;
  return true;
}

void DistributedRunner::decorate_report(RunReport& report) {
  ShardedExecutor::decorate_report(report);
  if (transport_ != nullptr) report.transport = transport_->stats();
  if (!error_.empty()) {
    report.reason = StopReason::Aborted;
    report.error = error_;
  }
  // Whatever ended this run (quiescence already Bye'd by the coordinator;
  // step limits, deadlines, predicates and aborts have not), tell the peers
  // we are leaving so their gates fail fast instead of timing out.
  if (transport_ != nullptr && wired_ && !bye_sent_) {
    Frame bye;
    bye.type = FrameType::Bye;
    bye.node = static_cast<std::uint32_t>(opts_.node);
    for (const PeerState& p : peers_)
      if (!p.departed) (void)transport_->send(p.node, bye);
    transport_->flush();
    bye_sent_ = true;
  }
}

}  // namespace mcam::estelle
