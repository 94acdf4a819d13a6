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
  wire_channels_.clear();
  std::vector<int> neighbor_peers;  // peers owning a channel neighbor

  const auto& cross = analysis_->cross_shard_channels();
  wire_by_index_.assign(cross.size(), -1);
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
      wc.dir_to_remote = 1;  // TransferEntry::dir 1 delivers into endpoint b
      wc.dir_to_local = 0;
      wc.peer_node = assignment_[static_cast<std::size_t>(cc.shard_b)];
    } else {
      wc.local_ep = cc.b;
      wc.remote_ep = cc.a;
      wc.dir_to_remote = 0;
      wc.dir_to_local = 1;
      wc.peer_node = assignment_[static_cast<std::size_t>(cc.shard_a)];
    }
    wire_by_index_[i] = static_cast<int>(wire_channels_.size());
    wire_channels_.push_back(wc);
    neighbor_peers.push_back(wc.peer_node);
  }
  std::sort(neighbor_peers.begin(), neighbor_peers.end());
  neighbor_peers.erase(
      std::unique(neighbor_peers.begin(), neighbor_peers.end()),
      neighbor_peers.end());
  peer_batches_.clear();
  for (const int p : neighbor_peers) {
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
    case FrameType::TransferBatch:
      for (TransferEntry& e : f.entries)
        if (!accept_transfer(from, e, f.round)) return;
      return;
    case FrameType::RoundDone: {
      // A re-sent copy (a heartbeat) never overwrites a later round. The
      // first copy of a quiescent round is the protocol's null message.
      PeerState::Done& done = p->done[f.round % 2];
      if (f.round <= done.round) return;
      done = {f.round, f.quiescent};
      if (f.quiescent) ++transport_->mutable_stats().null_rounds_serviced;
      return;
    }
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

bool DistributedRunner::accept_transfer(int from, TransferEntry& e,
                                        std::uint64_t round) {
  const int pos =
      e.channel < wire_by_index_.size() ? wire_by_index_[e.channel] : -1;
  if (pos < 0) {
    fail("distributed: node " + std::to_string(from) +
         " sent a transfer on unknown channel " + std::to_string(e.channel));
    return false;
  }
  const WireChannel& wc = wire_channels_[static_cast<std::size_t>(pos)];
  if (e.dir != wc.dir_to_local) {
    fail("distributed: node " + std::to_string(from) +
         " sent a transfer for an endpoint it owns (channel " +
         std::to_string(e.channel) + ")");
    return false;
  }
  wc.local_ep->inject_transfer(std::move(e.msg), SimTime{e.sent_at_ns}, round);
  return true;
}

// ---------------------------------------------------------------------------
// Round protocol

bool DistributedRunner::export_transfers(std::uint64_t r) {
  // Coalesce this round's transfers into one TransferBatch per peer: they
  // still precede the round's RoundDone on the same FIFO stream, so gate
  // release continues to imply transfer arrival. barrier_round(r) stamps
  // everything it parks r, and this runs after every round, so a transfer
  // stamped otherwise is a broken invariant, not traffic.
  for (const WireChannel& wc : wire_channels_) {
    if (!wc.remote_ep->has_pending_transfers()) continue;
    export_scratch_.clear();
    wc.remote_ep->take_transfers(export_scratch_);
    PeerBatch& batch = *std::find_if(
        peer_batches_.begin(), peer_batches_.end(),
        [&wc](const PeerBatch& b) { return b.peer == wc.peer_node; });
    for (InteractionPoint::Transfer& t : export_scratch_) {
      if (t.round != r) {
        fail("distributed: a transfer on channel " + std::to_string(wc.index) +
             " is stamped round " + std::to_string(t.round) +
             ", exported after round " + std::to_string(r));
        return false;
      }
      batch.frame.entries.push_back(TransferEntry{
          wc.index, wc.dir_to_remote, t.sent_at.ns, std::move(t.msg)});
      // Unbatched: a one-entry batch per transfer, one syscall each.
      if (!opts_.batch_transfers && !send_batch(batch, r)) return false;
    }
  }
  for (PeerBatch& b : peer_batches_)
    if (!b.frame.entries.empty() && !send_batch(b, r)) return false;
  return true;
}

bool DistributedRunner::send_batch(PeerBatch& b, std::uint64_t r) {
  b.frame.round = r;
  if (!send_frame(b.peer, b.frame)) return false;
  b.frame.entries.clear();
  if (!opts_.batch_transfers && transport_ != nullptr) transport_->flush();
  return true;
}

bool DistributedRunner::send_round_done(std::uint64_t r, bool quiescent) {
  // Transfers left first (export_transfers); FIFO per peer then makes every
  // round-r stamp visible before RoundDone(r) releases the peer's gate.
  round_done_.type = FrameType::RoundDone;
  round_done_.node = static_cast<std::uint32_t>(opts_.node);
  round_done_.round = r;
  round_done_.quiescent = quiescent;
  for (const PeerState& p : peers_) {
    if (p.departed) continue;
    if (!send_frame(p.node, round_done_)) return false;
  }
  // Round boundary: push the whole backlog — transfers, then RoundDone — in
  // one scatter-gather syscall per peer.
  if (transport_ != nullptr) transport_->flush();
  return true;
}

bool DistributedRunner::gate(std::uint64_t r) {
  // A single node waits for no one; without peers, not even the watchdog
  // clock is read, which a one-round step() would pay every round.
  if (peers_.empty()) return true;
  const auto watchdog = std::chrono::milliseconds(opts_.gate_timeout_ms);
  auto deadline = SteadyClock::now() + watchdog;
  for (;;) {
    const PeerState* lagging = nullptr;
    for (const PeerState& p : peers_)
      if (p.done[r % 2].round != r) {
        lagging = &p;
        break;
      }
    if (lagging == nullptr) return true;
    // Frames arrive in order, so a Bye seen here came after every RoundDone
    // the peer will ever send.
    if (lagging->departed) {
      fail("distributed: node " + std::to_string(lagging->node) +
           " left the run while round " + std::to_string(r) +
           " still waits on it");
      return false;
    }
    if (SteadyClock::now() > deadline) {
      fail("distributed: gate timed out waiting for node " +
           std::to_string(lagging->node) + " to finish round " +
           std::to_string(r));
      return false;
    }
    maybe_heartbeat();
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

void DistributedRunner::maybe_heartbeat() {
  // Piggyback liveness on the protocol's own frame: re-sending the last
  // RoundDone is idempotent for the receiver (a copy never overwrites a
  // later round) but counts as a received frame, so the receiver's watchdog
  // resets. Waiting peers thus distinguish "slow" (heartbeats keep
  // arriving — wait on) from "dead" (silence; the transport's reconnect
  // budget expires and surfaces a structured kClosed abort).
  if (opts_.heartbeat_interval_ms <= 0) return;
  const auto now = SteadyClock::now();
  if (now < next_heartbeat_) return;
  next_heartbeat_ =
      now + std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  // Best-effort: a lost heartbeat surfaces later through the transport.
  for (const PeerState& p : peers_)
    if (!p.departed) (void)transport_->send(p.node, round_done_);
  transport_->flush();
  ++transport_->mutable_stats().heartbeats;
}

// ---------------------------------------------------------------------------
// The step loop

bool DistributedRunner::step() {
  if (!error_.empty()) return false;
  if (!wired_) {
    wire();
    if (!error_.empty()) return false;
  }
  if (spec_.topology_version() != wired_version_) {
    fail("distributed: topology changed after round " +
         std::to_string(spec_.ready_set().round_line()) +
         "; dynamic module creation does not span processes");
    return false;
  }
  // The barrier round takes the next number r on the round line, and every
  // announcement carries it, so the barrier's shard-id-order replay is
  // exactly the (round, shard) order the cross-node trace merge sorts by.
  const bool worked = barrier_round(local_shards_, opts_.trace_hook);
  const std::uint64_t r = spec_.ready_set().round_line();
  if (!export_transfers(r) || !send_round_done(r, !worked) || !gate(r))
    return false;
  if (!worked) {
    // A round in which every node was quiescent ends the run and is not
    // counted, like a quiescent barrier round under FreeRunning. Every node
    // holds the same RoundDone(r)s, so all of them end here.
    for (const PeerState& p : peers_)
      if (!p.done[r % 2].quiescent) return true;
    return false;
  }
  return true;
}

void DistributedRunner::decorate_report(RunReport& report) {
  ShardedExecutor::decorate_report(report);
  if (transport_ != nullptr) report.transport = transport_->stats();
  if (!error_.empty()) {
    report.reason = StopReason::Aborted;
    report.error = error_;
  }
  // Whatever ended this run (quiescence, a step limit, a deadline, a
  // predicate or an abort), tell the peers we are leaving so a gate still
  // waiting on our RoundDone fails fast instead of timing out.
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
