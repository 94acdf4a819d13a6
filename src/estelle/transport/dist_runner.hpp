// ExecutorKind::Distributed — one barrier-round shard group per process,
// synchronized over a MailboxTransport.
//
// The paper's distribution claim (§4: system modules are mutually
// independent, asynchronous units placeable on separate processors) is taken
// to its end point here: every node (process, or thread in the loopback
// tests) constructs the SAME specification, ConflictAnalysis derives the
// same shard assignment on each, and an assignment map gives every shard
// exactly one owning node. A node executes only its own shards; the others
// exist locally as never-fired replicas whose interaction points serve as
// the wire bridge (InteractionPoint::take_transfers / inject_transfer).
//
// Round protocol. Every node advances its specification's round line r in
// lockstep with every peer. Node round r is one barrier round
// (ShardedExecutor::barrier_round) over the node's local shards, on the
// node's run thread: every local shard drains and collects, an idle one
// following the node's group clock, then the shards that fire run in shard
// id order, and the announcements replay in shard id order. A node whose
// shards fire nothing leaps its group clock to its earliest delay deadline,
// so a single-node group runs exactly the rounds and clocks of FreeRunning
// at threads = 1; across nodes the group clocks are node-local, and a node
// can still leap to a timer while a peer's shard is busy. After the round
// the node
//
//   * exports — outputs a local firing addressed to a remote shard park in
//               the replica endpoint's mailbox (deliver()'s cross-shard
//               path); they leave as one TransferBatch per peer, stamps
//               intact;
//   * reports — sends RoundDone{node, r, quiescent} to every live peer,
//               behind those transfers on the same FIFO stream, and flushes;
//   * gates   — services the transport until every peer's RoundDone(r) is
//               in. Only then does round r+1 start; its drain accepts every
//               transfer stamped <= r (InteractionPoint::
//               drain_transfers_until, identical for in-process and
//               injected arrivals).
//
// Why the merged trace equals Sequential on conflict-free specifications:
// a transfer stamped k is sent during the sender's round k, BEFORE the
// sender's RoundDone(k) on the same FIFO stream. The receiver's gate for
// round k waits for that RoundDone, so by the time round k+1 collects, the
// transfer is already parked and the <= k drain accepts it — message
// visibility lands on exactly the round boundary a barrier round would have
// put it on. A peer is never more than one round ahead: its next gate needs
// our RoundDone. Whatever it sends for that round is stamped k+1 and stays
// parked through our drain.
//
// Termination needs no coordinator. A node's RoundDone(r) is quiescent when
// its round fired nothing and leapt to no deadline. Anything still parked
// after round r's drain is stamped r or later, and only a round-r firing can
// produce it, so the node that fired reports non-quiescent. A round in which
// every RoundDone says quiescent therefore leaves no work anywhere, and
// every node holds the same RoundDones: each run() ends Quiescent in that
// round, which it does not count, so every node reports the same steps.
//
// Failure is a value, not a hang: a dead peer (closed/reset connection), a
// refused handshake (spec hash / topology / assignment mismatch), a gate
// watchdog timeout, or a mid-run topology change all end the run with
// StopReason::Aborted and a description in RunReport::error.
//
// Caveats, by design:
//   * specifications ConflictAnalysis cannot prove conflict-free are
//     refused (Aborted) — un-barriered cross-process rounds are unsound on
//     them, and unlike the in-process backends there is no serialized
//     fallback that spans machines.
//   * every node waits for every peer each round, also for a peer it shares
//     no channel with.
//   * stop conditions are node-local. max_steps composes (every node counts
//     the same rounds); deadlines cut at node-local clocks. Multi-node runs
//     should stop on quiescence or a shared max_steps; a node that leaves
//     early broadcasts Bye and peers still waiting on its RoundDone abort
//     with a structured error.
//   * one run() per process group: run end broadcasts Bye, so a later run()
//     of a multi-node group aborts at its first gate.
//   * every node's specification must start on the same round line, since
//     node rounds take its numbers. A fresh specification always does (no
//     caller runs a shard backend on a node's specification first);
//     otherwise the gates wait for RoundDones no peer sends, and the gate
//     watchdog ends the run Aborted.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "estelle/shard_executor.hpp"
#include "estelle/transport/transport.hpp"

namespace mcam::estelle {

/// Typed options for the Distributed backend, passed through
/// ExecutorConfig::backend_options. Default-constructed options describe a
/// single node owning every shard and using no transport — make_executor on
/// a config without options yields that degenerate (but correct) runner.
struct DistOptions {
  int node = 0;
  int nodes = 1;
  /// Frame channel to the peers; required when nodes > 1. Shared so the
  /// options stay copyable through std::any.
  std::shared_ptr<MailboxTransport> transport;
  /// shard id -> owning node. Empty ⇒ shard s belongs to node s % nodes.
  /// Must hash identically on every node (checked by the handshake).
  std::vector<int> assignment;
  /// Watchdog for gate waits, back-pressure stalls and the handshake.
  /// Expiry aborts the run with RunReport::error instead of hanging. Heartbeats (below) reset it: the watchdog fires on
  /// "no sign of life", so it separates slow peers (keep waiting) from dead
  /// ones (the transport's reconnect budget below surfaces those earlier).
  int gate_timeout_ms = 30000;
  /// Session/recovery knobs, handed to the transport as
  /// MailboxTransport::SessionOptions (with the specification fingerprint)
  /// before the membership handshake. A mid-run connection loss is redialed
  /// up to reconnect_max_attempts times with capped exponential backoff and
  /// the lost frame tail replayed; 0 disables recovery (a loss aborts the
  /// run immediately, the pre-session behavior). Counted separately from
  /// dial-time handshake_retries in TransportStats::reconnect_attempts.
  int reconnect_max_attempts = 5;
  int backoff_initial_ms = 20;
  int backoff_cap_ms = 1000;
  /// Unacknowledged sent records older than this force a reconnect (the
  /// retransmission timeout recovering a dropped stream tail).
  int resend_timeout_ms = 1000;
  /// While waiting on the gate, re-send the last RoundDone to every live
  /// peer this often — an idle-peer heartbeat. A waiting peer receiving one
  /// resets its own watchdog, so a group waiting on one slow-but-alive node
  /// never times out; a genuinely dead peer sends none and its loss
  /// surfaces through the reconnect budget as a structured abort well
  /// inside gate_timeout_ms. <= 0 disables.
  int heartbeat_interval_ms = 200;
  /// Coalesce a round's transfers to each peer into one TransferBatch frame
  /// (sent strictly before that round's RoundDone, so the FIFO
  /// transfer-before-RoundDone ordering — and the merged-trace ≡ Sequential
  /// guarantee — is unchanged). Off sends every transfer as a one-entry
  /// TransferBatch and flushes it alone: the one-frame-one-syscall baseline
  /// the bench and the differential sweep compare against.
  bool batch_transfers = true;
  /// Inert: node rounds always run on the run thread, whatever the value.
  /// Kept only because the end-to-end benchmark still sets it; the next
  /// change allowed to touch that benchmark deletes the field and that
  /// assignment.
  int worker_count = 0;
  /// Per-firing tap with the (round, shard) coordinates the cross-node
  /// trace merge needs (RunObserver::on_fire does not carry them). Replayed
  /// on the run thread after the round executed, in shard id order then
  /// firing order (announce-after-revalidation) — so Module::state() seen
  /// from the hook is the post-round state; read the transition and
  /// timestamp arguments, not live world state (the shard backends'
  /// on_fire caveat).
  std::function<void(std::uint64_t round, int shard, Module& m,
                     const Transition& t, SimTime at)>
      trace_hook;
};

class DistributedRunner final : public ShardedExecutor {
 public:
  explicit DistributedRunner(Specification& spec,
                             const ExecutorConfig& cfg = {});

  [[nodiscard]] ExecutorKind kind() const noexcept override {
    return ExecutorKind::Distributed;
  }

  [[nodiscard]] const DistOptions& options() const noexcept { return opts_; }
  /// Structural fingerprint the handshake compares (FNV-1a over module
  /// paths, interaction points and channel wiring). Exposed for tests.
  [[nodiscard]] std::uint64_t spec_fingerprint();

 protected:
  bool step() override;
  void decorate_report(RunReport& report) override;

 private:
  /// One cross-shard channel with exactly one local endpoint: the wire
  /// bridge for that channel, in both directions.
  struct WireChannel {
    std::uint32_t index = 0;          // position in cross_shard_channels()
    InteractionPoint* local_ep = nullptr;   // inbound injects land here
    InteractionPoint* remote_ep = nullptr;  // outbound transfers park here
    std::uint8_t dir_to_remote = 0;   // TransferEntry::dir into remote_ep
    std::uint8_t dir_to_local = 0;    // TransferEntry::dir into local_ep
    int peer_node = 0;                // owner of the remote endpoint's shard
  };

  /// The persistent TransferBatch frame a round's outbound transfers to
  /// `peer` coalesce into (entries cleared after each send, capacity
  /// retained — wire sends leave the frame intact).
  struct PeerBatch {
    int peer = 0;
    Frame frame;
  };

  struct PeerState {
    int node = 0;
    bool hello_seen = false;
    bool welcome_seen = false;
    bool departed = false;  // sent Bye (left its run)
    /// The peer's RoundDones, indexed by round parity. With three or more
    /// nodes a peer may send RoundDone(r+1) while a third node's
    /// RoundDone(r) is still outstanding, but never RoundDone(r+2): its next
    /// gate needs ours.
    struct Done {
      std::uint64_t round = 0;
      bool quiescent = false;
    };
    std::array<Done, 2> done{};
  };

  /// What one pump() observed (recv dispatch is centralized so the gate and
  /// the handshake share one frame handler).
  enum class Pump { kFrame, kIdle, kFailed };

  [[nodiscard]] bool is_local(int shard) const noexcept {
    return assignment_[static_cast<std::size_t>(shard)] == opts_.node;
  }
  /// First-step wiring: analysis, conflict refusal, assignment and channel
  /// tables, membership handshake. Sets error_ on failure.
  void wire();
  void build_tables();
  bool handshake();
  void fail(std::string why);

  /// recv once (up to timeout_ms) and dispatch the frame into runner state.
  Pump pump(int timeout_ms);
  void on_frame(int from, Frame& f);
  void on_hello(int from, const Frame& f);

  /// Ship every transfer parked on remote replica endpoints, all stamped r:
  /// coalesced into one TransferBatch per peer (batch_transfers, the
  /// default) or as a one-entry TransferBatch each; pumps through transport
  /// back-pressure. A transfer stamped otherwise sets error_.
  bool export_transfers(std::uint64_t r);
  /// Send `b` stamped r and clear its entries; unbatched, flush it alone.
  bool send_batch(PeerBatch& b, std::uint64_t r);
  /// Send RoundDone(r) to every live peer, then flush the round's backlog.
  bool send_round_done(std::uint64_t r, bool quiescent);
  /// send with kQueueFull back-pressure handling (pump + retry under the
  /// watchdog) — the contract keeps `f` intact across retries, so the loop
  /// never copies it. False ⇒ error_ set.
  bool send_frame(int peer, Frame& f);
  /// Inject one received batch entry (its msg is moved out); false ⇒
  /// error_ set (bad channel/dir).
  bool accept_transfer(int from, TransferEntry& e, std::uint64_t round);

  /// Re-send the last RoundDone to live peers every heartbeat interval
  /// (called from the gate's wait — where a node idles while peers may be
  /// watching it for signs of life).
  void maybe_heartbeat();
  /// Service the transport until every peer's RoundDone(r) is in. False ⇒
  /// error_ set (a peer left or died first, or the watchdog expired).
  bool gate(std::uint64_t r);

  PeerState* peer_state(int node) noexcept;

  DistOptions opts_;
  std::shared_ptr<MailboxTransport> transport_;
  bool wired_ = false;
  std::uint64_t wired_version_ = 0;
  bool bye_sent_ = false;
  /// The last RoundDone sent: what a heartbeat re-sends.
  Frame round_done_;
  std::chrono::steady_clock::time_point next_heartbeat_{};
  std::string error_;

  std::vector<int> assignment_;          // shard -> node
  std::vector<int> local_shards_;        // ascending ids
  std::vector<WireChannel> wire_channels_;
  std::vector<int> wire_by_index_;       // channel index -> wire_channels_ pos
  std::vector<PeerState> peers_;
  std::uint64_t id_spec_hash_ = 0;       // what our Hello carries
  std::uint64_t id_assign_hash_ = 0;

  std::vector<InteractionPoint::Transfer> export_scratch_;
  /// One per channel-neighbor peer.
  std::vector<PeerBatch> peer_batches_;
};

}  // namespace mcam::estelle
