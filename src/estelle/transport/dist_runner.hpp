// ExecutorKind::Distributed — one FreeRunning-style shard group per process,
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
// Round protocol. Each node advances a round cursor r; all of a node's local
// shards execute round r together as one Sharded barrier round
// (ShardedExecutor::barrier_round): every local shard drains and collects on
// the run thread, an idle one following the node's group clock, and the
// shards that fire run inline — or, at width >= 2 (DistOptions::worker_count)
// with two or more firing, on the node's persistent WorkerPool, the run
// thread running shard tasks beside the workers up to the pool barrier.
// Either way the transport is serviced only between rounds: frames that
// arrive mid-round wait in the medium for the pump that precedes the next
// round. Announcements replay on the run thread afterwards in shard id
// order, so the trace composition is identical at every width. A node whose
// shards fire nothing leaps its group clock to its earliest delay deadline,
// so a single-node group runs exactly the Sharded step's rounds and clocks;
// across nodes the group clocks are node-local, and a node can still leap to
// a timer while a peer's shard is busy. Across nodes, only channel-coupled
// shards synchronize, through the three PR-5 primitives as explicit frames:
//
//   * gate     — a node enters round r only when every REMOTE shard that
//                shares a channel with a local shard has advertised r-1
//                (Advertise / NullRound frames update the bound).
//   * drain    — each local shard accepts parked transfers stamped <= r-1
//                before collecting (InteractionPoint::drain_transfers_until,
//                identical for in-process and injected arrivals).
//   * export   — outputs a local firing addressed to a remote shard park in
//                the replica endpoint's mailbox (deliver()'s cross-shard
//                path); after the round they leave as Transfer frames,
//                stamps intact.
//
// Why the merged trace equals Sequential on conflict-free specifications:
// a transfer stamped k is sent during the sender's round k, BEFORE the
// sender's round-k Advertise on the same FIFO stream. The receiver's gate
// for round k+1 waits for that Advertise, so by the time round k+1 collects,
// the transfer is already parked and the <= k drain accepts it — message
// visibility lands on exactly the round boundary a barrier round would
// have put it on. Channel-coupled nodes therefore stay within one round of
// each other while unrelated nodes never wait at all (an idle node advances
// through provably-empty rounds — the null message — only while a neighbor
// node is active).
//
// Termination is a coordinator probe with flow conservation: when node 0 is
// locally quiescent and every peer's last RoundDone reported quiescent, it
// sends Probe{epoch}; peers answer ProbeAck{quiescent-now, transfers sent,
// transfers received}. All-quiescent plus Σsent == Σrecv (nothing in
// flight) confirms global quiescence and Bye releases every node's run()
// with StopReason::Quiescent.
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
//   * stop conditions are node-local. max_steps composes (channel-coupled
//     nodes consume rounds in lockstep); deadlines cut at node-local
//     clocks. Multi-node runs should stop on quiescence or a shared
//     max_steps; a node that leaves early broadcasts Bye and peers that
//     still need its rounds abort with a structured error.
//   * one run() per process group: run end broadcasts Bye.
#pragma once

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
  /// Watchdog for gate waits, back-pressure stalls, handshake and the
  /// termination protocol. Expiry aborts the run with RunReport::error
  /// instead of hanging. Heartbeats (below) reset it: the watchdog fires on
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
  /// While waiting on a gate or the termination protocol, re-send the
  /// latest RoundDone to every live peer this often — an idle-peer
  /// heartbeat. A waiting peer receiving one resets its own watchdog, so
  /// slow-but-alive transitive chains never time out; a genuinely dead peer
  /// sends none and its loss surfaces through the reconnect budget as a
  /// structured abort well inside gate_timeout_ms. <= 0 disables.
  int heartbeat_interval_ms = 200;
  /// Coalesce a round's transfers to each peer into one TransferBatch frame
  /// (flushed strictly before that round's Advertise, so the FIFO
  /// transfer-before-advertise ordering — and the merged-trace ≡ Sequential
  /// guarantee — is unchanged). Single-transfer rounds keep the small
  /// Transfer frame. Off reproduces the one-frame-one-syscall baseline the
  /// bench and the differential sweep compare against.
  bool batch_transfers = true;
  /// Worker threads for the node-local shard group. With width >= 2 (and at
  /// least two local shards) a round in which two or more local shards fire
  /// runs them as tasks on the node's persistent WorkerPool, the run thread
  /// helping drain them up to the pool barrier; the transport is pumped
  /// between rounds, as at width 1. 0 ⇒ hardware_concurrency(); 1 runs
  /// every round inline on the run thread (conflicted specifications are
  /// refused outright, so width never races an unproven spec). Capped at the
  /// local shard count;
  /// RunOptions::worker_count overrides per run. The worker count never
  /// changes the merged trace: rounds still compose per shard in
  /// (round, shard) order and transfer export still strictly precedes the
  /// round's Advertise.
  int worker_count = 0;
  /// Per-node "host" / "host:port" list for multi-machine TCP meshes,
  /// carried here so one options object fully describes a run. Consumed by
  /// StreamSocketTransport::tcp_mesh (the runner itself never dials).
  std::vector<std::string> peer_hosts;
  /// Per-firing tap with the (round, shard) coordinates the cross-node
  /// trace merge needs (RunObserver::on_fire does not carry them). Replayed
  /// on the run thread after the round executed, in shard id order then
  /// firing order (announce-after-revalidation, identical for every
  /// worker_count) — so Module::state() seen from the hook is the
  /// post-round state; read the transition and timestamp arguments, not
  /// live world state (the sharded backends' on_fire caveat).
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
  /// Completed node rounds (the round cursor).
  [[nodiscard]] std::uint64_t completed_rounds() const noexcept {
    return round_;
  }
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
    std::uint8_t dir_to_remote = 0;   // Frame::dir that targets remote_ep
    std::uint8_t dir_to_local = 0;    // Frame::dir that targets local_ep
    int peer_node = 0;                // owner of the remote endpoint's shard
  };

  struct PeerState {
    int node = 0;
    bool hello_seen = false;
    bool welcome_seen = false;
    bool departed = false;  // sent Bye (left its run)
    /// Latest RoundDone: the round and whether the peer was locally
    /// quiescent after it. Hints for the termination probe.
    std::uint64_t last_round = 0;
    bool quiescent = false;
    bool round_seen = false;
    /// ProbeAck bookkeeping for the coordinator.
    std::uint64_t ack_epoch = 0;
    bool ack_quiescent = false;
    std::uint64_t ack_sent = 0;
    std::uint64_t ack_recv = 0;
  };

  /// What one pump() observed (recv dispatch is centralized so the gate,
  /// the handshake and the termination wait all share one frame handler).
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

  /// Execute node round `r`: one barrier round over the local shards at
  /// node_parallel_width(), announcing to the observers and trace_hook.
  /// Returns true when the round did local work (a shard fired, or the node
  /// leapt to a delay deadline).
  bool run_round(std::uint64_t r);
  /// This round's effective worker width: resolved DistOptions::worker_count
  /// (RunOptions::worker_count overrides), capped at the local shard count.
  [[nodiscard]] int node_parallel_width() const noexcept;
  void answer_probe(int from, std::uint64_t epoch);
  /// Ship every transfer parked on remote replica endpoints: coalesced into
  /// one TransferBatch per peer (batch_transfers, the default) or as one
  /// Transfer frame each; pumps through transport back-pressure.
  bool export_transfers(std::uint64_t r);
  bool send_round_frames(std::uint64_t r, bool quiescent);
  /// send with kQueueFull back-pressure handling (pump + retry under the
  /// watchdog) — the contract keeps `f` intact across retries, so the loop
  /// never copies it. False ⇒ error_ set.
  bool send_frame(int peer, Frame& f);
  /// Inject one received transfer; false ⇒ error_ set (bad channel/dir).
  bool accept_transfer(int from, std::uint32_t channel, std::uint8_t dir,
                       Interaction&& msg, std::int64_t sent_at_ns,
                       std::uint64_t round);

  /// Re-send the latest RoundDone to live peers every heartbeat interval
  /// (called from the gate / termination pump loops — the places a node
  /// idles while peers may be watching it for signs of life).
  void maybe_heartbeat();
  /// Wait until every remote gate shard has advertised >= `need`.
  bool gate(std::uint64_t need);
  /// Locally quiescent and peers exist: service the termination protocol.
  /// Returns true to finish the run (global quiescence / Bye), false to
  /// resume rounds (new work arrived or an active neighbor needs nulls).
  bool await_termination();
  [[nodiscard]] bool neighbors_active() const noexcept;
  [[nodiscard]] bool transfers_pending() const noexcept;

  PeerState* peer_state(int node) noexcept;

  DistOptions opts_;
  std::shared_ptr<MailboxTransport> transport_;
  bool wired_ = false;
  std::uint64_t wired_version_ = 0;
  std::uint64_t round_ = 0;
  bool ran_any_round_ = false;
  bool last_quiescent_ = false;
  bool finished_ = false;  // clean Bye-confirmed end
  bool bye_sent_ = false;
  std::chrono::steady_clock::time_point next_heartbeat_{};
  std::string error_;

  std::vector<int> assignment_;          // shard -> node
  std::vector<int> local_shards_;        // ascending ids
  std::vector<int> gate_shards_;         // remote shards we gate on
  std::vector<std::uint64_t> remote_advertised_;  // per shard (remote only)
  std::vector<WireChannel> wire_channels_;
  std::vector<int> wire_by_index_;       // channel index -> wire_channels_ pos
  /// Per local shard: peers owning a remote neighbor (they gate on this
  /// shard, so it advertises to them every round).
  std::vector<std::vector<int>> advertise_peers_;
  std::vector<int> neighbor_peers_;      // peers owning a gate shard
  std::vector<PeerState> peers_;
  std::uint64_t id_spec_hash_ = 0;       // what our Hello carries
  std::uint64_t id_assign_hash_ = 0;

  std::uint64_t transfers_sent_ = 0;  // transfers (flow conservation; a
  std::uint64_t transfers_recv_ = 0;  // batch counts per entry)
  std::uint64_t probe_epoch_ = 0;

  std::vector<InteractionPoint::Transfer> export_scratch_;
  /// Per neighbor peer: the persistent TransferBatch frame a round's
  /// outbound transfers coalesce into (entries cleared after each flush,
  /// capacity retained — wire sends leave the frame intact).
  struct PeerBatch {
    int peer = 0;
    Frame frame;
  };
  std::vector<PeerBatch> peer_batches_;
  std::uint64_t node_workers_ = 0;  // latest round's effective width
};

}  // namespace mcam::estelle
