// Stream-socket MailboxTransport: Unix-domain and TCP meshes.
//
// One connected stream per peer, sequenced length-prefixed BER frames
// (frame.hpp: `u32 len | u64 seq | body`) on the wire. The I/O discipline
// implements the transport contract:
//
//   * send() encodes into a pooled per-peer buffer (reused every call — the
//     encode_pool_reuse counter) and appends the octets to the peer's
//     BufferChain (buffer_chain.hpp): fixed-size pooled segments, no flat
//     backlog to erase-compact. The socket push is DEFERRED to flush() / the
//     recv() pump unless the backlog crossed kEagerFlushBytes, so a round's
//     worth of frames leaves in one scatter-gather syscall. kQueueFull is
//     returned once the backlog reaches kMaxOutboundBytes — the runner's
//     back-pressure park — with the frame left intact for the retry.
//   * flush() drains every connection's chain with sendmsg(iovec[]) until
//     EAGAIN/empty: one data syscall per peer per round in the steady
//     state, whatever the transfer count (the syscalls counter, gated by
//     bench_transport).
//   * reads go through one reusable per-connection receive buffer
//     (FrameReassembler): poll(), read into a fixed stack chunk, feed, and
//     decode in place. Steady-state receive performs no per-frame
//     allocation (Transfer payload octets excepted — they leave the buffer
//     as owned Interaction state, exactly like an in-process delivery).
//   * destruction is a graceful close: flush the outbound backlog,
//     shutdown(SHUT_WR), then drain inbound to EOF (bounded) before
//     close() — a TCP close with unread inbound data would RST and destroy
//     our own final frames still in flight to the peer.
//
// Session layer (PR 9). Every data frame to a peer carries a monotonic
// sequence number; a bounded replay ring keeps the encoded record until the
// peer's cumulative SessionAck covers it. configure_session() with
// reconnect_max_attempts > 0 turns a mid-run connection loss (reset, EOF,
// injected fault, sequence gap from wire loss, retransmission timeout) into
// a transparent recovery instead of a kClosed report:
//
//   * the original dialer redials with capped exponential backoff plus
//     deterministic jitter; the original acceptor keeps its mesh listener
//     open for the whole run and re-adopts the peer's new stream.
//   * both sides open the new stream with HelloResume{fingerprint, epoch,
//     last-delivered seq}; a fingerprint mismatch refuses the resume (the
//     peer is running a different specification) and surfaces the usual
//     structured kClosed. Otherwise each side replays exactly the ring
//     records the other has not delivered — per-peer FIFO order (and with
//     it transfer-before-RoundDone) is preserved, and the receiver discards
//     anything it already delivered by sequence number.
//   * frames already received but not yet handed out when a connection
//     breaks are salvaged across the reconnect (a peer's parting Bye is
//     never lost to a racing send failure).
//   * when every redial attempt fails (the peer is genuinely dead), the
//     loss surfaces as today's single kClosed with the accumulated reason —
//     failure stays a value, never a hang.
//
// set_wire_faults() installs a deterministic FaultPlan at the wire-record
// level, *below* the sequence numbers: a dropped record is exactly the kind
// of loss the session layer recovers (gap detection → reconnect → replay),
// a duplicated record exercises the sequence-number discard, an injected
// close is a mid-run reset. The differential sweep drives recovery through
// this hook.
//
// Mesh construction (node i of n):
//   * unix_mesh: node j binds <dir>/node<j>.sock; i connects to every j < i
//     (retrying while the listener appears — counted as handshake_retries)
//     and accepts every j > i. A 4-byte big-endian node id preamble
//     identifies the dialing node.
//   * tcp_mesh: identical shape on TCP. By default every peer is dialed at
//     127.0.0.1:<base_port + peer>; a per-peer `hosts` list ("host" or
//     "host:port", resolved with getaddrinfo) places peers on other
//     machines, and providing one makes the local listener bind INADDR_ANY
//     so those machines can dial back.
//   * from_fds: adopt already-connected stream fds (socketpair() children in
//     the multi-process tests). The adopted fds are owned and closed. With
//     no listener and no dial path these links cannot be recovered:
//     configure_session() is accepted but a loss surfaces kClosed.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "estelle/transport/buffer_chain.hpp"
#include "estelle/transport/fault_transport.hpp"
#include "estelle/transport/transport.hpp"

namespace mcam::estelle {

class StreamSocketTransport final : public MailboxTransport {
 public:
  /// Outbound backlog bound per peer, in encoded bytes.
  static constexpr std::size_t kMaxOutboundBytes = 4u << 20;
  /// Backlog at which send() flushes on its own instead of deferring to the
  /// runner's round boundary — bounds kernel-buffer latecomers under burst.
  static constexpr std::size_t kEagerFlushBytes = 256u << 10;
  /// Replay-ring bound per peer (encoded bytes of sent-but-unacknowledged
  /// records). A full ring back-pressures send() with kQueueFull — records
  /// are never evicted unacknowledged, so a resume can always replay.
  static constexpr std::size_t kMaxReplayBytes = 4u << 20;
  /// Delivered data frames per cumulative SessionAck; an idle pump also
  /// acknowledges (throttled), so small exchanges prune promptly too.
  static constexpr std::uint32_t kAckIntervalFrames = 64;

  struct PeerFd {
    int node = 0;
    int fd = -1;
  };

  /// Adopt connected stream sockets (one per peer); takes fd ownership.
  [[nodiscard]] static std::unique_ptr<StreamSocketTransport> from_fds(
      std::vector<PeerFd> peers);

  /// Full mesh over Unix-domain sockets under `dir` (see header comment).
  [[nodiscard]] static common::Result<std::unique_ptr<StreamSocketTransport>>
  unix_mesh(int node, int nodes, const std::string& dir,
            int connect_timeout_ms = 10000);

  /// Full mesh over TCP. `hosts`, when non-empty, names every node's
  /// address as "host" or "host:port" (hosts[i] for node i; port defaults
  /// to base_port + i) — the loopback default with an empty list. Every
  /// node's port must be decimal and within 1..65535 (base_port + i
  /// included); otherwise kSetupFailed names the entry before any socket
  /// opens.
  [[nodiscard]] static common::Result<std::unique_ptr<StreamSocketTransport>>
  tcp_mesh(int node, int nodes, std::uint16_t base_port,
           const std::vector<std::string>& hosts = {},
           int connect_timeout_ms = 10000);

  ~StreamSocketTransport() override;

  [[nodiscard]] const std::vector<int>& peers() const noexcept override {
    return peer_ids_;
  }
  common::Status send(int peer, Frame& f) override;
  void flush() override;
  RecvOutcome recv(int* from, Frame* out, int timeout_ms,
                   std::string* error) override;
  void configure_session(const SessionOptions& so) override { session_ = so; }
  bool sever(int peer) override;

  /// Install a deterministic wire-record fault plan toward `peer` (tests /
  /// benches). Applies below the session sequence numbers, to original
  /// sends only — replays travel clean, so every injected loss converges.
  void set_wire_faults(int peer, FaultPlan plan);

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// One sent-but-unacknowledged wire record (length | seq | body octets,
  /// ready to re-append verbatim on resume).
  struct ReplayRec {
    std::uint64_t seq = 0;
    common::Bytes wire;
  };
  struct DelayedRec {
    std::uint64_t release_at = 0;  // wire index that frees it
    common::Bytes wire;
  };

  struct Conn {
    int node = 0;
    int fd = -1;
    FrameReassembler rx = FrameReassembler{true};
    BufferChain txq;          // encoded, not yet accepted by the socket
    common::Bytes encode_buf; // pooled per-peer frame-encode scratch
    bool closed = false;      // outbound half dead; no further sends
    bool rx_eof = false;      // inbound half exhausted (EOF / read error)
    bool close_reported = false;
    std::string close_reason;
    // Session state.
    std::uint64_t tx_seq = 0;  // last data sequence number assigned
    std::uint64_t rx_seq = 0;  // last in-order data sequence delivered
    std::uint64_t acked = 0;   // ring pruned through this sequence
    std::uint32_t rx_since_ack = 0;
    std::deque<ReplayRec> ring;
    std::size_t ring_bytes = 0;
    /// Frames salvaged from the receive buffer across a reconnect — served
    /// before anything from the new stream.
    std::vector<Frame> pending_rx;
    std::size_t pending_pos = 0;
    bool resuming = false;  // new stream up, our HelloResume sent, waiting
    bool waiting = false;   // stream down, redial/accept pending
    /// The peer's Bye was delivered: it is leaving by protocol, so a later
    /// connection loss is its exit, not a fault — never redial it, and never
    /// linger on records it will not be around to acknowledge.
    bool peer_departed = false;
    int attempt = 0;
    int backoff_ms = 0;
    std::uint64_t epoch = 0;  // reconnect generation
    SteadyClock::time_point next_attempt{};
    SteadyClock::time_point give_up{};
    SteadyClock::time_point oldest_unacked{};
    SteadyClock::time_point last_ack{};
    std::uint32_t jitter_state = 0;
    std::string wait_reason;
    std::string last_dial_error;  // most recent failed redial cause
    // Wire-record fault injection.
    FaultPlan wire_faults;
    std::uint64_t wire_index = 0;
    std::vector<DelayedRec> delayed;
  };

  explicit StreamSocketTransport(std::vector<PeerFd> peers);

  /// Drain c's chain into the socket with sendmsg until EAGAIN/empty; a
  /// hard error enters recovery (or marks the conn dead when unrecoverable).
  void try_flush(Conn& c);
  [[nodiscard]] std::size_t tx_backlog(const Conn& c) const noexcept {
    return c.txq.size();
  }
  Conn* conn_of(int node) noexcept;

  [[nodiscard]] bool recoverable(const Conn& c) const noexcept;
  [[nodiscard]] bool dead(const Conn& c) const noexcept {
    return c.closed && c.rx_eof;
  }
  /// Give up on the link for good: the next recv() reports kClosed once.
  void permanent_close(Conn& c, std::string why);
  /// Transient loss: salvage undelivered inbound frames, drop the stream,
  /// and schedule redial (dial side) / re-accept (accept side).
  void enter_reconnect(Conn& c, std::string why);
  /// Advance waiting/resuming conns: due redials, exhausted budgets,
  /// retransmission timeouts. Called from send()/flush()/recv(); only the
  /// recv() pump checks retransmission timeouts (check_rto) — the runner
  /// always pumps, and the send path must stay clock-free when idle.
  void service_reconnects(bool check_rto);
  /// Adopt the fresh stream: preamble (dialer only) + our HelloResume, then
  /// wait for the peer's through the normal receive path. False ⇒ the write
  /// failed and the conn stays waiting.
  bool begin_resume(Conn& c, int fd, bool dialer);
  void complete_resume(Conn& c, const Frame& hr);
  /// Extract every deliverable frame still buffered on a breaking stream.
  void salvage_rx(Conn& c);
  /// Session-control dispatch (seq 0 frames). allow_resume gates
  /// HelloResume handling (off while salvaging a dead stream).
  void on_control(Conn& c, Frame& f, bool allow_resume);
  void prune_ring(Conn& c, std::uint64_t upto);
  void queue_control(Conn& c, const Frame& f);
  void maybe_ack(Conn& c, bool idle);
  /// Accept every queued reconnect on the retained mesh listener.
  void accept_pending();
  /// Push the freshly encoded record in c.encode_buf onto the wire backlog,
  /// applying the conn's wire fault plan.
  void append_wire_record(Conn& c);
  void release_delayed(Conn& c, bool all);
  [[nodiscard]] long total_backoff_budget_ms() const noexcept;
  [[nodiscard]] bool any_pending() const noexcept;

  SegmentPool pool_;  // declared before conns_: chains must die first
  std::vector<Conn> conns_;
  std::vector<int> peer_ids_;
  std::size_t rr_ = 0;  // round-robin start for fair frame extraction
  SessionOptions session_;
  int self_node_ = -1;    // known only for mesh-built transports
  int listener_fd_ = -1;  // retained mesh listener (reconnect accepts)
  std::function<int(int peer)> dial_;  // mesh redial; empty for from_fds
  common::Bytes ctrl_buf_;             // control-frame encode scratch
  std::vector<common::Bytes> spare_;   // recycled replay-ring buffers
  std::vector<pollfd> pfds_;  // recv()'s poll set: every conn + listener
};

}  // namespace mcam::estelle
