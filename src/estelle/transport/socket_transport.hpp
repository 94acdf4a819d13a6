// Stream-socket MailboxTransport: Unix-domain and TCP meshes.
//
// One connected stream per peer, sequenced length-prefixed BER frames
// (frame.hpp: `u32 len | u64 seq | body`) on the wire. The I/O discipline
// implements the transport contract:
//
//   * every peer has ONE outbound log: the encoded records still owed to
//     the stream or kept for replay, in wire order. send() encodes the
//     frame straight into a record's buffer, recycled from earlier records
//     (a warmed send allocates nothing — the encode_pool_reuse counter),
//     and the record is never copied after that. The socket push is
//     DEFERRED to flush() / the recv() pump unless the backlog crossed
//     kEagerFlushBytes, so a round's worth of frames leaves in one
//     scatter-gather syscall. kQueueFull is returned once the backlog
//     reaches kMaxOutboundBytes — the runner's back-pressure park — with
//     the frame left intact for the retry.
//   * flush() writes every connection's log from its write cursor with
//     sendmsg(iovec[]), one iovec per record, until EAGAIN/empty: one data
//     syscall per peer per round in the steady state, whatever the transfer
//     count (the syscalls counter, gated by bench_transport). A partial
//     write leaves the cursor inside a record. A written record leaves the
//     log at once unless the session keeps it for replay.
//   * reads go through one reusable per-connection receive buffer
//     (FrameReassembler): poll(), read into a fixed stack chunk, feed, and
//     decode in place. Steady-state receive performs no per-frame
//     allocation (transfer payload octets excepted — they leave the buffer
//     as owned Interaction state, exactly like an in-process delivery).
//   * destruction is a graceful close: flush the outbound backlog,
//     shutdown(SHUT_WR), then drain inbound to EOF (bounded) before
//     close() — a TCP close with unread inbound data would RST and destroy
//     our own final frames still in flight to the peer.
//
// Session layer (PR 9). Every data frame to a peer carries a monotonic
// sequence number; its record stays in the outbound log, already written,
// until the peer's cumulative SessionAck covers it (bounded by
// kMaxReplayBytes). configure_session() with reconnect_max_attempts > 0
// turns a mid-run connection loss (reset, EOF, injected fault, sequence gap
// from wire loss, retransmission timeout) into a transparent recovery
// instead of a kClosed report:
//
//   * the original dialer redials with capped exponential backoff plus
//     deterministic jitter; the original acceptor keeps its mesh listener
//     open for the whole run and re-adopts the peer's new stream.
//   * both sides open the new stream with HelloResume{fingerprint, epoch,
//     last-delivered seq}; a fingerprint mismatch refuses the resume (the
//     peer is running a different specification) and surfaces the usual
//     structured kClosed. Otherwise each side drops the log records the
//     other has delivered and rewinds its write cursor to the oldest one
//     left, so exactly the undelivered tail is written again, nothing
//     copied — per-peer FIFO order (and with it transfer-before-RoundDone)
//     is preserved, and the receiver discards anything it already delivered
//     by sequence number.
//   * frames already received but not yet handed out when a connection
//     breaks are salvaged across the reconnect (a peer's parting Bye is
//     never lost to a racing send failure).
//   * when every redial attempt fails (the peer is genuinely dead), the
//     loss surfaces as today's single kClosed with the accumulated reason —
//     failure stays a value, never a hang.
//
// set_wire_faults() installs a deterministic FaultPlan at the wire-record
// level, *below* the sequence numbers, decided when a record is queued: a
// dropped record stays in the log but the first pass does not write it —
// exactly the kind of loss the session layer recovers (gap detection →
// reconnect → replay); a duplicated record is written twice (the second
// copy is transient) and exercises the sequence-number discard; a delayed
// one is written later as a transient copy; an injected close is a mid-run
// reset. Replays travel clean. The differential sweep drives recovery
// through this hook.
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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
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
  /// Replay bound per peer (encoded bytes of the records the log keeps until
  /// the peer acknowledges them). Reaching it back-pressures send() with
  /// kQueueFull — records are never evicted unacknowledged, so a resume can
  /// always replay.
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

  /// One encoded wire record (length | seq | body) on a peer's log.
  struct Record {
    std::uint64_t seq = 0;  // 0: session-control frame
    common::Bytes wire;
    bool replay = false;  // kept until acknowledged; a resume rewrites it
    bool skip = false;    // dropped or delayed: the first pass skips it
  };
  struct DelayedRec {
    std::uint64_t release_at = 0;  // wire index that frees it
    common::Bytes wire;
  };

  struct Conn {
    int node = 0;
    int fd = -1;
    FrameReassembler rx = FrameReassembler{true};
    // Outbound log, in wire order. log[head, cursor) is written (or
    // skipped) on the current stream, and only its records kept for replay
    // still hold bytes; log[cursor] has cursor_off bytes written; the rest
    // is queued. A resume rewinds the cursor to head. Compacted by moves,
    // never shrunk, so a warmed log allocates nothing.
    std::vector<Record> log;
    std::size_t head = 0;
    std::size_t cursor = 0;
    std::size_t cursor_off = 0;
    std::size_t queued_bytes = 0;  // not yet written on the current stream
    std::size_t kept_bytes = 0;    // records kept for replay
    bool closed = false;      // outbound half dead; no further sends
    bool rx_eof = false;      // inbound half exhausted (EOF / read error)
    bool close_reported = false;
    std::string close_reason;
    // Session state.
    std::uint64_t tx_seq = 0;  // last data sequence number assigned
    std::uint64_t rx_seq = 0;  // last in-order data sequence delivered
    std::uint64_t acked = 0;   // log pruned through this sequence
    std::uint32_t rx_since_ack = 0;
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

  /// Write c's log from the cursor with sendmsg until EAGAIN/empty; a hard
  /// error enters recovery (or marks the conn dead when unrecoverable).
  void try_flush(Conn& c);
  /// Bytes the current stream still owes the peer: none while the link is
  /// down or resuming (the log is rewound only when the resume completes).
  [[nodiscard]] std::size_t tx_backlog(const Conn& c) const noexcept {
    return c.fd < 0 || c.resuming ? 0 : c.queued_bytes;
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
  /// Append a record holding a recycled buffer, sliding the live records
  /// down before the log would grow; valid until the next push.
  Record& push_record(Conn& c);
  void recycle(common::Bytes b);
  /// Move the cursor over `n` bytes the socket accepted.
  void advance_cursor(Conn& c, std::size_t n);
  /// Pop written records off the log's front, kept ones once acknowledged.
  void trim_log(Conn& c);
  void queue_control(Conn& c, const Frame& f);
  void maybe_ack(Conn& c, bool idle);
  /// Accept every queued reconnect on the retained mesh listener.
  void accept_pending();
  /// Apply the conn's wire fault plan to the record just queued.
  void apply_wire_faults(Conn& c);
  void release_delayed(Conn& c, bool all);
  [[nodiscard]] long total_backoff_budget_ms() const noexcept;
  [[nodiscard]] bool any_pending() const noexcept;

  std::vector<Conn> conns_;
  std::vector<int> peer_ids_;
  std::size_t rr_ = 0;  // round-robin start for fair frame extraction
  SessionOptions session_;
  int self_node_ = -1;    // known only for mesh-built transports
  int listener_fd_ = -1;  // retained mesh listener (reconnect accepts)
  std::function<int(int peer)> dial_;  // mesh redial; empty for from_fds
  common::Bytes ctrl_buf_;             // HelloResume encode scratch
  std::vector<common::Bytes> spare_;   // recycled record buffers
  std::vector<pollfd> pfds_;  // recv()'s poll set: every conn + listener
};

}  // namespace mcam::estelle
