// MailboxTransport — the pluggable frame channel of the distributed runner.
//
// A transport connects one node (process or thread) to its peers and moves
// Frames (frame.hpp) between them. The contract is deliberately minimal so
// the three FreeRunning synchronization primitives stay the only coupling
// surface:
//
//   * send() is NONBLOCKING: the frame is queued and the call returns. A
//     full bounded outbound queue returns kQueueFull — the runner's
//     back-pressure park: it pumps recv() (keeping the peer draining) and
//     retries, exactly how a free-running shard parks on a full firing log
//     instead of blocking the world. On failure the frame is always left
//     intact, so a retry re-sends the same object without copying it.
//   * flush() pushes every queued byte the medium will accept right now.
//     send() batches: it may defer the medium push entirely (a wire
//     transport encodes into its backlog and waits), so a producer that
//     stops sending must flush() before it waits on the peer. recv() also
//     flushes opportunistically, which keeps request/reply pumps live even
//     without explicit flushes.
//   * recv() pumps the medium for up to timeout_ms and returns at most one
//     frame. kClosed reports a dead peer (closed/reset connection) exactly
//     once per peer — the runner turns it into a structured RunReport error
//     instead of hanging on the RoundDone gate.
//   * per-peer FIFO order is guaranteed (stream sockets / in-order queues).
//     The round-composition argument leans on it: a TransferBatch sent
//     during round k precedes the sender's round-k completion frames, so
//     a gate release implies every earlier-round transfer already arrived.
//
// Implementations:
//   LoopbackTransport (here)            — in-process, zero-copy Frame moves,
//                                         no serialization; the
//                                         overhead-neutral default.
//   StreamSocketTransport (socket_transport.hpp)
//                                       — Unix-domain or TCP stream mesh,
//                                         length-prefixed BER frames.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "estelle/executor.hpp"  // TransportStats
#include "estelle/transport/frame.hpp"

namespace mcam::estelle {

/// common::Error codes produced by transports.
enum TransportError : int {
  kPeerClosed = 2001,   ///< connection closed/reset by the peer
  kQueueFull = 2002,    ///< bounded outbound queue at capacity (back-pressure)
  kProtocol = 2003,     ///< stream corruption / undecodable frame
  kSetupFailed = 2004,  ///< mesh construction failed (bind/connect/accept)
};

class MailboxTransport {
 public:
  enum class RecvOutcome {
    kFrame,   ///< *out holds a frame (from *from)
    kIdle,    ///< nothing arrived within the timeout
    kClosed,  ///< *from's connection died; *error describes it
  };

  /// Session/recovery configuration (the PR 9 fault-tolerance layer).
  /// configure_session() hands it to transports that can recover a broken
  /// peer link; others ignore it. Both sides of a link must be configured
  /// identically — the DistributedRunner derives one from its DistOptions on
  /// every node before the membership handshake.
  struct SessionOptions {
    /// Redial attempts after a mid-run connection loss; 0 disables recovery
    /// (a loss surfaces kClosed exactly as before the session layer).
    int reconnect_max_attempts = 0;
    /// First redial backoff; doubles per failed attempt up to the cap, with
    /// deterministic jitter on top.
    int backoff_initial_ms = 20;
    int backoff_cap_ms = 1000;
    /// Unacknowledged sent records older than this force a reconnect (the
    /// retransmission timeout that recovers a dropped stream tail).
    int resend_timeout_ms = 1000;
    /// Specification fingerprint carried by the HelloResume handshake; a
    /// peer resuming with a different value is refused.
    std::uint64_t fingerprint = 0;
  };

  virtual ~MailboxTransport() = default;

  /// Install the session/recovery configuration. Default: ignored (the
  /// transport cannot recover links; loss keeps surfacing kClosed).
  virtual void configure_session(const SessionOptions&) {}

  /// Testing hook: abruptly break the link to `peer` as a network fault
  /// would (both directions, no farewell). Returns false when the transport
  /// has no severable link. A session-enabled transport treats its own
  /// severed link as a transient failure and recovers it.
  virtual bool sever(int peer) {
    (void)peer;
    return false;
  }

  /// Peer node ids this endpoint can reach (excludes the own node).
  [[nodiscard]] virtual const std::vector<int>& peers() const noexcept = 0;

  /// Queue `f` for `peer`; never blocks. On success the transport may
  /// consume the frame (in-process endpoints move it; wire endpoints encode
  /// from it and leave it intact, so the caller can reuse its buffers). On
  /// failure the frame is untouched — back-pressured sends retry with the
  /// same object, no copy. Errors: kQueueFull (retry after pumping recv),
  /// kPeerClosed.
  virtual common::Status send(int peer, Frame& f) = 0;

  /// Push every queued outbound byte the medium accepts right now. Called
  /// by the runner at its natural boundaries (end of a round's sends, after
  /// control frames) so one syscall can carry a whole round's backlog.
  virtual void flush() {}

  /// Pump the medium for up to `timeout_ms` (0 = poll) and hand out at most
  /// one frame.
  virtual RecvOutcome recv(int* from, Frame* out, int timeout_ms,
                           std::string* error) = 0;

  [[nodiscard]] virtual const TransportStats& stats() const noexcept {
    return stats_;
  }
  /// Counters the *runner* owns semantically but that live with the frames
  /// (null-rounds serviced) are added through here. Virtual so a decorator
  /// (FaultInjectingTransport) can keep one canonical counter block on the
  /// transport it wraps.
  [[nodiscard]] virtual TransportStats& mutable_stats() noexcept {
    return stats_;
  }

 protected:
  TransportStats stats_;
};

/// In-process transport: N endpoints over shared bounded frame queues.
/// send() *moves* the Frame into the destination queue — no serialization,
/// no copy — so a single-process distributed topology costs two queue
/// operations per frame. Endpoint destruction closes its links: surviving
/// peers observe kClosed, which is how tests emulate peer death in-process.
class LoopbackHub {
 public:
  /// Frames one inbound queue may hold before send() back-pressures.
  static constexpr std::size_t kQueueCap = 8192;

  explicit LoopbackHub(int nodes);

  /// The transport endpoint of `node`; callable once per node.
  [[nodiscard]] std::unique_ptr<MailboxTransport> endpoint(int node);

 private:
  class Endpoint;
  /// All queues plus one hub-wide monitor. One lock for the whole hub keeps
  /// the implementation obviously deadlock-free; loopback is for tests,
  /// benches and single-machine topologies, not for scaling node counts.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int nodes = 0;
    /// link[to * nodes + from]: frames in flight from `from` to `to`.
    struct Link {
      std::vector<Frame> q;
      std::size_t head = 0;  // consumed prefix (compacted when drained)
      bool open = false;
    };
    std::vector<Link> links;
    std::vector<bool> taken;
  };
  std::shared_ptr<State> state_;
};

}  // namespace mcam::estelle
