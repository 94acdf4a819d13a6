#include "estelle/transport/socket_transport.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <utility>

namespace mcam::estelle {

using common::ByteSpan;
using common::Error;
using common::Result;
using common::Status;

namespace {

/// iovecs one sendmsg gathers, one per record: IOV_MAX on Linux, so a
/// round of 64 unbatched transfers plus its RoundDone leaves in one call.
constexpr std::size_t kMaxIov = 1024;
/// Recycled record buffers kept for reuse, across all peers: room for the
/// records a session keeps between acknowledgements plus a round's worth
/// of transient ones (64 unbatched transfers and their RoundDone).
constexpr std::size_t kMaxSpare =
    2 * StreamSocketTransport::kAckIntervalFrames;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Blocking exact-count I/O for the setup phase (id preambles, resume
/// hellos — a handful of bytes on a fresh socket).
bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && (errno == EINTR)) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

struct TcpAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Every node's address from "host" or "host:port" entries (hosts[i] for
/// node i); loopback and base_port + i where unspecified. A port must be
/// the whole decimal text after the last ':' and lie in 1..65535; the first
/// node whose port does not is an error naming its entry.
Result<std::vector<TcpAddr>> tcp_addrs(const std::vector<std::string>& hosts,
                                       std::uint16_t base_port, int nodes) {
  std::vector<TcpAddr> addrs(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    TcpAddr& addr = addrs[static_cast<std::size_t>(i)];
    const std::string entry =
        hosts.empty() ? std::string() : hosts[static_cast<std::size_t>(i)];
    const std::size_t colon = entry.rfind(':');
    long port = static_cast<long>(base_port) + i;
    if (colon != std::string::npos) {
      const std::string text = entry.substr(colon + 1);
      const bool decimal =
          !text.empty() && text.size() <= 5 &&
          std::all_of(text.begin(), text.end(),
                      [](char c) { return c >= '0' && c <= '9'; });
      port = decimal ? std::stol(text) : 0;
    }
    if (port < 1 || port > 65535)
      return Error::make(
          kSetupFailed,
          "tcp mesh: node " + std::to_string(i) + " has no port in 1..65535 (" +
              (colon != std::string::npos
                   ? "entry \"" + entry + "\""
                   : "base_port + " + std::to_string(i) + " = " +
                         std::to_string(port)) +
              ")");
    if (!entry.empty()) addr.host = entry.substr(0, colon);
    addr.port = static_cast<std::uint16_t>(port);
  }
  return addrs;
}

struct MeshSetup {
  /// Connected, preamble-exchanged fds keyed by peer node.
  std::vector<StreamSocketTransport::PeerFd> fds;
  std::uint64_t retries = 0;
  /// The bound mesh listener, still open: the session layer re-accepts
  /// reconnecting lower-id peers on it for the whole run.
  int listener = -1;
};

/// The dial/accept split every mesh uses: node i dials every lower id and
/// accepts every higher one, so each pair establishes exactly one stream.
Result<MeshSetup> build_mesh(
    int node, int nodes, int timeout_ms,
    const std::function<int()>& make_listener,      // bound+listening fd
    const std::function<int(int peer)>& dial) {     // connected fd or -1
  MeshSetup setup;
  if (nodes <= 1) return setup;
  const int listener = make_listener();
  if (listener < 0)
    return Error::make(kSetupFailed,
                       "mesh: listen failed: " + std::string(strerror(errno)));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Dial down.
  for (int p = 0; p < node; ++p) {
    int fd = -1;
    for (;;) {
      fd = dial(p);
      if (fd >= 0) break;
      ++setup.retries;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::close(listener);
        for (auto& pf : setup.fds) ::close(pf.fd);
        return Error::make(kSetupFailed, "mesh: node " + std::to_string(p) +
                                             " never became reachable");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::uint32_t id = htonl(static_cast<std::uint32_t>(node));
    if (!write_all(fd, &id, sizeof id)) {
      ::close(fd);
      ::close(listener);
      for (auto& pf : setup.fds) ::close(pf.fd);
      return Error::make(kSetupFailed, "mesh: preamble write failed");
    }
    setup.fds.push_back({p, fd});
  }
  // Accept up.
  for (int expected = nodes - 1 - node; expected > 0;) {
    pollfd pfd{listener, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      ::close(listener);
      for (auto& pf : setup.fds) ::close(pf.fd);
      return Error::make(kSetupFailed, "mesh: timed out accepting peers");
    }
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    std::uint32_t id = 0;
    if (!read_all(fd, &id, sizeof id)) {
      ::close(fd);
      continue;
    }
    setup.fds.push_back({static_cast<int>(ntohl(id)), fd});
    --expected;
  }
  setup.listener = listener;
  return setup;
}

}  // namespace

StreamSocketTransport::StreamSocketTransport(std::vector<PeerFd> peers)
    : pfds_(peers.size() + 1) {  // one slot per peer plus the listener
  conns_.reserve(peers.size());
  for (const PeerFd& p : peers) {
    set_nonblocking(p.fd);
    Conn c;
    c.node = p.node;
    c.fd = p.fd;
    conns_.push_back(std::move(c));
    peer_ids_.push_back(p.node);
  }
}

std::unique_ptr<StreamSocketTransport> StreamSocketTransport::from_fds(
    std::vector<PeerFd> peers) {
  return std::unique_ptr<StreamSocketTransport>(
      new StreamSocketTransport(std::move(peers)));
}

Result<std::unique_ptr<StreamSocketTransport>>
StreamSocketTransport::unix_mesh(int node, int nodes, const std::string& dir,
                                 int connect_timeout_ms) {
  const auto path_of = [dir](int n) {
    return dir + "/node" + std::to_string(n) + ".sock";
  };
  // By-value capture: the transport keeps this closure for the whole run to
  // redial lost peers long after unix_mesh() returned.
  std::function<int(int)> dial = [path_of](int peer) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string path = path_of(peer);
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };
  Result<MeshSetup> setup = build_mesh(
      node, nodes, connect_timeout_ms,
      [&]() {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        const std::string path = path_of(node);
        if (path.size() >= sizeof addr.sun_path) return -1;
        std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
        ::unlink(path.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            ::listen(fd, nodes) < 0) {
          ::close(fd);
          return -1;
        }
        return fd;
      },
      dial);
  if (!setup.ok()) return setup.error();
  auto t = from_fds(std::move(setup.value().fds));
  t->mutable_stats().handshake_retries = setup.value().retries;
  t->self_node_ = node;
  t->listener_fd_ = setup.value().listener;
  if (t->listener_fd_ >= 0) set_nonblocking(t->listener_fd_);
  t->dial_ = std::move(dial);
  return t;
}

Result<std::unique_ptr<StreamSocketTransport>> StreamSocketTransport::tcp_mesh(
    int node, int nodes, std::uint16_t base_port,
    const std::vector<std::string>& hosts, int connect_timeout_ms) {
  if (!hosts.empty() && static_cast<int>(hosts.size()) != nodes)
    return Error::make(kSetupFailed,
                       "tcp mesh: host list names " +
                           std::to_string(hosts.size()) + " nodes, mesh has " +
                           std::to_string(nodes));
  Result<std::vector<TcpAddr>> resolved = tcp_addrs(hosts, base_port, nodes);
  if (!resolved.ok()) return resolved.error();
  const std::vector<TcpAddr> addrs = std::move(resolved).take();
  // Name resolution happens per dial attempt — it is the cold path, and a
  // peer whose name appears late (DNS, container startup) benefits from
  // being re-queried inside the retry loop. By-value capture: kept for
  // redials.
  std::function<int(int)> dial = [addrs](int peer) {
    const TcpAddr& addr = addrs[static_cast<std::size_t>(peer)];
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(addr.host.c_str(), std::to_string(addr.port).c_str(),
                      &hints, &res) != 0 ||
        res == nullptr)
      return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ::freeaddrinfo(res);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
    if (rc < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };
  Result<MeshSetup> setup = build_mesh(
      node, nodes, connect_timeout_ms,
      [&]() {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        // Peers on other machines must be able to dial us back.
        addr.sin_addr.s_addr =
            htonl(hosts.empty() ? INADDR_LOOPBACK : INADDR_ANY);
        addr.sin_port = htons(addrs[static_cast<std::size_t>(node)].port);
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            ::listen(fd, nodes) < 0) {
          ::close(fd);
          return -1;
        }
        return fd;
      },
      dial);
  if (!setup.ok()) return setup.error();
  for (auto& pf : setup.value().fds) {
    const int one = 1;
    ::setsockopt(pf.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  auto t = from_fds(std::move(setup.value().fds));
  t->mutable_stats().handshake_retries = setup.value().retries;
  t->self_node_ = node;
  t->listener_fd_ = setup.value().listener;
  if (t->listener_fd_ >= 0) set_nonblocking(t->listener_fd_);
  t->dial_ = std::move(dial);
  return t;
}

StreamSocketTransport::~StreamSocketTransport() {
  // Session linger: a graceful exit must not strand sent-but-unacknowledged
  // records — the runner's parting Bye may be sitting in the log of a
  // mid-reconnect link, and tearing down now would leave the peer redialing
  // a dead process. Pump the recovery machinery (redials, accepts, resumes,
  // replays, acks) until no recoverable link keeps a record for replay;
  // late data frames are discarded — the runner is gone, the peer only
  // needs its replays delivered and acknowledged. Bounded by the session's
  // own retry budget: a genuinely dead peer exhausts its attempts into a
  // permanent close and the loop exits.
  if (session_.reconnect_max_attempts > 0) {
    // Only unacknowledged records keep us here: `waiting`/`resuming` alone
    // mean the PEER left (usually its own graceful farewell) while we owe it
    // nothing — redialing it would burn the whole backoff budget against a
    // process that is also tearing down.
    const auto needs_linger = [this] {
      for (const Conn& c : conns_)
        if (!c.closed && recoverable(c) && !c.peer_departed && c.kept_bytes > 0)
          return true;
      return false;
    };
    // A parting cumulative ack lets a peer lingering on ITS log exit
    // immediately instead of waiting out the idle-ack throttle; re-sent
    // after every pump so replayed records are acknowledged on arrival.
    const auto send_final_acks = [this] {
      for (Conn& c : conns_) {
        if (c.fd < 0 || c.closed || c.resuming || c.rx_since_ack == 0)
          continue;
        Frame ack;
        ack.type = FrameType::SessionAck;
        ack.recv = c.rx_seq;
        queue_control(c, ack);
        c.rx_since_ack = 0;
        try_flush(c);
      }
    };
    const auto linger_deadline =
        SteadyClock::now() +
        std::chrono::milliseconds(session_.resend_timeout_ms +
                                  total_backoff_budget_ms());
    Frame f;
    int from = 0;
    std::string err;
    send_final_acks();
    while (needs_linger() && SteadyClock::now() < linger_deadline) {
      (void)recv(&from, &f, 20, &err);
      send_final_acks();
    }
    send_final_acks();
  }
  // Graceful close. Flush what the peers are still owed (the runner's
  // parting Bye is usually in the backlog), announce end-of-stream, then
  // drain inbound to EOF before close(): a TCP close with unread inbound
  // data turns into RST, which would destroy our final frames in flight.
  // The whole farewell is bounded by one shared deadline. Conns that are
  // down mid-reconnect (fd < 0) have nothing to say goodbye to.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  const auto left_ms = [&deadline] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               deadline - std::chrono::steady_clock::now())
        .count();
  };
  for (Conn& c : conns_) {
    if (c.fd < 0) continue;
    while (!c.closed && tx_backlog(c) > 0 && left_ms() > 0) {
      pollfd p{c.fd, POLLOUT, 0};
      if (::poll(&p, 1, static_cast<int>(left_ms())) <= 0) break;
      try_flush(c);
    }
    if (c.fd < 0) continue;  // try_flush may have dropped the stream
    if (!c.closed) ::shutdown(c.fd, SHUT_WR);
  }
  for (Conn& c : conns_) {
    if (c.fd < 0) continue;
    while (!c.rx_eof) {
      const auto left = left_ms();
      if (left <= 0) break;
      pollfd p{c.fd, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) break;
      std::uint8_t chunk[4096];
      const ssize_t r = ::read(c.fd, chunk, sizeof chunk);
      if (r < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
        continue;
      if (r <= 0) break;  // EOF or a dead peer — done either way
    }
    ::close(c.fd);
  }
  if (listener_fd_ >= 0) ::close(listener_fd_);
}

StreamSocketTransport::Conn* StreamSocketTransport::conn_of(
    int node) noexcept {
  for (Conn& c : conns_)
    if (c.node == node) return &c;
  return nullptr;
}

bool StreamSocketTransport::recoverable(const Conn& c) const noexcept {
  if (session_.reconnect_max_attempts <= 0 || self_node_ < 0) return false;
  // Mesh discipline: we dialed every lower id, accepted every higher one —
  // recovery keeps the same roles.
  return c.node < self_node_ ? static_cast<bool>(dial_) : listener_fd_ >= 0;
}

long StreamSocketTransport::total_backoff_budget_ms() const noexcept {
  long total = 0;
  int b = session_.backoff_initial_ms > 0 ? session_.backoff_initial_ms : 1;
  const int cap = session_.backoff_cap_ms > 0 ? session_.backoff_cap_ms : b;
  for (int i = 0; i < session_.reconnect_max_attempts; ++i) {
    total += b + b / 2;  // worst-case jitter is half the base
    b = std::min(b * 2, std::max(cap, 1));
  }
  // Slack for dial/handshake latency so the passive side outlives the
  // dialing side's full schedule.
  return total + 750;
}

void StreamSocketTransport::permanent_close(Conn& c, std::string why) {
  c.waiting = false;
  c.resuming = false;
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
  }
  c.closed = true;
  c.rx_eof = true;
  if (c.close_reason.empty()) c.close_reason = std::move(why);
}

void StreamSocketTransport::salvage_rx(Conn& c) {
  Frame f;
  std::string why;
  for (;;) {
    switch (c.rx.next(&f, &why)) {
      case FrameReassembler::Next::kFrame: {
        const std::uint64_t seq = c.rx.last_seq();
        if (seq == 0) {
          on_control(c, f, /*allow_resume=*/false);
          continue;
        }
        if (seq <= c.rx_seq) {
          ++stats_.dup_frames_dropped;
          continue;
        }
        if (seq != c.rx_seq + 1) return;  // gap — the rest will be replayed
        c.rx_seq = seq;
        c.pending_rx.push_back(std::move(f));
        continue;
      }
      case FrameReassembler::Next::kNeedMore:
      case FrameReassembler::Next::kError:
        return;  // a truncated tail is expected on a dying stream
    }
  }
}

void StreamSocketTransport::enter_reconnect(Conn& c, std::string why) {
  if (!recoverable(c) || c.peer_departed) {
    permanent_close(c, std::move(why));
    return;
  }
  if (c.waiting) return;  // already recovering; keep the first cause
  const bool mid_resume = c.resuming;  // a resume attempt itself failed
  if (c.fd >= 0) {
    // Final nonblocking drain: the peer's parting frames (a Bye racing our
    // send failure) may already sit in the kernel buffer — salvage them
    // before the stream goes away or a graceful leave would be
    // misclassified as a death.
    std::uint8_t chunk[4096];
    for (;;) {
      const ssize_t r = ::read(c.fd, chunk, sizeof chunk);
      if (r > 0) {
        stats_.bytes_received += static_cast<std::uint64_t>(r);
        c.rx.feed(ByteSpan{chunk, static_cast<std::size_t>(r)});
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      break;
    }
  }
  salvage_rx(c);
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
  }
  c.rx.reset();
  c.delayed.clear();
  c.resuming = false;
  c.closed = false;
  c.rx_eof = false;
  c.waiting = true;
  ++c.epoch;
  if (c.jitter_state == 0)
    c.jitter_state = 0x9e3779b9u ^
                     (static_cast<std::uint32_t>(self_node_) * 2654435761u) ^
                     (static_cast<std::uint32_t>(c.node) << 8) ^ 1u;
  const auto now = SteadyClock::now();
  c.next_attempt = now;  // first redial fires immediately
  if (!mid_resume) {
    // A fresh loss gets a fresh budget; a failed resume keeps burning the
    // one that opened it, so a flapping peer cannot extend its own deadline.
    c.attempt = 0;
    c.backoff_ms = session_.backoff_initial_ms > 0 ? session_.backoff_initial_ms
                                                   : 1;
    c.give_up = now + std::chrono::milliseconds(total_backoff_budget_ms());
  }
  if (c.wait_reason.empty()) c.wait_reason = std::move(why);
}

StreamSocketTransport::Record& StreamSocketTransport::push_record(Conn& c) {
  if (c.head > 0 && c.log.size() == c.log.capacity()) {
    std::move(c.log.begin() + static_cast<std::ptrdiff_t>(c.head), c.log.end(),
              c.log.begin());
    c.log.resize(c.log.size() - c.head);
    c.cursor -= c.head;
    c.head = 0;
  }
  Record& r = c.log.emplace_back();
  if (!spare_.empty()) {
    r.wire = std::move(spare_.back());
    spare_.pop_back();
    r.wire.clear();
  }
  return r;
}

void StreamSocketTransport::recycle(common::Bytes b) {
  if (b.capacity() != 0 && spare_.size() < kMaxSpare)
    spare_.push_back(std::move(b));
}

void StreamSocketTransport::advance_cursor(Conn& c, std::size_t n) {
  c.queued_bytes -= n;
  while (n > 0) {
    Record& r = c.log[c.cursor];
    if (!r.skip) {
      const std::size_t rest = r.wire.size() - c.cursor_off;
      if (n < rest) {
        c.cursor_off += n;
        return;
      }
      n -= rest;
      c.cursor_off = 0;
    }
    if (!r.replay) recycle(std::move(r.wire));
    ++c.cursor;
  }
}

void StreamSocketTransport::trim_log(Conn& c) {
  for (; c.head < c.cursor; ++c.head) {
    Record& r = c.log[c.head];
    if (!r.replay) continue;  // its bytes went back at the write
    if (r.seq > c.acked) break;
    c.kept_bytes -= r.wire.size();
    recycle(std::move(r.wire));
  }
  if (c.head == c.log.size()) {
    c.log.clear();
    c.head = 0;
    c.cursor = 0;
  }
}

void StreamSocketTransport::queue_control(Conn& c, const Frame& f) {
  Record& r = push_record(c);
  encode_frame_seq_to(f, 0, r.wire);
  c.queued_bytes += r.wire.size();
  ++stats_.frames_sent;
}

void StreamSocketTransport::maybe_ack(Conn& c, bool idle) {
  if (c.rx_since_ack == 0 || c.fd < 0 || c.resuming || c.closed ||
      !recoverable(c))
    return;
  if (!idle && c.rx_since_ack < kAckIntervalFrames) return;
  const auto now = SteadyClock::now();
  if (idle && now - c.last_ack < std::chrono::milliseconds(20)) return;
  Frame ack;
  ack.type = FrameType::SessionAck;
  ack.recv = c.rx_seq;
  queue_control(c, ack);
  c.rx_since_ack = 0;
  c.last_ack = now;
  try_flush(c);
}

void StreamSocketTransport::complete_resume(Conn& c, const Frame& hr) {
  if (hr.spec_hash != session_.fingerprint) {
    permanent_close(c, "resume refused: specification fingerprint mismatch");
    return;
  }
  if (hr.recv > c.tx_seq) {
    permanent_close(c, "resume refused: peer acknowledges records never sent");
    return;
  }
  if (hr.recv < c.acked) {
    // The log never evicts unacknowledged records (send back-pressures
    // instead), so this means the peer lost session state entirely.
    permanent_close(c, "resume refused: peer needs records beyond the log");
    return;
  }
  c.acked = hr.recv;
  c.resuming = false;
  c.waiting = false;
  c.attempt = 0;
  c.wait_reason.clear();
  // Rewind onto the fresh stream: drop the transient records and the kept
  // ones the peer delivered, and write the rest again from the oldest, in
  // sequence order and clean of wire faults — per-peer FIFO survives the
  // reconnect, and no record is copied.
  std::size_t live = c.head;
  for (std::size_t i = c.head; i < c.log.size(); ++i) {
    Record& r = c.log[i];
    if (!r.replay || r.seq <= c.acked) {
      if (r.replay) c.kept_bytes -= r.wire.size();
      recycle(std::move(r.wire));
      continue;
    }
    r.skip = false;
    if (live != i) c.log[live] = std::move(r);
    ++live;
  }
  stats_.frames_replayed += live - c.head;
  c.log.resize(live);
  c.cursor = c.head;
  c.cursor_off = 0;
  c.queued_bytes = c.kept_bytes;
  ++stats_.reconnects;
  if (c.kept_bytes > 0) c.oldest_unacked = SteadyClock::now();
  try_flush(c);
}

void StreamSocketTransport::on_control(Conn& c, Frame& f, bool allow_resume) {
  switch (f.type) {
    case FrameType::SessionAck: {
      if (f.recv > c.acked) c.acked = std::min(f.recv, c.tx_seq);
      const std::size_t kept = c.kept_bytes;
      trim_log(c);
      if (c.kept_bytes != kept) c.oldest_unacked = SteadyClock::now();
      return;
    }
    case FrameType::HelloResume:
      if (allow_resume && c.resuming) complete_resume(c, f);
      return;
    default:
      return;  // unknown control frame: ignore (forward compatibility)
  }
}

bool StreamSocketTransport::begin_resume(Conn& c, int fd, bool dialer) {
  if (dialer) {
    const std::uint32_t id = htonl(static_cast<std::uint32_t>(self_node_));
    if (!write_all(fd, &id, sizeof id)) {
      ::close(fd);
      return false;
    }
  }
  Frame hello;
  hello.type = FrameType::HelloResume;
  hello.node = static_cast<std::uint32_t>(self_node_);
  hello.spec_hash = session_.fingerprint;
  hello.epoch = c.epoch;
  hello.recv = c.rx_seq;
  ctrl_buf_.clear();
  encode_frame_seq_to(hello, 0, ctrl_buf_);
  if (!write_all(fd, ctrl_buf_.data(), ctrl_buf_.size())) {
    ::close(fd);
    return false;
  }
  stats_.bytes_sent += ctrl_buf_.size();
  ++stats_.frames_sent;
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);  // no-op
                                                                 // off TCP
  c.fd = fd;
  c.waiting = false;
  c.resuming = true;
  c.closed = false;
  c.rx_eof = false;
  c.rx.reset();
  return true;
}

void StreamSocketTransport::accept_pending() {
  for (;;) {
    const int fd = ::accept(listener_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: queue drained
    }
    // The dialer writes its id preamble immediately after connect; bound
    // the wait so a half-open stray cannot stall the pump.
    pollfd p{fd, POLLIN, 0};
    std::uint32_t id = 0;
    if (::poll(&p, 1, 1000) <= 0 || !read_all(fd, &id, sizeof id)) {
      ::close(fd);
      continue;
    }
    Conn* c = conn_of(static_cast<int>(ntohl(id)));
    if (c == nullptr || dead(*c) || !recoverable(*c)) {
      ::close(fd);
      continue;
    }
    // The peer noticed the loss first (or redialed twice): drop whatever
    // stream we still hold and adopt the new one.
    if (!c->waiting) enter_reconnect(*c, "peer reconnected");
    if (!c->waiting) {
      ::close(fd);  // the loss turned permanent instead
      continue;
    }
    (void)begin_resume(*c, fd, /*dialer=*/false);
  }
}

void StreamSocketTransport::service_reconnects(bool check_rto) {
  if (session_.reconnect_max_attempts <= 0) return;
  // The common case — every link up, nothing recovering — must cost a scan
  // and no clock read: this runs on every send()/flush()/recv() pass.
  bool active = false;
  for (const Conn& c : conns_)
    if (c.waiting || c.resuming ||
        (check_rto && c.fd >= 0 && !c.closed && c.kept_bytes > 0 &&
         session_.resend_timeout_ms > 0)) {
      active = true;
      break;
    }
  if (!active) return;
  const auto now = SteadyClock::now();
  for (Conn& c : conns_) {
    if (dead(c)) continue;
    // Retransmission timeout: unacknowledged records with no ack progress
    // mean the tail may be lost on the wire (a drop with no later traffic
    // to expose the gap) — force a reconnect; the resume replays it.
    if (c.fd >= 0 && !c.resuming && !c.closed && c.kept_bytes > 0 &&
        session_.resend_timeout_ms > 0 && recoverable(c) &&
        now - c.oldest_unacked >=
            std::chrono::milliseconds(session_.resend_timeout_ms))
      enter_reconnect(c, "retransmission timeout: node " +
                             std::to_string(c.node) +
                             " stopped acknowledging");
    if (c.resuming && now >= c.give_up) {
      permanent_close(c, "resume handshake with node " +
                             std::to_string(c.node) + " timed out (" +
                             c.wait_reason + ")");
      continue;
    }
    if (!c.waiting) continue;
    if (now >= c.give_up) {
      permanent_close(c, "node " + std::to_string(c.node) +
                             " did not come back (" + c.wait_reason + ")");
      continue;
    }
    if (c.node > self_node_) continue;  // accept side waits passively
    if (now < c.next_attempt) continue;
    if (c.attempt >= session_.reconnect_max_attempts) {
      std::string why = "reconnect to node " + std::to_string(c.node) +
                        " failed after " + std::to_string(c.attempt) +
                        " attempts (" + c.wait_reason;
      if (!c.last_dial_error.empty()) why += "; last: " + c.last_dial_error;
      permanent_close(c, why + ")");
      continue;
    }
    ++c.attempt;
    ++stats_.reconnect_attempts;
    errno = 0;
    const int fd = dial_ ? dial_(c.node) : -1;
    if (fd >= 0 && begin_resume(c, fd, /*dialer=*/true)) continue;
    if (fd < 0)
      c.last_dial_error = errno != 0 ? std::strerror(errno) : "dial failed";
    // Capped exponential backoff with deterministic jitter (a shared LCG
    // would make simultaneously-reconnecting nodes stampede in phase).
    c.jitter_state = c.jitter_state * 1664525u + 1013904223u;
    const int base = c.backoff_ms > 0 ? c.backoff_ms : 1;
    const int jit = static_cast<int>(
        (c.jitter_state >> 16) % (static_cast<std::uint32_t>(base / 2) + 1));
    c.next_attempt = SteadyClock::now() + std::chrono::milliseconds(base + jit);
    const int cap = session_.backoff_cap_ms > 0 ? session_.backoff_cap_ms : 1;
    c.backoff_ms = std::min(base * 2, std::max(cap, 1));
  }
}

void StreamSocketTransport::release_delayed(Conn& c, bool all) {
  std::size_t held = 0;
  for (std::size_t i = 0; i < c.delayed.size(); ++i) {
    DelayedRec& d = c.delayed[i];
    if (!all && d.release_at > c.wire_index) {
      // Never self-move: it would empty the held copy.
      if (held != i) c.delayed[held] = std::move(d);
      ++held;
      continue;
    }
    Record& r = push_record(c);
    std::swap(r.wire, d.wire);
    c.queued_bytes += r.wire.size();
    recycle(std::move(d.wire));
  }
  c.delayed.resize(held);
}

void StreamSocketTransport::apply_wire_faults(Conn& c) {
  FaultKind kind = FaultKind::kNone;
  std::uint32_t delay = 1;
  if (!c.wire_faults.empty()) {
    const FaultAction a = c.wire_faults.at(c.wire_index);
    kind = a.kind;
    delay = a.delay_frames;
  }
  ++c.wire_index;
  if (kind != FaultKind::kNone) ++stats_.faults_injected;
  switch (kind) {
    case FaultKind::kNone:
      release_delayed(c, false);
      return;
    case FaultKind::kDrop:  // the network ate it; a resume rewrites it
      c.log.back().skip = true;
      c.queued_bytes -= c.log.back().wire.size();
      return;
    case FaultKind::kDuplicate: {
      Record& dup = push_record(c);
      const common::Bytes& wire = c.log[c.log.size() - 2].wire;
      dup.wire.assign(wire.begin(), wire.end());
      c.queued_bytes += dup.wire.size();
      release_delayed(c, false);
      return;
    }
    case FaultKind::kDelay: {
      Record& r = c.log.back();
      r.skip = true;
      c.queued_bytes -= r.wire.size();
      DelayedRec d;
      d.release_at = c.wire_index + delay;
      if (!spare_.empty()) {
        d.wire = std::move(spare_.back());
        spare_.pop_back();
      }
      d.wire.assign(r.wire.begin(), r.wire.end());
      c.delayed.push_back(std::move(d));
      return;
    }
    case FaultKind::kClose:
      // The reset loses the unwritten tail on purpose — the resume
      // rewrites it.
      enter_reconnect(c, "fault: injected connection close");
      return;
  }
}

void StreamSocketTransport::try_flush(Conn& c) {
  while (!c.closed && tx_backlog(c) > 0) {
    iovec iov[kMaxIov];
    std::size_t n = 0;
    for (std::size_t i = c.cursor; i < c.log.size() && n < kMaxIov; ++i) {
      Record& r = c.log[i];
      if (r.skip) continue;
      const std::size_t off = i == c.cursor ? c.cursor_off : 0;
      iov[n].iov_base = r.wire.data() + off;
      iov[n].iov_len = r.wire.size() - off;
      ++n;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = n;
    const ssize_t w = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
    ++stats_.syscalls;
    if (w > 0) {
      advance_cursor(c, static_cast<std::size_t>(w));
      stats_.bytes_sent += static_cast<std::uint64_t>(w);
      if (static_cast<std::uint64_t>(w) > stats_.bytes_per_write)
        stats_.bytes_per_write = static_cast<std::uint64_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    const std::string why = "send: " + std::string(strerror(errno));
    if (recoverable(c)) {
      enter_reconnect(c, why);
    } else {
      c.closed = true;
      c.close_reason = why;
    }
    break;
  }
  trim_log(c);
}

Status StreamSocketTransport::send(int peer, Frame& f) {
  Conn* c = conn_of(peer);
  if (c == nullptr)
    return Error::make(kProtocol, "send to unknown node " +
                                      std::to_string(peer));
  if (session_.reconnect_max_attempts > 0) service_reconnects(false);
  if (c->closed)
    return Error::make(kPeerClosed,
                       "node " + std::to_string(peer) + ": " +
                           c->close_reason);
  const bool keep = recoverable(*c);
  // A downed link (redialing or mid-resume) only appends; the resume
  // writes its log onto the fresh stream.
  const bool down = c->fd < 0 || c->resuming;
  if (keep && c->kept_bytes >= kMaxReplayBytes)
    return Error::make(kQueueFull, "replay log to node " +
                                       std::to_string(peer) +
                                       " full (peer not acknowledging)");
  if (!down && tx_backlog(*c) >= kMaxOutboundBytes)
    return Error::make(kQueueFull, "outbound queue to node " +
                                       std::to_string(peer) + " full");
  // Encode straight into the record the log keeps, in a recycled buffer:
  // once the buffers cover the working set the encode allocates nothing.
  // The socket push itself is left to flush()/recv() so a burst of frames
  // shares one syscall.
  Record& r = push_record(*c);
  r.seq = ++c->tx_seq;
  r.replay = keep;
  const std::size_t warmed = r.wire.capacity();
  encode_frame_seq_to(f, r.seq, r.wire);
  if (r.wire.capacity() != warmed)
    r.wire.shrink_to_fit();  // grown by doubling: keep it near its frame
  else if (warmed != 0)
    ++stats_.encode_pool_reuse;
  c->queued_bytes += r.wire.size();
  if (keep) {
    if (c->kept_bytes == 0) c->oldest_unacked = SteadyClock::now();
    c->kept_bytes += r.wire.size();
  }
  if (!down) apply_wire_faults(*c);
  ++stats_.frames_sent;
  if (f.type == FrameType::TransferBatch)
    stats_.frames_batched += f.entries.size();
  if (!down && c->fd >= 0) {
    if (tx_backlog(*c) > stats_.send_queue_high_water)
      stats_.send_queue_high_water = tx_backlog(*c);
    if (tx_backlog(*c) >= kEagerFlushBytes) try_flush(*c);
  }
  if (c->closed)
    return Error::make(kPeerClosed,
                       "node " + std::to_string(peer) + ": " +
                           c->close_reason);
  return Status::ok_status();
}

void StreamSocketTransport::flush() {
  if (session_.reconnect_max_attempts > 0) service_reconnects(false);
  for (Conn& c : conns_) {
    if (c.fd < 0 || c.resuming) continue;
    release_delayed(c, true);  // a delayed tail never strands past a flush
    try_flush(c);
  }
}

bool StreamSocketTransport::sever(int peer) {
  Conn* c = conn_of(peer);
  if (c == nullptr) return false;
  if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  if (recoverable(*c)) {
    if (!c->waiting) enter_reconnect(*c, "connection severed");
  } else {
    c->closed = true;
    c->rx_eof = true;
    if (c->close_reason.empty()) c->close_reason = "connection severed";
  }
  return true;
}

void StreamSocketTransport::set_wire_faults(int peer, FaultPlan plan) {
  Conn* c = conn_of(peer);
  if (c == nullptr) return;
  c->wire_faults = std::move(plan);
  c->wire_index = 0;
}

bool StreamSocketTransport::any_pending() const noexcept {
  for (const Conn& c : conns_)
    if (c.pending_pos < c.pending_rx.size()) return true;
  return false;
}

MailboxTransport::RecvOutcome StreamSocketTransport::recv(int* from,
                                                          Frame* out,
                                                          int timeout_ms,
                                                          std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    service_reconnects(true);
    // Frames salvaged across a reconnect outrank everything on the new
    // stream — they arrived first.
    for (Conn& c : conns_) {
      if (c.pending_pos >= c.pending_rx.size()) continue;
      *out = std::move(c.pending_rx[c.pending_pos++]);
      if (c.pending_pos == c.pending_rx.size()) {
        c.pending_rx.clear();
        c.pending_pos = 0;
      }
      if (out->type == FrameType::Bye) c.peer_departed = true;
      if (from != nullptr) *from = c.node;
      ++stats_.frames_received;
      return RecvOutcome::kFrame;
    }
    // Serve buffered frames, round-robin so one peer cannot starve the
    // rest; also flush pending writes opportunistically.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[(rr_ + 1 + i) % conns_.size()];
      if (tx_backlog(c) > 0) try_flush(c);
      for (;;) {
        std::string why;
        const auto r = c.rx.next(out, &why);
        if (r == FrameReassembler::Next::kNeedMore) break;
        if (r == FrameReassembler::Next::kError) {
          // The framing is gone — replay cannot reconstruct a stream whose
          // byte discipline broke; this is a bug or a hostile peer.
          permanent_close(c, why);
          break;
        }
        const std::uint64_t seq = c.rx.last_seq();
        if (seq == 0) {  // session-control frame, consumed here
          on_control(c, *out, /*allow_resume=*/true);
          if (c.fd < 0 || dead(c)) break;
          continue;
        }
        if (seq <= c.rx_seq) {  // replayed record we already delivered
          ++stats_.dup_frames_dropped;
          continue;
        }
        if (seq != c.rx_seq + 1) {
          // Records vanished from the stream (wire-level loss): recover
          // them through reconnect + replay.
          enter_reconnect(c, "sequence gap: expected " +
                                 std::to_string(c.rx_seq + 1) + ", got " +
                                 std::to_string(seq));
          break;
        }
        c.rx_seq = seq;
        ++c.rx_since_ack;
        if (out->type == FrameType::Bye) c.peer_departed = true;
        if (out->type == FrameType::Bye && session_.reconnect_max_attempts > 0 &&
            !c.closed && recoverable(c)) {
          // A parting Bye is acknowledged at once: the leaver's teardown
          // lingers only until its log drains, and the throttled idle ack
          // would make every graceful exit pay the throttle interval.
          Frame ack;
          ack.type = FrameType::SessionAck;
          ack.recv = c.rx_seq;
          queue_control(c, ack);
          c.rx_since_ack = 0;
          c.last_ack = SteadyClock::now();
          try_flush(c);
        } else {
          maybe_ack(c, /*idle=*/false);
        }
        if (from != nullptr) *from = c.node;
        rr_ = (rr_ + 1 + i) % conns_.size();
        ++stats_.frames_received;
        return RecvOutcome::kFrame;
      }
    }
    // Report deaths (once per connection) — but only after the inbound half
    // is exhausted too: a send failure alone may still have the peer's
    // parting frames (its Bye) in the kernel buffer, and dropping them
    // would misclassify a graceful leave as a death.
    for (Conn& c : conns_) {
      if (c.closed && c.rx_eof && !c.close_reported) {
        c.close_reported = true;
        if (from != nullptr) *from = c.node;
        if (error != nullptr)
          *error = "node " + std::to_string(c.node) + ": " +
                   (c.close_reason.empty() ? "connection closed"
                                           : c.close_reason);
        return RecvOutcome::kClosed;
      }
    }
    // Pump the sockets. A conn stays pumpable until BOTH halves are done:
    // a send-side failure still reads (draining the peer's parting frames),
    // a receive-side EOF still flushes what we owe the peer. Downed conns
    // (fd < 0) count as live — they are being recovered.
    const auto drain_fd = [this](Conn& c) {
      std::uint8_t chunk[65536];
      bool got = false;
      for (;;) {
        const ssize_t r = ::read(c.fd, chunk, sizeof chunk);
        ++stats_.syscalls;
        if (r > 0) {
          stats_.bytes_received += static_cast<std::uint64_t>(r);
          c.rx.feed(ByteSpan{chunk, static_cast<std::size_t>(r)});
          got = true;
          if (r < static_cast<ssize_t>(sizeof chunk)) break;
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        const std::string why = r == 0
                                    ? "connection closed"
                                    : "read: " + std::string(strerror(errno));
        if (recoverable(c)) {
          enter_reconnect(c, why);
        } else {
          c.closed = true;
          c.rx_eof = true;
          if (c.close_reason.empty()) c.close_reason = why;
        }
        break;
      }
      return got;
    };
    std::size_t live = 0;
    for (const Conn& c : conns_)
      if (!dead(c)) ++live;
    if (live == 0) return RecvOutcome::kIdle;
    // Idle acknowledgements: small exchanges must prune the peer's log
    // too, not only kAckIntervalFrames-sized bursts.
    for (Conn& c : conns_) maybe_ack(c, /*idle=*/true);
    const auto now = std::chrono::steady_clock::now();
    // Round the remaining budget UP: truncating would turn a sub-millisecond
    // remainder into poll(0) and end every wait up to 1 ms early.
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
    const int budget_wait = timeout_ms <= 0 ? 0
                            : left.count() > 0 ? static_cast<int>(left.count())
                                               : 0;
    // Recovery deadlines bound the sleep: a due redial, an expiring wait
    // budget or a retransmission timeout must fire on time.
    int wait = budget_wait;
    if (session_.reconnect_max_attempts > 0) {
      const auto until = [&now](SteadyClock::time_point tp) {
        const auto d =
            std::chrono::duration_cast<std::chrono::milliseconds>(tp - now)
                .count();
        return d < 0 ? 0 : static_cast<int>(std::min<long long>(d, 3600000));
      };
      for (const Conn& c : conns_) {
        if (dead(c)) continue;
        if (c.waiting) {
          wait = std::min(wait, until(c.give_up));
          if (c.node < self_node_) wait = std::min(wait, until(c.next_attempt));
        } else if (c.resuming) {
          wait = std::min(wait, until(c.give_up));
        } else if (c.fd >= 0 && !c.closed && c.kept_bytes > 0 &&
                   session_.resend_timeout_ms > 0 && recoverable(c)) {
          wait = std::min(
              wait, until(c.oldest_unacked + std::chrono::milliseconds(
                                                 session_.resend_timeout_ms)));
        }
      }
    }
    std::size_t n = 0;
    for (Conn& c : conns_) {
      if (dead(c) || c.fd < 0) continue;
      pfds_[n].fd = c.fd;
      pfds_[n].events = static_cast<short>(
          (c.rx_eof ? 0 : POLLIN) |
          (!c.closed && tx_backlog(c) > 0 ? POLLOUT : 0));
      pfds_[n].revents = 0;
      ++n;
    }
    std::size_t listener_at = SIZE_MAX;
    if (listener_fd_ >= 0 && session_.reconnect_max_attempts > 0) {
      pfds_[n].fd = listener_fd_;
      pfds_[n].events = POLLIN;
      pfds_[n].revents = 0;
      listener_at = n;
      ++n;
    }
    const int ready = ::poll(pfds_.data(), n, wait);
    bool got_bytes = false;
    if (ready > 0) {
      std::size_t k = 0;
      for (Conn& c : conns_) {
        if (dead(c) || c.fd < 0) continue;
        const short rev = pfds_[k++].revents;
        if ((rev & POLLOUT) && c.fd >= 0) try_flush(c);
        if (c.fd >= 0 && !c.rx_eof && (rev & (POLLIN | POLLHUP | POLLERR)) &&
            drain_fd(c))
          got_bytes = true;
      }
      if (listener_at != SIZE_MAX && (pfds_[listener_at].revents & POLLIN)) {
        accept_pending();
        got_bytes = true;  // a resume may have queued salvage/replay work
      }
    }
    if (!got_bytes && budget_wait <= 0 && timeout_ms >= 0) {
      // One poll pass exhausted the budget (or this was a pure poll).
      if (any_pending()) continue;
      bool death_pending = false;
      for (const Conn& c : conns_)
        if (c.closed && c.rx_eof && !c.close_reported) death_pending = true;
      if (!death_pending) return RecvOutcome::kIdle;
    }
  }
}

}  // namespace mcam::estelle
