// In-process datagram network with deterministic impairments.
//
// Stands in for the paper's UDP/IP/FDDI campus network (DESIGN.md §2): an
// unreliable, unordered-on-loss datagram service with configurable
// propagation latency, jitter, loss probability and link bandwidth. The
// XMovie MTP stream protocol (src/mtp) runs on top of it, exactly as the
// paper runs MTP "directly on top of UDP, IP and FDDI" (§3).
//
// Everything is driven by simulated time (common::SimTime) and a seeded RNG,
// so every experiment is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"

namespace mcam::net {

using common::Bytes;
using common::SimTime;

/// host:port endpoint address. Hosts are symbolic names ("ksr1", "client1").
struct Address {
  std::string host;
  std::uint16_t port = 0;

  auto operator<=>(const Address&) const = default;
  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// Per-link channel characteristics.
struct Impairments {
  SimTime latency = SimTime::from_us(500);  // propagation delay
  SimTime jitter{};                         // uniform [0, jitter) added delay
  double loss = 0.0;                        // drop probability per datagram
  double bandwidth_bps = 100e6;             // 0 ⇒ infinite (no serialization)
};

/// One delivered (or in-flight) datagram.
struct Datagram {
  Address src;
  Address dst;
  Bytes payload;
  SimTime sent_at{};
  SimTime delivered_at{};
};

/// Aggregate network counters (Table 1 measurements read these).
struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;

  [[nodiscard]] double delivery_ratio() const noexcept {
    return sent == 0 ? 1.0
                     : static_cast<double>(delivered) /
                           static_cast<double>(sent);
  }
};

class SimNetwork;

/// A bound datagram endpoint. Obtained from SimNetwork::open(); owned by the
/// network (stable reference for the lifetime of the network).
class Socket {
 public:
  Socket(SimNetwork& net, Address addr) : net_(net), addr_(std::move(addr)) {}

  [[nodiscard]] const Address& address() const noexcept { return addr_; }

  /// Send a datagram. Loss/delay applied by the network; returns the send
  /// timestamp.
  SimTime send(const Address& dst, Bytes payload);

  /// Pop the next delivered datagram, if any.
  std::optional<Datagram> receive();
  [[nodiscard]] std::size_t pending() const noexcept { return rx_.size(); }

 private:
  friend class SimNetwork;
  SimNetwork& net_;
  Address addr_;
  std::deque<Datagram> rx_;
};

/// The network itself: sockets, links, event queue, clock.
class SimNetwork {
 public:
  explicit SimNetwork(std::uint64_t seed = 1994,
                      Impairments default_link = {});

  /// Bind a socket; throws if the address is taken.
  Socket& open(Address addr);

  /// Configure the directed link host→host (applies to all ports).
  void set_link(const std::string& from_host, const std::string& to_host,
                Impairments imp);

  [[nodiscard]] SimTime now() const noexcept { return clock_.now(); }

  /// Deliver everything scheduled up to and including `t`; clock advances.
  void run_until(SimTime t);
  /// Deliver all in-flight datagrams.
  void run_all();
  /// Time of the next scheduled delivery (nullopt if none in flight).
  [[nodiscard]] std::optional<SimTime> next_event() const;

  [[nodiscard]] const NetStats& stats() const noexcept { return stats_; }

 private:
  friend class Socket;

  struct Pending {
    SimTime at{};
    std::uint64_t seq = 0;  // FIFO tie-break for determinism
    Datagram datagram;

    bool operator>(const Pending& o) const noexcept {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  SimTime submit(Socket& from, const Address& dst, Bytes payload);
  const Impairments& link_for(const std::string& from,
                              const std::string& to) const;

  common::SimClock clock_;
  common::Rng rng_;
  Impairments default_link_;
  std::map<std::pair<std::string, std::string>, Impairments> links_;
  std::map<std::pair<std::string, std::string>, SimTime> link_free_at_;
  std::map<Address, std::unique_ptr<Socket>> sockets_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;
  std::uint64_t next_seq_ = 0;
  NetStats stats_;
};

}  // namespace mcam::net
