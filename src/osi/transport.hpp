// Transport layer: a connection-mode transport entity as an Estelle module.
//
// The paper runs the generated presentation/session stacks over "a simulated
// transport layer pipe" (§5.1) and over ISODE's TP on the real system. This
// module provides the TS primitives of service.hpp over a possibly-lossy
// Estelle channel, using go-back-N ARQ (sequence numbers, cumulative acks,
// retransmission timer), so the layers above always see a reliable,
// in-order pipe — the Table 1 control-path properties.
//
// TPDU format (big-endian):
//   [ type:1 ][ seq:4 ][ payload... ]
//
// Buffers: a TS-DATA request's SDU is moved into the send queue; when it
// enters the window its DT header is prepended in place and the entity
// keeps that TPDU for go-back-N until it is acked. Each DT sent (first
// transmission or retransmission) is a copy of it, the one copy an SDU
// takes on its way through the stack. A DT received has its header
// stripped in place and its payload moved up.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "common/ring.hpp"
#include "estelle/module.hpp"
#include "osi/service.hpp"

namespace mcam::osi {

using estelle::Interaction;
using estelle::InteractionPoint;
using estelle::Module;

/// TPDU type octets.
enum class Tpdu : std::uint8_t {
  CR = 0xe0,  // connection request
  CC = 0xd0,  // connection confirm
  DT = 0xf0,  // data (seq = send sequence number)
  AK = 0x60,  // ack   (seq = next expected)
  DR = 0x80,  // disconnect request
  DC = 0xc0,  // disconnect confirm
};

class TransportModule : public Module {
 public:
  /// FSM states.
  enum State { kClosed = 0, kCrSent, kOpen };

  struct Config {
    int window = 8;
    common::SimTime rto = common::SimTime::from_ms(20);
    common::SimTime per_pdu_cost = common::SimTime::from_us(30);
    int max_retransmits = 50;
  };

  explicit TransportModule(std::string name);
  TransportModule(std::string name, Config cfg);

  /// Upper interface (TS user): kinds TsKind.
  InteractionPoint& upper() { return upper_; }
  /// Network-side interface: connect to the peer TransportModule's net().
  InteractionPoint& net() { return net_; }

  // Statistics (retransmission behaviour is asserted in tests).
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t data_pdus_sent() const noexcept {
    return data_sent_;
  }

 private:
  void define_transitions();

  void send_pdu(Tpdu type, std::uint32_t seq, const common::Bytes& payload);
  void pump_window();
  void on_data(Interaction& msg);
  void on_ack(std::uint32_t next_expected);
  void retransmit_all();

  InteractionPoint& upper_;
  InteractionPoint& net_;
  Config cfg_;
  std::uint32_t next_seq_ = 0;      // next new DT sequence number
  std::uint32_t base_ = 0;          // oldest unacked
  std::uint32_t expected_ = 0;      // receive side: next in-order seq
  common::Ring<common::Bytes> unacked_;  // DT TPDUs [base_, next_seq_)
  common::Ring<common::Bytes> pending_;  // SDUs not yet in the window
  std::uint64_t retransmissions_ = 0;
  std::uint64_t data_sent_ = 0;
  int retransmit_rounds_ = 0;
};

/// Octets of the TPDU header.
inline constexpr std::size_t kTpduHeader = 5;

/// TPDU codec. The in-place pair (prepend_tpdu, strip_tpdu) is what the
/// entity runs; build_tpdu and parse_tpdu are copying wrappers over the
/// same header writer and reader.
struct TpduHeader {
  Tpdu type;
  std::uint32_t seq;
};
struct TpduView {
  Tpdu type;
  std::uint32_t seq;
  common::Bytes payload;
};
/// Decode a TPDU. Input shorter than the header is an error, never an
/// exception: the bytes come from the peer.
common::Result<TpduView> parse_tpdu(const common::Bytes& raw);
common::Bytes build_tpdu(Tpdu type, std::uint32_t seq,
                         const common::Bytes& payload);
/// Turn `sdu` into build_tpdu(type, seq, sdu) in place. Does not reallocate
/// when `sdu` has kTpduHeader octets of spare capacity.
void prepend_tpdu(Tpdu type, std::uint32_t seq, common::Bytes& sdu);
/// Read the header of the TPDU in `tpdu` and strip it in place, leaving the
/// payload parse_tpdu would return. On error `tpdu` is left as it was.
common::Result<TpduHeader> strip_tpdu(common::Bytes& tpdu);

}  // namespace mcam::osi
