// Session layer: ISO 8327 kernel functional unit as an Estelle module.
//
// The paper generates the session layer from an Estelle specification
// supplied by the University of Bern (§4.1 fn.2). This module implements the
// kernel subset the experiments exercise: connection establishment
// (CN/AC/RF), transparent data transfer (DT), orderly release (FN/DN) and
// user abort (AB), over the transport service of transport.hpp.
//
// SPDU format (simplified ISO 8327 encoding):
//   [ si:1 ][ length:2 ][ user-information... ]
// where si is the SPDU identifier octet from the standard. User information
// of 65,535 octets or more (up to 2^32 - 1) takes a long form: the two
// length octets read FF FF and a 4-octet length follows,
//   [ si:1 ][ FF FF ][ length:4 ][ user-information... ]
// Every shorter SPDU keeps the 3-octet header.
//
// Buffers: the entity prepends the SPDU header in place on the SSDU it was
// handed (moved from the presentation entity) and moves the SPDU down; on
// the way up it strips the header in place and moves the user data up.
#pragma once

#include "common/result.hpp"
#include "estelle/module.hpp"
#include "osi/service.hpp"

namespace mcam::osi {

/// SPDU identifier octets (ISO 8327 §8).
enum class Spdu : std::uint8_t {
  CN = 13,  // CONNECT
  AC = 14,  // ACCEPT
  RF = 12,  // REFUSE
  DT = 1,   // DATA TRANSFER
  FN = 9,   // FINISH
  DN = 10,  // DISCONNECT
  AB = 25,  // ABORT
};

class SessionModule : public estelle::Module {
 public:
  enum State {
    kIdle = 0,
    kWaitTCon,   // initiator: transport connect pending
    kWaitAC,     // initiator: CN sent, waiting AC/RF
    kConnInd,    // responder: CN delivered up, waiting S-CON response
    kOpen,
    kRelSent,    // FN sent, waiting DN
    kRelInd,     // FN delivered up, waiting S-REL response
  };

  struct Config {
    common::SimTime per_spdu_cost = common::SimTime::from_us(40);
  };

  explicit SessionModule(std::string name);
  SessionModule(std::string name, Config cfg);

  /// Upper interface (SS user = presentation): kinds SsKind.
  estelle::InteractionPoint& upper() { return upper_; }
  /// Lower interface: connect to TransportModule::upper().
  estelle::InteractionPoint& lower() { return lower_; }

  [[nodiscard]] std::uint64_t spdus_sent() const noexcept { return sent_; }

 private:
  void define_transitions();
  void send_spdu(Spdu type, common::Bytes user_data);

  estelle::InteractionPoint& upper_;
  estelle::InteractionPoint& lower_;
  Config cfg_;
  std::uint64_t sent_ = 0;
  common::Bytes pending_connect_;  // user data held until transport is up
};

/// Octets of the longest SPDU header (the long form).
inline constexpr std::size_t kSpduMaxHeader = 7;

/// SPDU codec. The in-place pair (prepend_spdu, strip_spdu) is what the
/// entity runs; build_spdu and parse_spdu are copying wrappers over the
/// same header writer and reader.
common::Bytes build_spdu(Spdu type, const common::Bytes& user_data);
struct SpduView {
  Spdu type;
  common::Bytes user_data;
};
/// Decode an SPDU (either length form). Input shorter than the header, or
/// than the user data its length field announces, is an error, never an
/// exception: the bytes come from the peer. Octets after the announced user
/// data are ignored.
common::Result<SpduView> parse_spdu(const common::Bytes& raw);
/// Turn `user_data` into build_spdu(type, user_data) in place. Does not
/// reallocate when it has kSpduMaxHeader octets of spare capacity.
void prepend_spdu(Spdu type, common::Bytes& user_data);
/// Check the SPDU in `spdu` as parse_spdu does and strip it in place to the
/// user data parse_spdu would return; returns its type. On error `spdu` is
/// left as it was.
common::Result<Spdu> strip_spdu(common::Bytes& spdu);

}  // namespace mcam::osi
