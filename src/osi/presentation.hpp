// Presentation layer: ISO 8823 kernel as an Estelle module.
//
// Carries the MCAM abstract syntax over the session service. Connection
// establishment negotiates a presentation context (abstract syntax OID →
// transfer syntax OID); data transfer wraps user octets in a BER-encoded
// PPDU. This is the layer whose generated-vs-ISODE comparison the paper's
// experimental setup is built around (Fig. 2).
//
// PPDU abstract syntax (a faithful subset of ISO 8823):
//   CP  ::= SEQUENCE { ctx-list SEQUENCE OF SEQUENCE { id INTEGER,
//             abstract OID, transfer SEQUENCE OF OID },
//             user-data [0] OCTET STRING }
//   CPA ::= SEQUENCE { result-list SEQUENCE OF SEQUENCE { id INTEGER,
//             result ENUMERATED, transfer OID },
//             user-data [0] OCTET STRING }
//   CPR ::= SEQUENCE { reason ENUMERATED, user-data [0] OCTET STRING }
//   TD  ::= SEQUENCE { ctx-id INTEGER, data OCTET STRING }   -- P-DATA
#pragma once

#include <vector>

#include "asn1/value.hpp"
#include "estelle/module.hpp"
#include "osi/service.hpp"

namespace mcam::osi {

/// Well-known object identifiers used in context negotiation.
namespace oids {
/// MCAM abstract syntax (private arc, as a 1994 research protocol would).
inline const std::vector<std::uint32_t> kMcamAbstractSyntax = {1, 3, 9999, 1};
/// ASN.1 Basic Encoding Rules transfer syntax {joint-iso-ccitt asn1(1)
/// basic-encoding(1)}.
inline const std::vector<std::uint32_t> kBerTransferSyntax = {2, 1, 1};
}  // namespace oids

class PresentationModule : public estelle::Module {
 public:
  enum State {
    kIdle = 0,
    kWaitConf,  // CP sent (via S-CONNECT), waiting CPA/CPR
    kConnInd,   // CP delivered up, waiting P-CON response
    kOpen,
    kRelSent,
    kRelInd,
  };

  struct Config {
    common::SimTime per_ppdu_cost = common::SimTime::from_us(60);
    int context_id = 1;
  };

  explicit PresentationModule(std::string name);
  PresentationModule(std::string name, Config cfg);

  /// Upper interface (PS user = MCAM / application): kinds PsKind.
  estelle::InteractionPoint& upper() { return upper_; }
  /// Lower interface: connect to SessionModule::upper().
  estelle::InteractionPoint& lower() { return lower_; }

  /// Negotiated transfer syntax of the accepted context (empty until open).
  [[nodiscard]] const std::vector<std::uint32_t>& transfer_syntax()
      const noexcept {
    return transfer_syntax_;
  }

 private:
  void define_transitions();

  estelle::InteractionPoint& upper_;
  estelle::InteractionPoint& lower_;
  Config cfg_;
  std::vector<std::uint32_t> transfer_syntax_;
};

// PPDU codec helpers (exposed for tests and the hand-coded ISODE stack).
common::Bytes build_cp(int context_id, const common::Bytes& user_data);
common::Bytes build_cpa(int context_id, const common::Bytes& user_data);
common::Bytes build_cpr(int reason, const common::Bytes& user_data);
common::Bytes build_td(int context_id, const common::Bytes& user_data);

struct PpduView {
  enum class Type { CP, CPA, CPR, TD } type;
  int context_id = 0;
  int reason = 0;
  common::Bytes user_data;
};
/// Decode any of the four PPDUs. The outer wrapper distinguishes them with
/// a context tag: [1] CP, [2] CPA, [3] CPR, [4] TD.
common::Result<PpduView> parse_ppdu(const common::Bytes& raw);
/// parse_ppdu's field extraction over a decoded value tree (the reference
/// the direct reader is tested against).
common::Result<PpduView> ppdu_from_value(const asn1::Value& v);

}  // namespace mcam::osi
