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
//
// Buffers: on P-DATA the entity prepends the TD header in place on the SDU
// it was handed (moved from the MCA or ACSE) and moves it down; on the way
// up it strips every PPDU in place to its user data and moves that up.
// Release user data passes through untouched, moved.
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

/// Octets of the longest TD header: four TLV headers of at most six octets
/// (user data under 4 GiB, the SPDU's limit), one holding an INTEGER of at
/// most four content octets.
inline constexpr std::size_t kTdMaxHeader = 24;

// PPDU codec helpers (exposed for tests and the hand-coded ISODE stack).
common::Bytes build_cp(int context_id, const common::Bytes& user_data);
common::Bytes build_cpa(int context_id, const common::Bytes& user_data);
common::Bytes build_cpr(int reason, const common::Bytes& user_data);
/// The copying wrapper of prepend_td: the same header writer.
common::Bytes build_td(int context_id, const common::Bytes& user_data);
/// Turn `user_data` into build_td(context_id, user_data) in place. Does not
/// reallocate when it has kTdMaxHeader octets of spare capacity.
void prepend_td(int context_id, common::Bytes& user_data);

struct PpduView {
  enum class Type { CP, CPA, CPR, TD } type;
  int context_id = 0;
  int reason = 0;
  common::Bytes user_data;
};
/// Decode any of the four PPDUs. The outer wrapper distinguishes them with
/// a context tag: [1] CP, [2] CPA, [3] CPR, [4] TD. A CP, CPA or CPR
/// without a one-field [0], or a TD with fewer than two fields, carries
/// empty user data; so does a constructed user-data field (a primitive one
/// of any tag carries its content octets).
common::Result<PpduView> parse_ppdu(const common::Bytes& raw);
/// parse_ppdu in place: on success `ppdu` holds the user data parse_ppdu
/// would return (the result's user_data stays empty); on error `ppdu` is
/// left as it was. parse_ppdu is its copying wrapper: one field reader.
common::Result<PpduView> strip_ppdu(common::Bytes& ppdu);
/// parse_ppdu's field extraction over a decoded value tree (the reference
/// the direct reader is tested against).
common::Result<PpduView> ppdu_from_value(const asn1::Value& v);

}  // namespace mcam::osi
