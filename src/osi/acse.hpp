// ACSE — Association Control Service Element (X.217/X.227 subset).
//
// Fig. 3 of the paper shows ACSE between the MCA and the presentation
// interface (it ships with ISODE). This module provides it for both control
// stacks: it is *transparent* — the upper interface speaks the same
// presentation-service kinds as PresentationModule::upper(), so the MCA is
// unchanged — but connection user data is wrapped in AARQ/AARE/RLRQ/RLRE
// APDUs carrying an application-context name, and associations whose
// context does not match the responder's are refused at the ACSE level
// before the MCAM layer ever sees them.
//
// APDUs (BER):
//   AARQ ::= [APPLICATION 0] SEQUENCE { version INTEGER,
//            application-context OID, user-information [30] OCTET STRING }
//   AARE ::= [APPLICATION 1] SEQUENCE { result ENUMERATED,
//            application-context OID, user-information [30] OCTET STRING }
//   RLRQ ::= [APPLICATION 2] SEQUENCE { reason INTEGER,
//            user-information [30] OCTET STRING }
//   RLRE ::= [APPLICATION 3] SEQUENCE { reason INTEGER,
//            user-information [30] OCTET STRING }
//   ABRT ::= [APPLICATION 4] SEQUENCE { source ENUMERATED }
//
// Buffers: P-DATA passes through untouched, its payload moved in both
// directions. Connect and release user data are wrapped into (and read out
// of) an APDU, a copy made only while an association opens or closes; the
// APDU leaves write_exact with the headroom the layers below prepend into.
#pragma once

#include <vector>

#include "asn1/value.hpp"
#include "estelle/module.hpp"
#include "osi/service.hpp"

namespace mcam::osi {

namespace oids {
/// MCAM application context {1 3 9999 2}.
inline const std::vector<std::uint32_t> kMcamApplicationContext = {1, 3, 9999,
                                                                   2};
}  // namespace oids

enum class AcseResult : int {
  Accepted = 0,
  RejectedPermanent = 1,
  RejectedContextMismatch = 2,
};

struct AcseApdu {
  enum class Type { AARQ, AARE, RLRQ, RLRE, ABRT } type;
  int version = 1;
  AcseResult result = AcseResult::Accepted;
  std::vector<std::uint32_t> context;
  int reason = 0;
  common::Bytes user_information;
};

common::Bytes build_aarq(const std::vector<std::uint32_t>& context,
                         const common::Bytes& user_information);
common::Bytes build_aare(AcseResult result,
                         const std::vector<std::uint32_t>& context,
                         const common::Bytes& user_information);
common::Bytes build_rlrq(int reason, const common::Bytes& user_information);
common::Bytes build_rlre(int reason, const common::Bytes& user_information);
common::Bytes build_abrt(int source);
common::Result<AcseApdu> parse_acse(const common::Bytes& raw);
/// parse_acse's field extraction over a decoded value tree (the reference
/// the direct reader is tested against).
common::Result<AcseApdu> acse_from_value(const asn1::Value& v);

/// The ACSE protocol machine. upper(): presentation-service kinds (so an
/// MCA or another ACSE user plugs in unchanged); lower(): connect to
/// PresentationModule::upper() or IsodeInterfaceModule::upper().
class AcseModule : public estelle::Module {
 public:
  enum State { kIdle = 0, kAssocPending, kAssocInd, kOpen, kRelPending,
               kRelInd };

  struct Config {
    std::vector<std::uint32_t> context = oids::kMcamApplicationContext;
    common::SimTime per_apdu_cost = common::SimTime::from_us(50);
  };

  explicit AcseModule(std::string name);
  AcseModule(std::string name, Config cfg);

  estelle::InteractionPoint& upper() { return upper_; }
  estelle::InteractionPoint& lower() { return lower_; }

  [[nodiscard]] std::uint64_t apdus_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t context_rejections() const noexcept {
    return context_rejections_;
  }

 private:
  void define_transitions();

  estelle::InteractionPoint& upper_;
  estelle::InteractionPoint& lower_;
  Config cfg_;
  std::uint64_t sent_ = 0;
  std::uint64_t context_rejections_ = 0;
};

}  // namespace mcam::osi
