// OSI service primitives (interaction kinds on inter-layer channels).
//
// The paper's control stack is MCAM over ISO presentation and session over a
// transport pipe (Fig. 2). Each layer boundary is an Estelle channel; these
// enums are the interaction names on those channels. Payload octets carry
// the next-higher layer's PDU; connect-class primitives carry user data the
// same way (e.g. the session CN SPDU transports the presentation CP PPDU).
#pragma once

namespace mcam::osi {

/// Decode errors of the byte-oriented TPDU and SPDU headers (the upper
/// layers' PDUs are BER and report asn1::Asn1Error codes).
enum OsiPduError : int {
  kShortTpdu = 8001,  // fewer octets than the TPDU header
  kShortSpdu = 8002,  // fewer octets than the SPDU header or its length field
};

/// Transport service (the "simulated transport layer pipe" of §5.1, with
/// go-back-N ARQ so the control stack sees a 100% reliable service even
/// over an impaired channel — Table 1's "error correction: yes").
enum TsKind {
  kTConReq = 100,  // user → transport: open connection
  kTConConf,       // transport → user: connection open
  kTDatReq,        // user → transport: send TSDU (payload)
  kTDatInd,        // transport → user: TSDU arrived (payload)
  kTDisReq,        // user → transport: close
  kTDisInd,        // transport → user: closed / aborted
};

/// Session service (ISO 8327 kernel subset).
enum SsKind {
  kSConReq = 200,  // payload: user data (carried in CN)
  kSConInd,
  kSConResp,       // value: accept, 1 or 0; payload: user data (AC/RF)
  kSConConf,       // payload: user data from AC
  kSConRefuse,     // connection refused (RF received)
  kSDatReq,        // payload: SSDU
  kSDatInd,
  kSRelReq,        // orderly release (FN)
  kSRelInd,
  kSRelResp,       // (DN)
  kSRelConf,
  kSAbortReq,      // U-ABORT (AB)
  kSAbortInd,
};

/// Presentation service (ISO 8823 kernel subset; PPDUs in BER).
enum PsKind {
  kPConReq = 300,  // payload: user data (carried in CP)
  kPConInd,
  kPConResp,       // value: accept, 1 or 0; payload: user data
  kPConConf,
  kPConRefuse,
  kPDatReq,        // payload: user octets of the negotiated abstract syntax
  kPDatInd,
  kPRelReq,
  kPRelInd,
  kPRelResp,
  kPRelConf,
  kPAbortReq,      // P-U-ABORT request (user-initiated abort)
  kPAbortInd,
};

}  // namespace mcam::osi
