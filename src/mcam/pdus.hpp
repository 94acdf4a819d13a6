// MCAM protocol data units.
//
// "All MCAM PDUs are specified in ASN.1 ... used to generate C++ data
// structures and to create encoding and decoding routines automatically"
// (§4.2, [9]). This header is the equivalent of that generated code: one C++
// struct per PDU, a variant over all of them, and BER encode/decode built on
// src/asn1's direct codec (asn1/direct.hpp), which writes and reads the wire
// octets without building a Value tree. On the wire every PDU is
//
//   [APPLICATION op] IMPLICIT SEQUENCE { ...fields... }
//
// with `op` the operation tag below. Operation semantics follow the MCAM
// service of [19]: access (create/delete/select), management (query/modify
// attributes), control (play/record), association management, equipment
// control and stream positioning.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "asn1/value.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "directory/directory.hpp"

namespace mcam::core {

using common::Bytes;

/// Application-class tag of each PDU.
enum class Op : std::uint32_t {
  AssociateReq = 1,
  AssociateResp = 2,
  ReleaseReq = 3,
  ReleaseResp = 4,
  MovieCreateReq = 5,
  MovieCreateResp = 6,
  MovieDeleteReq = 7,
  MovieDeleteResp = 8,
  MovieSelectReq = 9,
  MovieSelectResp = 10,
  AttrQueryReq = 11,
  AttrQueryResp = 12,
  AttrModifyReq = 13,
  AttrModifyResp = 14,
  PlayReq = 15,
  PlayResp = 16,
  StopReq = 17,
  StopResp = 18,
  PauseReq = 19,
  PauseResp = 20,
  ResumeReq = 21,
  ResumeResp = 22,
  RecordReq = 23,
  RecordResp = 24,
  RecordStopReq = 25,
  RecordStopResp = 26,
  EquipListReq = 27,
  EquipListResp = 28,
  EquipControlReq = 29,
  EquipControlResp = 30,
  MovieSearchReq = 31,   // X.500-style filter search over the wire
  MovieSearchResp = 32,
  PositionInd = 14001,  // high-tag-number form exercised deliberately
  ErrorResp = 14002,
};

[[nodiscard]] const char* op_name(Op op) noexcept;

/// Result codes carried in every response PDU.
enum class ResultCode : int {
  Success = 0,
  NoSuchMovie = 1,
  DuplicateMovie = 2,
  NotSelected = 3,
  AccessDenied = 4,
  BadAttribute = 5,
  NoSuchEquipment = 6,
  EquipmentBusy = 7,
  ProtocolError = 8,
  NotPlaying = 9,
  AlreadyPlaying = 10,
  NotAssociated = 11,
  InternalError = 12,
};

[[nodiscard]] const char* result_name(ResultCode rc) noexcept;

/// name=value attribute pair (movie metadata on the wire).
struct Attr {
  std::string name;
  std::string value;
  bool operator==(const Attr&) const = default;
};

// ---- association management ------------------------------------------------

struct AssociateReq {
  std::string user;
  int version = 1;
  bool operator==(const AssociateReq&) const = default;
};
struct AssociateResp {
  ResultCode result = ResultCode::Success;
  std::string diagnostic;
  bool operator==(const AssociateResp&) const = default;
};
struct ReleaseReq {
  bool operator==(const ReleaseReq&) const = default;
};
struct ReleaseResp {
  bool operator==(const ReleaseResp&) const = default;
};

// ---- movie access (create / delete / select) -------------------------------

struct MovieCreateReq {
  std::string title;
  std::vector<Attr> attrs;
  bool operator==(const MovieCreateReq&) const = default;
};
struct MovieCreateResp {
  ResultCode result = ResultCode::Success;
  std::uint64_t movie_id = 0;
  bool operator==(const MovieCreateResp&) const = default;
};
struct MovieDeleteReq {
  std::uint64_t movie_id = 0;
  bool operator==(const MovieDeleteReq&) const = default;
};
struct MovieDeleteResp {
  ResultCode result = ResultCode::Success;
  bool operator==(const MovieDeleteResp&) const = default;
};
struct MovieSelectReq {
  std::string title;  // resolved through the movie directory
  bool operator==(const MovieSelectReq&) const = default;
};
struct MovieSelectResp {
  ResultCode result = ResultCode::Success;
  std::uint64_t movie_id = 0;
  std::vector<Attr> attrs;
  bool operator==(const MovieSelectResp&) const = default;
};

// ---- movie management (attributes) -----------------------------------------

struct AttrQueryReq {
  std::uint64_t movie_id = 0;
  std::vector<std::string> names;  // empty ⇒ all attributes
  bool operator==(const AttrQueryReq&) const = default;
};
struct AttrQueryResp {
  ResultCode result = ResultCode::Success;
  std::vector<Attr> attrs;
  bool operator==(const AttrQueryResp&) const = default;
};
struct AttrModifyReq {
  std::uint64_t movie_id = 0;
  std::vector<Attr> attrs;
  bool operator==(const AttrModifyReq&) const = default;
};
struct AttrModifyResp {
  ResultCode result = ResultCode::Success;
  bool operator==(const AttrModifyResp&) const = default;
};

// ---- movie control (playback / recording) ----------------------------------

struct PlayReq {
  std::uint64_t movie_id = 0;
  std::uint64_t start_frame = 0;
  std::string dest_host;  // client's SUA address for the CM stream
  std::uint16_t dest_port = 0;
  /// §6 QoS extension (OPTIONAL on the wire, 0 = unspecified): requested
  /// bounds the server validates before admitting the stream.
  std::uint32_t qos_max_delay_ms = 0;
  std::uint32_t qos_max_jitter_ms = 0;
  bool operator==(const PlayReq&) const = default;
};
struct PlayResp {
  ResultCode result = ResultCode::Success;
  std::uint16_t stream_id = 0;
  bool operator==(const PlayResp&) const = default;
};
struct StopReq {
  std::uint64_t movie_id = 0;
  bool operator==(const StopReq&) const = default;
};
struct StopResp {
  ResultCode result = ResultCode::Success;
  std::uint64_t position = 0;  // frame reached at stop time
  bool operator==(const StopResp&) const = default;
};
struct PauseReq {
  std::uint64_t movie_id = 0;
  bool operator==(const PauseReq&) const = default;
};
struct PauseResp {
  ResultCode result = ResultCode::Success;
  bool operator==(const PauseResp&) const = default;
};
struct ResumeReq {
  std::uint64_t movie_id = 0;
  bool operator==(const ResumeReq&) const = default;
};
struct ResumeResp {
  ResultCode result = ResultCode::Success;
  bool operator==(const ResumeResp&) const = default;
};
struct RecordReq {
  std::string title;
  std::uint32_t equipment_id = 0;  // recording source (camera/microphone)
  std::vector<Attr> attrs;
  bool operator==(const RecordReq&) const = default;
};
struct RecordResp {
  ResultCode result = ResultCode::Success;
  std::uint64_t movie_id = 0;
  bool operator==(const RecordResp&) const = default;
};
struct RecordStopReq {
  std::uint64_t movie_id = 0;
  bool operator==(const RecordStopReq&) const = default;
};
struct RecordStopResp {
  ResultCode result = ResultCode::Success;
  std::uint64_t frames = 0;
  bool operator==(const RecordStopResp&) const = default;
};

// ---- equipment control -------------------------------------------------------

struct EquipListReq {
  int kind = -1;  // -1 ⇒ all kinds; else equipment::Kind value
  bool operator==(const EquipListReq&) const = default;
};
struct EquipItem {
  std::uint32_t id = 0;
  int kind = 0;
  std::string name;
  bool powered = false;
  std::string reserved_by;
  bool operator==(const EquipItem&) const = default;
};
struct EquipListResp {
  ResultCode result = ResultCode::Success;
  std::vector<EquipItem> items;
  bool operator==(const EquipListResp&) const = default;
};
struct EquipControlReq {
  std::uint32_t equipment_id = 0;
  int command = 0;  // equipment::Command value
  std::string param;
  int value = 0;
  bool operator==(const EquipControlReq&) const = default;
};
struct EquipControlResp {
  ResultCode result = ResultCode::Success;
  bool powered = false;
  int value = 0;
  std::string reserved_by;
  bool operator==(const EquipControlResp&) const = default;
};

// ---- directory search --------------------------------------------------------

struct MovieSearchReq {
  /// On the wire a CHOICE via context tags: [0] and, [1] or, [2] not,
  /// [3] equality, [4] substring, [5] present, [6] all.
  directory::Filter filter;
  bool chained = true;  // consult peer DSAs (X.500 chained operation)
  bool operator==(const MovieSearchReq&) const = default;
};
struct SearchHit {
  std::uint64_t movie_id = 0;
  std::vector<Attr> attrs;
  bool operator==(const SearchHit&) const = default;
};
struct MovieSearchResp {
  ResultCode result = ResultCode::Success;
  std::vector<SearchHit> hits;
  bool operator==(const MovieSearchResp&) const = default;
};

// ---- notifications / errors --------------------------------------------------

struct PositionInd {
  std::uint64_t movie_id = 0;
  std::uint64_t frame = 0;
  bool operator==(const PositionInd&) const = default;
};
struct ErrorResp {
  ResultCode result = ResultCode::ProtocolError;
  std::string diagnostic;
  bool operator==(const ErrorResp&) const = default;
};

using Pdu = std::variant<
    AssociateReq, AssociateResp, ReleaseReq, ReleaseResp, MovieCreateReq,
    MovieCreateResp, MovieDeleteReq, MovieDeleteResp, MovieSelectReq,
    MovieSelectResp, AttrQueryReq, AttrQueryResp, AttrModifyReq,
    AttrModifyResp, PlayReq, PlayResp, StopReq, StopResp, PauseReq, PauseResp,
    ResumeReq, ResumeResp, RecordReq, RecordResp, RecordStopReq,
    RecordStopResp, EquipListReq, EquipListResp, EquipControlReq,
    EquipControlResp, MovieSearchReq, MovieSearchResp, PositionInd,
    ErrorResp>;

/// Operation tag of a PDU value.
[[nodiscard]] Op op_of(const Pdu& pdu) noexcept;

/// Encode to BER (the generated "encoding routine").
[[nodiscard]] Bytes encode(const Pdu& pdu);

/// Decode from BER. Unknown tags and malformed bodies yield errors, never
/// exceptions: peer input is untrusted.
[[nodiscard]] common::Result<Pdu> decode(common::ByteSpan raw);

/// The same field extraction as decode(), run over an already-decoded value
/// tree: one template, two node types. decode(raw) and
/// pdu_from_value(asn1::decode(raw)) agree on every input (the codec
/// differential test holds them to it).
[[nodiscard]] common::Result<Pdu> pdu_from_value(const asn1::Value& v);

/// Cheap operation peek: validates the PDU as decode() does, then reads
/// only the outer tag.
[[nodiscard]] common::Result<Op> peek_op(common::ByteSpan raw);

enum McamCodecError : int {
  kUnknownOp = 6001,
  kBadPduBody = 6002,
  kBadFilter = 6003,
};

}  // namespace mcam::core
