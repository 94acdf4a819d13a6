// The codec differential's fixed corpus: one MCAM PDU per operation (with
// the edges the encoder must get right: negative and full-width integers,
// empty strings and lists, long-form lengths, the high-tag-number form, the
// OPTIONAL QoS fields, a nested filter), and every presentation PPDU and
// ACSE APDU. codec_differential_test pins each one's encoding to a golden
// hex vector.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "mcam/pdus.hpp"
#include "osi/acse.hpp"
#include "osi/presentation.hpp"

namespace mcam::codec_corpus {

using core::Attr;
using core::Pdu;
using core::ResultCode;
using directory::Filter;

inline std::vector<Attr> ten_attrs() {
  std::vector<Attr> attrs;
  for (const char* name :
       {"title", "format", "fps", "duration", "frames", "rights", "owner",
        "location-host", "location-path", "created"})
    attrs.push_back(Attr{name, std::string(name) + "-value"});
  return attrs;
}

inline std::vector<std::pair<std::string, Pdu>> pdus() {
  constexpr std::uint64_t kTopBit = 0x8000000000000001ull;
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return {
      {"AssociateReq", core::AssociateReq{"alice", 1}},
      {"AssociateResp", core::AssociateResp{ResultCode::AccessDenied,
                                            std::string(300, 'd')}},
      {"ReleaseReq", core::ReleaseReq{}},
      {"ReleaseResp", core::ReleaseResp{}},
      {"MovieCreateReq",
       core::MovieCreateReq{"casablanca",
                            {{"format", "mjpeg"}, {"fps", "25.000"}}}},
      {"MovieCreateResp", core::MovieCreateResp{ResultCode::Success, kTopBit}},
      {"MovieDeleteReq", core::MovieDeleteReq{42}},
      {"MovieDeleteResp", core::MovieDeleteResp{ResultCode::NoSuchMovie}},
      {"MovieSelectReq", core::MovieSelectReq{""}},
      {"MovieSelectResp",
       core::MovieSelectResp{ResultCode::Success, 7, ten_attrs()}},
      {"AttrQueryReq", core::AttrQueryReq{7, {"fps", "format"}}},
      {"AttrQueryReq-all", core::AttrQueryReq{7, {}}},
      {"AttrQueryResp", core::AttrQueryResp{ResultCode::Success, ten_attrs()}},
      {"AttrModifyReq", core::AttrModifyReq{127, {{"rights", "public"}}}},
      {"AttrModifyResp", core::AttrModifyResp{ResultCode::AccessDenied}},
      {"PlayReq", core::PlayReq{7, 100, "client1", 7000, 0, 0}},
      {"PlayReq-qos", core::PlayReq{128, 0, "client2", 65535, 40, 5}},
      {"PlayResp", core::PlayResp{ResultCode::Success, 65535}},
      {"StopReq", core::StopReq{128}},
      {"StopResp", core::StopResp{ResultCode::Success, 1499}},
      {"PauseReq", core::PauseReq{255}},
      {"PauseResp", core::PauseResp{ResultCode::NotPlaying}},
      {"ResumeReq", core::ResumeReq{256}},
      {"ResumeResp", core::ResumeResp{ResultCode::Success}},
      {"RecordReq", core::RecordReq{"lecture", 2, {{"fps", "25"}}}},
      {"RecordResp", core::RecordResp{ResultCode::Success, 99}},
      {"RecordStopReq", core::RecordStopReq{99}},
      {"RecordStopResp", core::RecordStopResp{ResultCode::Success, kMax}},
      {"EquipListReq", core::EquipListReq{-1}},
      {"EquipListResp",
       core::EquipListResp{ResultCode::Success,
                           {{1, 0, "studio-cam", true, "alice"},
                            {2, 2, "speaker", false, ""}}}},
      {"EquipControlReq", core::EquipControlReq{1, 2, "volume", -80}},
      {"EquipControlResp",
       core::EquipControlResp{ResultCode::Success, true, 80, "alice"}},
      {"MovieSearchReq",
       core::MovieSearchReq{
           Filter::and_({Filter::substring("title", "news"),
                         Filter::not_(Filter::equal("format", "mjpeg")),
                         Filter::or_({Filter::present("fps"), Filter::all()})}),
           false}},
      {"MovieSearchResp",
       core::MovieSearchResp{ResultCode::Success,
                             {{1, {{"title", "a"}}}, {kTopBit, {}}}}},
      {"PositionInd", core::PositionInd{7, 1234}},
      {"ErrorResp", core::ErrorResp{ResultCode::ProtocolError, "bad"}},
  };
}

/// Every PPDU and APDU, by the builders the stacks call.
inline std::vector<std::pair<std::string, common::Bytes>> osi_pdus() {
  const common::Bytes assoc = core::encode(Pdu{core::AssociateReq{"bob", 1}});
  const common::Bytes small = common::to_bytes("user-data");
  common::Bytes big(300);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 7);
  const std::vector<std::uint32_t> wide_context = {1, 3, 9999, 2, 300, 0};
  return {
      {"CP", osi::build_cp(1, assoc)},
      {"CP-empty", osi::build_cp(1, {})},
      {"CPA", osi::build_cpa(1, small)},
      {"CPA-big", osi::build_cpa(200, big)},
      {"CPR", osi::build_cpr(2, small)},
      {"TD", osi::build_td(1, small)},
      {"TD-big", osi::build_td(-3, big)},
      {"TD-empty", osi::build_td(1, {})},
      {"AARQ", osi::build_aarq(osi::oids::kMcamApplicationContext, assoc)},
      {"AARQ-wide", osi::build_aarq(wide_context, big)},
      {"AARE", osi::build_aare(osi::AcseResult::Accepted,
                               osi::oids::kMcamApplicationContext, small)},
      {"AARE-mismatch",
       osi::build_aare(osi::AcseResult::RejectedContextMismatch,
                       osi::oids::kMcamApplicationContext, {})},
      {"RLRQ", osi::build_rlrq(0, small)},
      {"RLRE", osi::build_rlre(1, {})},
      {"ABRT", osi::build_abrt(0)},
      {"ABRT-provider", osi::build_abrt(1)},
  };
}

}  // namespace mcam::codec_corpus
