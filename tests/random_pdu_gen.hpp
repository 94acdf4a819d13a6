// Seeded random MCAM PDUs, shared by the PDU round-trip property
// (mcam_pdus_test) and the codec differential (codec_differential_test):
// one seed, one PDU sequence, bit-identical across rebuilds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mcam/pdus.hpp"

namespace mcam::core {

inline std::string random_name(common::Rng& rng) {
  std::string s;
  const std::size_t n = rng.below(12);
  for (std::size_t i = 0; i < n; ++i)
    s.push_back(static_cast<char>('a' + rng.below(26)));
  return s;
}

inline std::vector<Attr> random_attrs(common::Rng& rng) {
  std::vector<Attr> attrs;
  const std::size_t n = rng.below(5);
  for (std::size_t i = 0; i < n; ++i)
    attrs.push_back(Attr{random_name(rng), random_name(rng)});
  return attrs;
}

inline Pdu random_pdu(common::Rng& rng) {
  switch (rng.below(12)) {
    case 0:
      return AssociateReq{random_name(rng), 1};
    case 1:
      return MovieCreateReq{random_name(rng), random_attrs(rng)};
    case 2:
      return MovieSelectResp{static_cast<ResultCode>(rng.below(13)), rng(),
                             random_attrs(rng)};
    case 3:
      return AttrQueryReq{rng(), {random_name(rng), random_name(rng)}};
    case 4:
      return AttrModifyReq{rng(), random_attrs(rng)};
    case 5:
      return PlayReq{rng(), rng(), random_name(rng),
                     static_cast<std::uint16_t>(rng.below(65536))};
    case 6:
      return StopResp{static_cast<ResultCode>(rng.below(13)), rng()};
    case 7:
      return RecordReq{random_name(rng),
                       static_cast<std::uint32_t>(rng.below(100)),
                       random_attrs(rng)};
    case 8: {
      EquipListResp resp;
      resp.result = static_cast<ResultCode>(rng.below(13));
      const std::size_t n = rng.below(4);
      for (std::size_t i = 0; i < n; ++i)
        resp.items.push_back(EquipItem{
            static_cast<std::uint32_t>(rng.below(100)),
            static_cast<int>(rng.below(4)), random_name(rng),
            rng.chance(0.5), random_name(rng)});
      return resp;
    }
    case 9:
      return PositionInd{rng(), rng()};
    case 10:
      return EquipControlReq{static_cast<std::uint32_t>(rng.below(100)),
                             static_cast<int>(rng.below(6)),
                             random_name(rng), static_cast<int>(rng.below(101))};
    default:
      return ErrorResp{static_cast<ResultCode>(rng.below(13)),
                       random_name(rng)};
  }
}

}  // namespace mcam::core
