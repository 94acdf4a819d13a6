#include "osi/session.hpp"

#include <optional>

namespace mcam::osi {

using common::Bytes;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
constexpr std::size_t kSpduHeader = 3;  // si:1 length:2

/// The user-data length a well-formed SPDU announces; nullopt when `raw` is
/// shorter than its header or than its length field says.
std::optional<std::size_t> spdu_user_len(const Bytes& raw) {
  if (raw.size() < kSpduHeader) return std::nullopt;
  const std::size_t len = (static_cast<std::size_t>(raw[1]) << 8) | raw[2];
  if (len > raw.size() - kSpduHeader) return std::nullopt;
  return len;
}

/// User data of an SPDU that spdu_is() admitted.
Bytes user_data_of(const Interaction& msg) {
  auto spdu = parse_spdu(msg.payload);
  return spdu.ok() ? std::move(spdu.value().user_data) : Bytes{};
}
}  // namespace

Bytes build_spdu(Spdu type, const Bytes& user_data) {
  const auto len = static_cast<std::uint16_t>(user_data.size());
  Bytes out;
  out.reserve(kSpduHeader + user_data.size());
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  out.insert(out.end(), user_data.begin(), user_data.end());
  return out;
}

common::Result<SpduView> parse_spdu(const Bytes& raw) {
  const std::optional<std::size_t> len = spdu_user_len(raw);
  if (!len) {
    if (raw.size() < kSpduHeader)
      return common::Error::make(
          kShortSpdu, "SPDU of " + std::to_string(raw.size()) +
                          " bytes is shorter than its 3-byte header");
    return common::Error::make(
        kShortSpdu, "SPDU length field claims " +
                        std::to_string((raw[1] << 8) | raw[2]) +
                        " bytes of user data, " +
                        std::to_string(raw.size() - kSpduHeader) +
                        " present");
  }
  SpduView v;
  v.type = static_cast<Spdu>(raw[0]);
  const auto first = raw.begin() + kSpduHeader;
  v.user_data.assign(first, first + static_cast<std::ptrdiff_t>(*len));
  return v;
}

SessionModule::SessionModule(std::string name)
    : SessionModule(std::move(name), Config{}) {}

SessionModule::SessionModule(std::string name, Config cfg)
    : Module(std::move(name), estelle::Attribute::Process),
      upper_(ip("U")),
      lower_(ip("D")),
      cfg_(cfg) {
  define_transitions();
}

void SessionModule::send_spdu(Spdu type, const Bytes& user_data) {
  ++sent_;
  lower().output(Interaction(kTDatReq, build_spdu(type, user_data)));
}

void SessionModule::define_transitions() {
  auto& u = upper();
  auto& d = lower();
  const auto cost = cfg_.per_spdu_cost;

  // Helper: the SPDU at the head of the transport queue is a well-formed
  // `want`. A malformed one falls through to s-discard-lower.
  auto spdu_is = [](Spdu want) {
    return [want](Module&, const Interaction* msg) {
      return msg != nullptr && spdu_user_len(msg->payload).has_value() &&
             static_cast<Spdu>(msg->payload[0]) == want;
    };
  };

  // --- initiator side ---
  trans("s-con-req")
      .from(kIdle)
      .when(u, kSConReq)
      .to(kWaitTCon)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        pending_connect_ = msg->payload;
        lower().output(Interaction(kTConReq));
      });
  trans("s-tcon-conf")
      .from(kWaitTCon)
      .when(d, kTConConf)
      .to(kWaitAC)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_spdu(Spdu::CN, pending_connect_);
      });
  trans("s-ac-recv")
      .from(kWaitAC)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::AC))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSConConf, user_data_of(*msg)));
      });
  trans("s-rf-recv")
      .from(kWaitAC)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::RF))
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSConRefuse, user_data_of(*msg)));
        lower().output(Interaction(kTDisReq));
      });

  // --- responder side ---
  trans("s-cn-recv")
      .from(kIdle)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::CN))
      .to(kConnInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSConInd, user_data_of(*msg)));
      });
  trans("s-con-resp")
      .from(kConnInd)
      .when(u, kSConResp)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        const bool accept = msg->value.as_bool().value_or(true);
        send_spdu(accept ? Spdu::AC : Spdu::RF, msg->payload);
        m.set_state(accept ? kOpen : kIdle);
      });

  // --- data transfer ---
  trans("s-dat-req")
      .from(kOpen)
      .when(u, kSDatReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        send_spdu(Spdu::DT, msg->payload);
      });
  trans("s-dt-recv")
      .from(kOpen)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::DT))
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSDatInd, user_data_of(*msg)));
      });

  // --- orderly release (FN/DN) ---
  trans("s-rel-req")
      .from(kOpen)
      .when(u, kSRelReq)
      .to(kRelSent)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        send_spdu(Spdu::FN, msg->payload);
      });
  trans("s-fn-recv")
      .from(kOpen)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::FN))
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSRelInd, user_data_of(*msg)));
      });
  trans("s-rel-resp")
      .from(kRelInd)
      .when(u, kSRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        send_spdu(Spdu::DN, msg->payload);
      });
  trans("s-dn-recv")
      .from(kRelSent)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::DN))
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSRelConf, user_data_of(*msg)));
        lower().output(Interaction(kTDisReq));
      });

  // --- abort ---
  trans("s-abort-req")
      .from(kAnyState)
      .when(u, kSAbortReq)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_spdu(Spdu::AB, {});
        lower().output(Interaction(kTDisReq));
      });
  trans("s-ab-recv")
      .from(kAnyState)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::AB))
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        upper().output(Interaction(kSAbortInd));
      });
  trans("s-tdis-ind")
      .from(kAnyState)
      .when(d, kTDisInd)
      .to(kIdle)
      .priority(2)
      .cost(cost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kIdle)
          upper().output(Interaction(kSAbortInd));
      });

  // --- catch-alls (head-of-queue liveness) ---
  trans("s-discard-upper")
      .when(u)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
  trans("s-discard-lower")
      .when(d)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::osi
