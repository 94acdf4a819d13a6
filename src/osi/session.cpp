#include "osi/session.hpp"

namespace mcam::osi {

using common::Bytes;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
constexpr std::size_t kSpduHeader = 3;      // si:1 length:2
constexpr std::size_t kSpduLongHeader = kSpduMaxHeader;  // si:1 FF FF length:4
/// User data of this many octets or more takes the long form: the two
/// length octets read FF FF and a 4-octet length follows.
constexpr std::size_t kSpduLongForm = 0xFFFF;

std::size_t spdu_header_len(std::size_t user_len) {
  return user_len >= kSpduLongForm ? kSpduLongHeader : kSpduHeader;
}

/// Write the header of an SPDU announcing `user_len` octets into the
/// spdu_header_len(user_len) octets at `at`.
void put_spdu_header(std::uint8_t* at, Spdu type, std::size_t user_len) {
  at[0] = static_cast<std::uint8_t>(type);
  if (user_len >= kSpduLongForm) {
    at[1] = 0xFF;
    at[2] = 0xFF;
    for (int i = 0; i < 4; ++i)
      at[3 + i] = static_cast<std::uint8_t>(user_len >> (8 * (3 - i)));
  } else {
    at[1] = static_cast<std::uint8_t>(user_len >> 8);
    at[2] = static_cast<std::uint8_t>(user_len);
  }
}

struct SpduHeader {
  std::size_t size = 0;      // octets before the user data
  std::size_t user_len = 0;  // the user-data length it announces
};

/// The header of a well-formed SPDU, or parse_spdu's error: `raw` is
/// shorter than its header or than the user data its length field
/// announces.
common::Result<SpduHeader> check_spdu(const Bytes& raw) {
  SpduHeader h;
  if (raw.size() >= kSpduHeader && (raw[1] != 0xFF || raw[2] != 0xFF)) {
    h = {kSpduHeader, std::size_t{raw[1]} << 8 | raw[2]};
  } else if (raw.size() >= kSpduLongHeader) {
    for (std::size_t i = 3; i < kSpduLongHeader; ++i)
      h.user_len = h.user_len << 8 | raw[i];
    h.size = kSpduLongHeader;
  } else {
    const std::size_t need =
        raw.size() < kSpduHeader ? kSpduHeader : kSpduLongHeader;
    return common::Error::make(
        kShortSpdu, "SPDU of " + std::to_string(raw.size()) +
                        " bytes is shorter than its " + std::to_string(need) +
                        "-byte header");
  }
  if (h.user_len > raw.size() - h.size)
    return common::Error::make(
        kShortSpdu, "SPDU length field claims " + std::to_string(h.user_len) +
                        " bytes of user data, " +
                        std::to_string(raw.size() - h.size) + " present");
  return h;
}

/// User data of an SPDU that spdu_is() admitted, stripped in place.
Bytes user_data_of(Interaction& msg) {
  if (!strip_spdu(msg.payload).ok()) return {};
  return std::move(msg.payload);
}
}  // namespace

Bytes build_spdu(Spdu type, const Bytes& user_data) {
  const std::size_t header = spdu_header_len(user_data.size());
  Bytes out;
  out.reserve(header + user_data.size());
  out.resize(header);
  put_spdu_header(out.data(), type, user_data.size());
  out.insert(out.end(), user_data.begin(), user_data.end());
  return out;
}

void prepend_spdu(Spdu type, Bytes& user_data) {
  const std::size_t len = user_data.size();
  user_data.insert(user_data.begin(), spdu_header_len(len), 0);
  put_spdu_header(user_data.data(), type, len);
}

common::Result<SpduView> parse_spdu(const Bytes& raw) {
  auto h = check_spdu(raw);
  if (!h.ok()) return h.error();
  const auto first = raw.begin() + static_cast<std::ptrdiff_t>(h.value().size);
  return SpduView{
      static_cast<Spdu>(raw[0]),
      Bytes(first, first + static_cast<std::ptrdiff_t>(h.value().user_len))};
}

common::Result<Spdu> strip_spdu(Bytes& spdu) {
  auto h = check_spdu(spdu);
  if (!h.ok()) return h.error();
  const auto type = static_cast<Spdu>(spdu[0]);
  spdu.resize(h.value().size + h.value().user_len);
  spdu.erase(spdu.begin(),
             spdu.begin() + static_cast<std::ptrdiff_t>(h.value().size));
  return type;
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

void SessionModule::send_spdu(Spdu type, Bytes user_data) {
  ++sent_;
  prepend_spdu(type, user_data);
  lower().output(Interaction(kTDatReq, std::move(user_data)));
}

void SessionModule::define_transitions() {
  auto& u = upper();
  auto& d = lower();
  const auto cost = cfg_.per_spdu_cost;

  // Helper: the SPDU at the head of the transport queue is a well-formed
  // `want`. A malformed one falls through to s-discard-lower. The guard
  // reads only the offered head, so it is declared Hooked.
  auto spdu_is = [](Spdu want) {
    return [want](Module&, const Interaction* msg) {
      return msg != nullptr && check_spdu(msg->payload).ok() &&
             static_cast<Spdu>(msg->payload[0]) == want;
    };
  };

  // --- initiator side ---
  trans("s-con-req")
      .from(kIdle)
      .when(u, kSConReq)
      .to(kWaitTCon)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        pending_connect_ = std::move(msg->payload);
        lower().output(Interaction(kTConReq));
      });
  trans("s-tcon-conf")
      .from(kWaitTCon)
      .when(d, kTConConf)
      .to(kWaitAC)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_spdu(Spdu::CN, std::move(pending_connect_));
      });
  trans("s-ac-recv")
      .from(kWaitAC)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::AC), estelle::GuardReads::Hooked)
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kSConConf, user_data_of(*msg)));
      });
  trans("s-rf-recv")
      .from(kWaitAC)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::RF), estelle::GuardReads::Hooked)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kSConRefuse, user_data_of(*msg)));
        lower().output(Interaction(kTDisReq));
      });

  // --- responder side ---
  trans("s-cn-recv")
      .from(kIdle)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::CN), estelle::GuardReads::Hooked)
      .to(kConnInd)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kSConInd, user_data_of(*msg)));
      });
  trans("s-con-resp")
      .from(kConnInd)
      .when(u, kSConResp)
      .cost(cost)
      .action([this](Module& m, Interaction* msg) {
        const bool accept = msg->value != 0;
        send_spdu(accept ? Spdu::AC : Spdu::RF, std::move(msg->payload));
        m.set_state(accept ? kOpen : kIdle);
      });

  // --- data transfer ---
  trans("s-dat-req")
      .from(kOpen)
      .when(u, kSDatReq)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        send_spdu(Spdu::DT, std::move(msg->payload));
      });
  trans("s-dt-recv")
      .from(kOpen)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::DT), estelle::GuardReads::Hooked)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kSDatInd, user_data_of(*msg)));
      });

  // --- orderly release (FN/DN) ---
  trans("s-rel-req")
      .from(kOpen)
      .when(u, kSRelReq)
      .to(kRelSent)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        send_spdu(Spdu::FN, std::move(msg->payload));
      });
  trans("s-fn-recv")
      .from(kOpen)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::FN), estelle::GuardReads::Hooked)
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kSRelInd, user_data_of(*msg)));
      });
  trans("s-rel-resp")
      .from(kRelInd)
      .when(u, kSRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        send_spdu(Spdu::DN, std::move(msg->payload));
      });
  trans("s-dn-recv")
      .from(kRelSent)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::DN), estelle::GuardReads::Hooked)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kSRelConf, user_data_of(*msg)));
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
      .provided(spdu_is(Spdu::AB), estelle::GuardReads::Hooked)
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
