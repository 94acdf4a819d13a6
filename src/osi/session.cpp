#include "osi/session.hpp"

#include <optional>

namespace mcam::osi {

using common::Bytes;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
constexpr std::size_t kSpduHeader = 3;      // si:1 length:2
constexpr std::size_t kSpduLongHeader = 7;  // si:1 FF FF length:4
/// User data of this many octets or more takes the long form: the two
/// length octets read FF FF and a 4-octet length follows.
constexpr std::size_t kSpduLongForm = 0xFFFF;

struct SpduHeader {
  std::size_t size = 0;      // octets before the user data
  std::size_t user_len = 0;  // the user-data length it announces
};

/// The header of `raw`; nullopt when `raw` is shorter than the header.
std::optional<SpduHeader> read_spdu_header(const Bytes& raw) {
  if (raw.size() < kSpduHeader) return std::nullopt;
  if (raw[1] != 0xFF || raw[2] != 0xFF)
    return SpduHeader{kSpduHeader, std::size_t{raw[1]} << 8 | raw[2]};
  if (raw.size() < kSpduLongHeader) return std::nullopt;
  std::size_t len = 0;
  for (std::size_t i = 3; i < kSpduLongHeader; ++i) len = len << 8 | raw[i];
  return SpduHeader{kSpduLongHeader, len};
}

/// The user-data length a well-formed SPDU announces; nullopt when `raw` is
/// shorter than its header or than its length field says.
std::optional<std::size_t> spdu_user_len(const Bytes& raw) {
  const std::optional<SpduHeader> h = read_spdu_header(raw);
  if (!h || h->user_len > raw.size() - h->size) return std::nullopt;
  return h->user_len;
}

/// User data of an SPDU that spdu_is() admitted.
Bytes user_data_of(const Interaction& msg) {
  auto spdu = parse_spdu(msg.payload);
  return spdu.ok() ? std::move(spdu.value().user_data) : Bytes{};
}
}  // namespace

Bytes build_spdu(Spdu type, const Bytes& user_data) {
  const std::size_t len = user_data.size();
  const bool long_form = len >= kSpduLongForm;
  Bytes out;
  out.reserve((long_form ? kSpduLongHeader : kSpduHeader) + len);
  out.push_back(static_cast<std::uint8_t>(type));
  if (long_form) {
    out.push_back(0xFF);
    out.push_back(0xFF);
    for (int shift = 24; shift >= 0; shift -= 8)
      out.push_back(static_cast<std::uint8_t>(len >> shift));
  } else {
    out.push_back(static_cast<std::uint8_t>(len >> 8));
    out.push_back(static_cast<std::uint8_t>(len));
  }
  out.insert(out.end(), user_data.begin(), user_data.end());
  return out;
}

common::Result<SpduView> parse_spdu(const Bytes& raw) {
  const std::optional<SpduHeader> h = read_spdu_header(raw);
  if (!h) {
    const std::size_t need =
        raw.size() < kSpduHeader ? kSpduHeader : kSpduLongHeader;
    return common::Error::make(
        kShortSpdu, "SPDU of " + std::to_string(raw.size()) +
                        " bytes is shorter than its " + std::to_string(need) +
                        "-byte header");
  }
  if (h->user_len > raw.size() - h->size)
    return common::Error::make(
        kShortSpdu, "SPDU length field claims " + std::to_string(h->user_len) +
                        " bytes of user data, " +
                        std::to_string(raw.size() - h->size) + " present");
  SpduView v;
  v.type = static_cast<Spdu>(raw[0]);
  const auto first = raw.begin() + static_cast<std::ptrdiff_t>(h->size);
  v.user_data.assign(first, first + static_cast<std::ptrdiff_t>(h->user_len));
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
  // `want`. A malformed one falls through to s-discard-lower. The guard
  // reads only the offered head, so it is declared Hooked.
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
      .provided(spdu_is(Spdu::AC), estelle::GuardReads::Hooked)
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(
            Interaction(kSConConf, user_data_of(*msg)));
      });
  trans("s-rf-recv")
      .from(kWaitAC)
      .when(d, kTDatInd)
      .provided(spdu_is(Spdu::RF), estelle::GuardReads::Hooked)
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
      .provided(spdu_is(Spdu::CN), estelle::GuardReads::Hooked)
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
        const bool accept = msg->value != 0;
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
      .provided(spdu_is(Spdu::DT), estelle::GuardReads::Hooked)
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
      .provided(spdu_is(Spdu::FN), estelle::GuardReads::Hooked)
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
      .provided(spdu_is(Spdu::DN), estelle::GuardReads::Hooked)
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
