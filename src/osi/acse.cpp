#include "osi/acse.hpp"

#include "asn1/direct.hpp"

namespace mcam::osi {

using asn1::TagClass;
using asn1::Writer;
using common::Bytes;
using common::Error;
using common::Result;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
constexpr std::uint32_t kTagAarq = 0;
constexpr std::uint32_t kTagAare = 1;
constexpr std::uint32_t kTagRlrq = 2;
constexpr std::uint32_t kTagRlre = 3;
constexpr std::uint32_t kTagAbrt = 4;
constexpr std::uint32_t kUserInfoTag = 30;

/// [APPLICATION tag] { `fields` } as one exactly-sized buffer.
template <typename Fields>
Bytes apdu(std::uint32_t tag, Fields&& fields) {
  return asn1::write_exact([&](Writer& w) {
    const std::size_t body = w.open(TagClass::Application, tag);
    fields(w);
    w.close(body);
  });
}

void put_user_info(Writer& w, const Bytes& data) {
  const std::size_t ui = w.open(TagClass::ContextSpecific, kUserInfoTag);
  w.octet_string(data);
  w.close(ui);
}

template <typename N>
Result<AcseApdu> acse_from(const N& v) {
  if (v.tag_class() != TagClass::Application || !v.constructed())
    return Error::make(asn1::kBadTag, "not an ACSE APDU");

  AcseApdu apdu;
  if (const auto ui = v.find_context(kUserInfoTag); ui && ui->size() == 1)
    apdu.user_information = ui->child(0).as_octets().value_or({});
  switch (v.tag()) {
    case kTagAarq: {
      apdu.type = AcseApdu::Type::AARQ;
      if (v.size() < 2) return Error::make(asn1::kBadTag, "short AARQ");
      apdu.version = static_cast<int>(v.child(0).as_int().value_or(1));
      auto ctx = v.child(1).as_oid();
      if (!ctx.ok()) return ctx.error();
      apdu.context = std::move(ctx).take();
      return apdu;
    }
    case kTagAare: {
      apdu.type = AcseApdu::Type::AARE;
      if (v.size() < 2) return Error::make(asn1::kBadTag, "short AARE");
      apdu.result = static_cast<AcseResult>(v.child(0).as_int().value_or(1));
      auto ctx = v.child(1).as_oid();
      if (!ctx.ok()) return ctx.error();
      apdu.context = std::move(ctx).take();
      return apdu;
    }
    case kTagRlrq:
    case kTagRlre: {
      apdu.type =
          v.tag() == kTagRlrq ? AcseApdu::Type::RLRQ : AcseApdu::Type::RLRE;
      if (v.size() >= 1)
        apdu.reason = static_cast<int>(v.child(0).as_int().value_or(0));
      return apdu;
    }
    case kTagAbrt: {
      apdu.type = AcseApdu::Type::ABRT;
      if (v.size() >= 1)
        apdu.reason = static_cast<int>(v.child(0).as_int().value_or(0));
      return apdu;
    }
    default:
      return Error::make(asn1::kBadTag, "unknown ACSE APDU tag");
  }
}
}  // namespace

Bytes build_aarq(const std::vector<std::uint32_t>& context,
                 const Bytes& user_information) {
  return apdu(kTagAarq, [&](Writer& w) {
    w.integer(1);
    w.oid(context);
    put_user_info(w, user_information);
  });
}

Bytes build_aare(AcseResult result, const std::vector<std::uint32_t>& context,
                 const Bytes& user_information) {
  return apdu(kTagAare, [&](Writer& w) {
    w.enumerated(static_cast<int>(result));
    w.oid(context);
    put_user_info(w, user_information);
  });
}

Bytes build_rlrq(int reason, const Bytes& user_information) {
  return apdu(kTagRlrq, [&](Writer& w) {
    w.integer(reason);
    put_user_info(w, user_information);
  });
}

Bytes build_rlre(int reason, const Bytes& user_information) {
  return apdu(kTagRlre, [&](Writer& w) {
    w.integer(reason);
    put_user_info(w, user_information);
  });
}

Bytes build_abrt(int source) {
  return apdu(kTagAbrt, [source](Writer& w) { w.enumerated(source); });
}

Result<AcseApdu> parse_acse(const Bytes& raw) {
  auto root = asn1::Node::parse(raw);
  if (!root.ok()) return root.error();
  return acse_from(root.value());
}

Result<AcseApdu> acse_from_value(const asn1::Value& v) { return acse_from(v); }

AcseModule::AcseModule(std::string name)
    : AcseModule(std::move(name), Config{}) {}

AcseModule::AcseModule(std::string name, Config cfg)
    : Module(std::move(name), estelle::Attribute::Process),
      upper_(ip("U")),
      lower_(ip("D")),
      cfg_(std::move(cfg)) {
  define_transitions();
}

void AcseModule::define_transitions() {
  auto& u = upper();
  auto& d = lower();
  const auto cost = cfg_.per_apdu_cost;

  // --- association (initiator) ---
  trans("a-assoc-req")
      .from(kIdle)
      .when(u, kPConReq)
      .to(kAssocPending)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(
            kPConReq, build_aarq(cfg_.context, msg->payload)));
      });
  trans("a-assoc-conf")
      .from(kAssocPending)
      .when(d, kPConConf)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        if (apdu.ok() && apdu.value().type == AcseApdu::Type::AARE &&
            apdu.value().result == AcseResult::Accepted) {
          m.set_state(kOpen);
          upper().output(
              Interaction(kPConConf, std::move(apdu.value().user_information)));
        } else {
          m.set_state(kIdle);
          upper().output(Interaction(
              kPConRefuse,
              apdu.ok() ? std::move(apdu.value().user_information)
                        : common::Bytes{}));
        }
      });
  trans("a-assoc-refused")
      .from(kAssocPending)
      .when(d, kPConRefuse)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        upper().output(Interaction(
            kPConRefuse, apdu.ok() ? std::move(apdu.value().user_information)
                                   : common::Bytes{}));
      });

  // --- association (responder) ---
  trans("a-assoc-ind")
      .from(kIdle)
      .when(d, kPConInd)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        if (!apdu.ok() || apdu.value().type != AcseApdu::Type::AARQ) {
          ++sent_;
          lower().output(Interaction(
              kPConResp, 0,
              build_aare(AcseResult::RejectedPermanent, cfg_.context, {})));
          return;
        }
        if (apdu.value().context != cfg_.context) {
          // X.227: the responder refuses an unacceptable application
          // context before any user data reaches the application.
          ++context_rejections_;
          ++sent_;
          lower().output(Interaction(
              kPConResp, 0,
              build_aare(AcseResult::RejectedContextMismatch, cfg_.context,
                         {})));
          return;
        }
        m.set_state(kAssocInd);
        upper().output(Interaction(
            kPConInd, std::move(apdu.value().user_information)));
      });
  trans("a-assoc-resp")
      .from(kAssocInd)
      .when(u, kPConResp)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        const bool accept = msg->value != 0;
        ++sent_;
        lower().output(Interaction(
            kPConResp, accept ? 1 : 0,
            build_aare(accept ? AcseResult::Accepted
                              : AcseResult::RejectedPermanent,
                       cfg_.context, msg->payload)));
        m.set_state(accept ? kOpen : kIdle);
      });

  // --- data: pass-through (P-DATA is not ACSE's business) ---
  trans("a-dat-req")
      .from(kOpen)
      .when(u, kPDatReq)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        lower().output(Interaction(kPDatReq, std::move(msg->payload)));
      });
  trans("a-dat-ind")
      .from(kOpen)
      .when(d, kPDatInd)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kPDatInd, std::move(msg->payload)));
      });

  // --- release (A-RELEASE wraps RLRQ/RLRE) ---
  trans("a-rel-req")
      .from(kOpen)
      .when(u, kPRelReq)
      .to(kRelPending)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(kPRelReq, build_rlrq(0, msg->payload)));
      });
  trans("a-rel-ind")
      .from(kOpen)
      .when(d, kPRelInd)
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        upper().output(Interaction(
            kPRelInd, apdu.ok() ? std::move(apdu.value().user_information)
                                : common::Bytes{}));
      });
  trans("a-rel-resp")
      .from(kRelInd)
      .when(u, kPRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(kPRelResp, build_rlre(0, msg->payload)));
      });
  trans("a-rel-conf")
      .from(kRelPending)
      .when(d, kPRelConf)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        upper().output(Interaction(
            kPRelConf, apdu.ok() ? std::move(apdu.value().user_information)
                                 : common::Bytes{}));
      });

  // --- abort ---
  trans("a-abort-req")
      .from(kAnyState)
      .when(u, kPAbortReq)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        lower().output(Interaction(kPAbortReq, build_abrt(0)));
      });
  trans("a-abort-ind")
      .from(kAnyState)
      .when(d, kPAbortInd)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kIdle) upper().output(Interaction(kPAbortInd));
      });

  // --- catch-alls ---
  trans("a-discard-upper")
      .from(kIdle)
      .when(u)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
  trans("a-discard-lower")
      .when(d)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::osi
