#include "osi/presentation.hpp"

#include "asn1/direct.hpp"

namespace mcam::osi {

using asn1::TagClass;
using asn1::Writer;
using common::Bytes;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
// Outer PPDU discriminator tags.
constexpr std::uint32_t kTagCp = 1;
constexpr std::uint32_t kTagCpa = 2;
constexpr std::uint32_t kTagCpr = 3;
constexpr std::uint32_t kTagTd = 4;

/// [tag] { SEQUENCE { `head`, [0] { OCTET STRING user_data } } }: the shape
/// of CP, CPA and CPR, whose heads differ.
template <typename Head>
Bytes connect_ppdu(std::uint32_t tag, const Bytes& user_data, Head&& head) {
  return asn1::write_exact([&](Writer& w) {
    const std::size_t wrapper = w.open(TagClass::ContextSpecific, tag);
    const std::size_t body = w.open_sequence();
    head(w);
    const std::size_t ud = w.open(TagClass::ContextSpecific, 0);
    w.octet_string(user_data);
    w.close(ud);
    w.close(body);
    w.close(wrapper);
  });
}

template <typename N>
common::Result<PpduView> ppdu_from(const N& outer) {
  if (outer.tag_class() != TagClass::ContextSpecific || !outer.constructed() ||
      outer.size() != 1)
    return common::Error::make(asn1::kBadTag, "malformed PPDU wrapper");
  decltype(auto) body = outer.child(0);

  PpduView v;
  auto user_data_of = [](const N& seq) -> Bytes {
    if (const auto ud = seq.find_context(0); ud && ud->size() == 1)
      return ud->child(0).as_octets().value_or({});
    return {};
  };
  // CP and CPA: the id of the first entry of the context list.
  auto first_context_id = [](const N& seq) {
    if (seq.size() >= 1 && seq.child(0).size() >= 1 &&
        seq.child(0).child(0).size() >= 1)
      return static_cast<int>(
          seq.child(0).child(0).child(0).as_int().value_or(0));
    return 0;
  };

  switch (outer.tag()) {
    case kTagCp:
      v.type = PpduView::Type::CP;
      v.context_id = first_context_id(body);
      v.user_data = user_data_of(body);
      return v;
    case kTagCpa:
      v.type = PpduView::Type::CPA;
      v.context_id = first_context_id(body);
      v.user_data = user_data_of(body);
      return v;
    case kTagCpr:
      v.type = PpduView::Type::CPR;
      if (body.size() >= 1)
        v.reason = static_cast<int>(body.child(0).as_int().value_or(0));
      v.user_data = user_data_of(body);
      return v;
    case kTagTd: {
      v.type = PpduView::Type::TD;
      auto field = body.children().begin();
      const auto end = body.children().end();
      if (field == end) return v;
      auto second = field;
      if (++second == end) return v;  // fewer than two fields
      v.context_id = static_cast<int>(field->as_int().value_or(0));
      v.user_data = second->as_octets().value_or({});
      return v;
    }
    default:
      return common::Error::make(asn1::kBadTag, "unknown PPDU tag");
  }
}
}  // namespace

Bytes build_cp(int context_id, const Bytes& user_data) {
  return connect_ppdu(kTagCp, user_data, [context_id](Writer& w) {
    const std::size_t list = w.open_sequence();
    const std::size_t ctx = w.open_sequence();
    w.integer(context_id);
    w.oid(oids::kMcamAbstractSyntax);
    const std::size_t transfer = w.open_sequence();
    w.oid(oids::kBerTransferSyntax);
    w.close(transfer);
    w.close(ctx);
    w.close(list);
  });
}

Bytes build_cpa(int context_id, const Bytes& user_data) {
  return connect_ppdu(kTagCpa, user_data, [context_id](Writer& w) {
    const std::size_t list = w.open_sequence();
    const std::size_t result = w.open_sequence();
    w.integer(context_id);
    w.enumerated(0);  // acceptance
    w.oid(oids::kBerTransferSyntax);
    w.close(result);
    w.close(list);
  });
}

Bytes build_cpr(int reason, const Bytes& user_data) {
  return connect_ppdu(kTagCpr, user_data,
                      [reason](Writer& w) { w.enumerated(reason); });
}

Bytes build_td(int context_id, const Bytes& user_data) {
  // The per-request PPDU: lengths computed up front, one exact allocation.
  constexpr auto kSequence =
      static_cast<std::uint32_t>(asn1::UniversalTag::Sequence);
  constexpr auto kOctets =
      static_cast<std::uint32_t>(asn1::UniversalTag::OctetString);
  const std::size_t seq = Writer::int_tlv_len(context_id) +
                          Writer::tlv_len(kOctets, user_data.size());
  const std::size_t wrapper = Writer::tlv_len(kSequence, seq);
  Bytes out;
  out.reserve(Writer::tlv_len(kTagTd, wrapper));
  Writer w(out);
  w.header(TagClass::ContextSpecific, true, kTagTd, wrapper);
  w.header(TagClass::Universal, true, kSequence, seq);
  w.integer(context_id);
  w.octet_string(user_data);
  return out;
}

common::Result<PpduView> parse_ppdu(const Bytes& raw) {
  auto root = asn1::Node::parse(raw);
  if (!root.ok()) return root.error();
  return ppdu_from(root.value());
}

common::Result<PpduView> ppdu_from_value(const asn1::Value& v) {
  return ppdu_from(v);
}

PresentationModule::PresentationModule(std::string name)
    : PresentationModule(std::move(name), Config{}) {}

PresentationModule::PresentationModule(std::string name, Config cfg)
    : Module(std::move(name), estelle::Attribute::Process),
      upper_(ip("U")),
      lower_(ip("D")),
      cfg_(cfg) {
  define_transitions();
}

void PresentationModule::define_transitions() {
  auto& u = upper();
  auto& d = lower();
  const auto cost = cfg_.per_ppdu_cost;

  // The PPDU at the head of the session queue is a `want`; the guard reads
  // only the offered head, so it is declared Hooked.
  auto ppdu_type_is = [](PpduView::Type want) {
    return [want](Module&, const Interaction* msg) {
      if (msg == nullptr) return false;
      auto v = parse_ppdu(msg->payload);
      return v.ok() && v.value().type == want;
    };
  };

  // --- initiator ---
  trans("p-con-req")
      .from(kIdle)
      .when(u, kPConReq)
      .to(kWaitConf)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(Interaction(
            kSConReq, build_cp(cfg_.context_id, msg->payload)));
      });
  trans("p-cpa-recv")
      .from(kWaitConf)
      .when(d, kSConConf)
      .provided(ppdu_type_is(PpduView::Type::CPA),
                estelle::GuardReads::Hooked)
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        transfer_syntax_ = oids::kBerTransferSyntax;
        upper().output(Interaction(kPConConf, std::move(v.value().user_data)));
      });
  trans("p-cpr-recv")
      .from(kWaitConf)
      .when(d, kSConConf)
      .provided(ppdu_type_is(PpduView::Type::CPR),
                estelle::GuardReads::Hooked)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        upper().output(
            Interaction(kPConRefuse, std::move(v.value().user_data)));
      });
  trans("p-refused")
      .from(kWaitConf)
      .when(d, kSConRefuse)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        // Session-level refusal; user data may still carry a CPR.
        auto v = parse_ppdu(msg->payload);
        upper().output(Interaction(
            kPConRefuse, v.ok() ? std::move(v.value().user_data) : Bytes{}));
      });

  // --- responder ---
  trans("p-cp-recv")
      .from(kIdle)
      .when(d, kSConInd)
      .provided(ppdu_type_is(PpduView::Type::CP),
                estelle::GuardReads::Hooked)
      .to(kConnInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        upper().output(Interaction(kPConInd, std::move(v.value().user_data)));
      });
  trans("p-con-resp")
      .from(kConnInd)
      .when(u, kPConResp)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        const bool accept = msg->value != 0;
        Interaction out(kSConResp, accept ? 1 : 0,
                        accept ? build_cpa(cfg_.context_id, msg->payload)
                               : build_cpr(/*reason=*/2, msg->payload));
        lower().output(std::move(out));
        if (accept) transfer_syntax_ = oids::kBerTransferSyntax;
        m.set_state(accept ? kOpen : kIdle);
      });

  // --- data transfer ---
  trans("p-dat-req")
      .from(kOpen)
      .when(u, kPDatReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(
            Interaction(kSDatReq, build_td(cfg_.context_id, msg->payload)));
      });
  trans("p-td-recv")
      .from(kOpen)
      .when(d, kSDatInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        if (v.ok() && v.value().type == PpduView::Type::TD)
          upper().output(Interaction(kPDatInd, std::move(v.value().user_data)));
      });

  // --- release: presentation kernel is pass-through over S-RELEASE ---
  trans("p-rel-req")
      .from(kOpen)
      .when(u, kPRelReq)
      .to(kRelSent)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(Interaction(kSRelReq, msg->payload));
      });
  trans("p-rel-ind")
      .from(kOpen)
      .when(d, kSRelInd)
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(Interaction(kPRelInd, msg->payload));
      });
  trans("p-rel-resp")
      .from(kRelInd)
      .when(u, kPRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(Interaction(kSRelResp, msg->payload));
      });
  trans("p-rel-conf")
      .from(kRelSent)
      .when(d, kSRelConf)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(Interaction(kPRelConf, msg->payload));
      });

  // --- abort: user-initiated (P-U-ABORT) and provider indications ---
  trans("p-abort-req")
      .from(kAnyState)
      .when(u, kPAbortReq)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        lower().output(Interaction(kSAbortReq));
      });
  trans("p-abort-ind")
      .from(kAnyState)
      .when(d, kSAbortInd)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kIdle)
          upper().output(Interaction(kPAbortInd));
      });

  // --- catch-alls ---
  trans("p-discard-upper")
      .when(u)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
  trans("p-discard-lower")
      .when(d)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::osi
