#include "osi/presentation.hpp"

#include "asn1/direct.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"

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

/// The type the PPDU wrapper announces, or parse_ppdu's error.
template <typename N>
common::Result<PpduView::Type> ppdu_type_of(const N& outer) {
  if (outer.tag_class() != TagClass::ContextSpecific || !outer.constructed() ||
      outer.size() != 1)
    return common::Error::make(asn1::kBadTag, "malformed PPDU wrapper");
  switch (outer.tag()) {
    case kTagCp:
      return PpduView::Type::CP;
    case kTagCpa:
      return PpduView::Type::CPA;
    case kTagCpr:
      return PpduView::Type::CPR;
    case kTagTd:
      return PpduView::Type::TD;
    default:
      return common::Error::make(asn1::kBadTag, "unknown PPDU tag");
  }
}

/// The one PPDU field reader: every field but the user data, which it hands
/// to `user_data` as the node holding it (never called when the PPDU
/// carries none).
template <typename N, typename UserData>
common::Result<PpduView> ppdu_from(const N& outer, UserData&& user_data) {
  auto type = ppdu_type_of(outer);
  if (!type.ok()) return type.error();
  decltype(auto) body = outer.child(0);

  PpduView v;
  v.type = type.value();
  auto connect_user_data = [&user_data](const N& seq) {
    if (const auto ud = seq.find_context(0); ud && ud->size() == 1)
      user_data(ud->child(0));
  };
  // CP and CPA: the id of the first entry of the context list.
  auto first_context_id = [](const N& seq) {
    if (seq.size() >= 1 && seq.child(0).size() >= 1 &&
        seq.child(0).child(0).size() >= 1)
      return static_cast<int>(
          seq.child(0).child(0).child(0).as_int().value_or(0));
    return 0;
  };

  switch (v.type) {
    case PpduView::Type::CP:
    case PpduView::Type::CPA:
      v.context_id = first_context_id(body);
      connect_user_data(body);
      return v;
    case PpduView::Type::CPR:
      if (body.size() >= 1)
        v.reason = static_cast<int>(body.child(0).as_int().value_or(0));
      connect_user_data(body);
      return v;
    case PpduView::Type::TD: {
      auto field = body.children().begin();
      const auto end = body.children().end();
      if (field == end) return v;
      auto second = field;
      if (++second == end) return v;  // fewer than two fields
      v.context_id = static_cast<int>(field->as_int().value_or(0));
      user_data(*second);
      return v;
    }
  }
  return v;
}

/// ppdu_from with the user data copied out (as_octets: a constructed field
/// carries none).
template <typename N>
common::Result<PpduView> ppdu_copy(const N& outer) {
  Bytes data;
  auto v = ppdu_from(outer, [&data](const N& node) {
    data = node.as_octets().value_or({});
  });
  if (v.ok()) v.value().user_data = std::move(data);
  return v;
}

/// True when `raw` is a well-formed PPDU of type `want`: the wrapper of the
/// validated node is read, no field is copied.
bool ppdu_is(const Bytes& raw, PpduView::Type want) {
  auto root = asn1::Node::parse(raw);
  if (!root.ok()) return false;
  auto type = ppdu_type_of(root.value());
  return type.ok() && type.value() == want;
}

constexpr auto kSequence =
    static_cast<std::uint32_t>(asn1::UniversalTag::Sequence);
constexpr auto kOctets =
    static_cast<std::uint32_t>(asn1::UniversalTag::OctetString);

/// Content octets of a TD's SEQUENCE.
std::size_t td_sequence_len(int context_id, std::size_t user_len) {
  return Writer::int_tlv_len(context_id) + Writer::tlv_len(kOctets, user_len);
}

/// Every TD octet before the user data: the lengths computed up front.
void put_td_header(Writer& w, int context_id, std::size_t user_len) {
  const std::size_t seq = td_sequence_len(context_id, user_len);
  w.header(TagClass::ContextSpecific, true, kTagTd,
           Writer::tlv_len(kSequence, seq));
  w.header(TagClass::Universal, true, kSequence, seq);
  w.integer(context_id);
  w.header(TagClass::Universal, false, kOctets, user_len);
}
}  // namespace

// An SDU from a PDU encoder takes its TD, SPDU and DT TPDU headers in the
// room write_exact leaves behind it.
static_assert(kTdMaxHeader + kSpduMaxHeader + kTpduHeader <=
              asn1::kSduHeadroom);

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
  const std::size_t seq = td_sequence_len(context_id, user_data.size());
  Bytes out;
  out.reserve(Writer::tlv_len(kTagTd, Writer::tlv_len(kSequence, seq)));
  Writer w(out);
  put_td_header(w, context_id, user_data.size());
  out.insert(out.end(), user_data.begin(), user_data.end());
  return out;
}

void prepend_td(int context_id, Bytes& user_data) {
  thread_local Bytes header;
  header.clear();
  Writer w(header);
  put_td_header(w, context_id, user_data.size());
  user_data.insert(user_data.begin(), header.begin(), header.end());
}

common::Result<PpduView> parse_ppdu(const Bytes& raw) {
  auto root = asn1::Node::parse(raw);
  if (!root.ok()) return root.error();
  return ppdu_copy(root.value());
}

common::Result<PpduView> strip_ppdu(Bytes& ppdu) {
  auto root = asn1::Node::parse(ppdu);
  if (!root.ok()) return root.error();
  common::ByteSpan data;
  auto v = ppdu_from(root.value(), [&data](const asn1::Node& node) {
    data = node.content();  // empty for a constructed node, as as_octets
  });
  if (!v.ok()) return v;
  if (data.empty()) {
    ppdu.clear();
  } else {
    const auto first = data.data() - ppdu.data();
    ppdu.resize(static_cast<std::size_t>(first) + data.size());
    ppdu.erase(ppdu.begin(), ppdu.begin() + first);
  }
  return v;
}

common::Result<PpduView> ppdu_from_value(const asn1::Value& v) {
  return ppdu_copy(v);
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
      return msg != nullptr && ppdu_is(msg->payload, want);
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
      .action([this](Module&, Interaction* msg) {
        (void)strip_ppdu(msg->payload);  // the guard admitted a CPA
        transfer_syntax_ = oids::kBerTransferSyntax;
        upper().output(Interaction(kPConConf, std::move(msg->payload)));
      });
  trans("p-cpr-recv")
      .from(kWaitConf)
      .when(d, kSConConf)
      .provided(ppdu_type_is(PpduView::Type::CPR),
                estelle::GuardReads::Hooked)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        (void)strip_ppdu(msg->payload);  // the guard admitted a CPR
        upper().output(Interaction(kPConRefuse, std::move(msg->payload)));
      });
  trans("p-refused")
      .from(kWaitConf)
      .when(d, kSConRefuse)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        // Session-level refusal; user data may still carry a CPR.
        const bool ppdu = strip_ppdu(msg->payload).ok();
        upper().output(Interaction(
            kPConRefuse, ppdu ? std::move(msg->payload) : Bytes{}));
      });

  // --- responder ---
  trans("p-cp-recv")
      .from(kIdle)
      .when(d, kSConInd)
      .provided(ppdu_type_is(PpduView::Type::CP),
                estelle::GuardReads::Hooked)
      .to(kConnInd)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        (void)strip_ppdu(msg->payload);  // the guard admitted a CP
        upper().output(Interaction(kPConInd, std::move(msg->payload)));
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
      .action([this](Module&, Interaction* msg) {
        prepend_td(cfg_.context_id, msg->payload);
        lower().output(Interaction(kSDatReq, std::move(msg->payload)));
      });
  trans("p-td-recv")
      .from(kOpen)
      .when(d, kSDatInd)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        auto v = strip_ppdu(msg->payload);
        if (v.ok() && v.value().type == PpduView::Type::TD)
          upper().output(Interaction(kPDatInd, std::move(msg->payload)));
      });

  // --- release: presentation kernel is pass-through over S-RELEASE ---
  trans("p-rel-req")
      .from(kOpen)
      .when(u, kPRelReq)
      .to(kRelSent)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        lower().output(Interaction(kSRelReq, std::move(msg->payload)));
      });
  trans("p-rel-ind")
      .from(kOpen)
      .when(d, kSRelInd)
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kPRelInd, std::move(msg->payload)));
      });
  trans("p-rel-resp")
      .from(kRelInd)
      .when(u, kPRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        lower().output(Interaction(kSRelResp, std::move(msg->payload)));
      });
  trans("p-rel-conf")
      .from(kRelSent)
      .when(d, kSRelConf)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, Interaction* msg) {
        upper().output(Interaction(kPRelConf, std::move(msg->payload)));
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
