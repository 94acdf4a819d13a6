#include "mcam/pdus.hpp"

#include "asn1/direct.hpp"

namespace mcam::core {

using asn1::Value;
using common::Error;
using common::Result;

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::AssociateReq: return "AssociateReq";
    case Op::AssociateResp: return "AssociateResp";
    case Op::ReleaseReq: return "ReleaseReq";
    case Op::ReleaseResp: return "ReleaseResp";
    case Op::MovieCreateReq: return "MovieCreateReq";
    case Op::MovieCreateResp: return "MovieCreateResp";
    case Op::MovieDeleteReq: return "MovieDeleteReq";
    case Op::MovieDeleteResp: return "MovieDeleteResp";
    case Op::MovieSelectReq: return "MovieSelectReq";
    case Op::MovieSelectResp: return "MovieSelectResp";
    case Op::AttrQueryReq: return "AttrQueryReq";
    case Op::AttrQueryResp: return "AttrQueryResp";
    case Op::AttrModifyReq: return "AttrModifyReq";
    case Op::AttrModifyResp: return "AttrModifyResp";
    case Op::PlayReq: return "PlayReq";
    case Op::PlayResp: return "PlayResp";
    case Op::StopReq: return "StopReq";
    case Op::StopResp: return "StopResp";
    case Op::PauseReq: return "PauseReq";
    case Op::PauseResp: return "PauseResp";
    case Op::ResumeReq: return "ResumeReq";
    case Op::ResumeResp: return "ResumeResp";
    case Op::RecordReq: return "RecordReq";
    case Op::RecordResp: return "RecordResp";
    case Op::RecordStopReq: return "RecordStopReq";
    case Op::RecordStopResp: return "RecordStopResp";
    case Op::EquipListReq: return "EquipListReq";
    case Op::EquipListResp: return "EquipListResp";
    case Op::EquipControlReq: return "EquipControlReq";
    case Op::EquipControlResp: return "EquipControlResp";
    case Op::MovieSearchReq: return "MovieSearchReq";
    case Op::MovieSearchResp: return "MovieSearchResp";
    case Op::PositionInd: return "PositionInd";
    case Op::ErrorResp: return "ErrorResp";
  }
  return "?";
}

const char* result_name(ResultCode rc) noexcept {
  switch (rc) {
    case ResultCode::Success: return "success";
    case ResultCode::NoSuchMovie: return "no-such-movie";
    case ResultCode::DuplicateMovie: return "duplicate-movie";
    case ResultCode::NotSelected: return "not-selected";
    case ResultCode::AccessDenied: return "access-denied";
    case ResultCode::BadAttribute: return "bad-attribute";
    case ResultCode::NoSuchEquipment: return "no-such-equipment";
    case ResultCode::EquipmentBusy: return "equipment-busy";
    case ResultCode::ProtocolError: return "protocol-error";
    case ResultCode::NotPlaying: return "not-playing";
    case ResultCode::AlreadyPlaying: return "already-playing";
    case ResultCode::NotAssociated: return "not-associated";
    case ResultCode::InternalError: return "internal-error";
  }
  return "?";
}

namespace {

using asn1::Writer;

// ---- encode: straight into the output buffer, no tree -------------------

void put_id(Writer& w, std::uint64_t v) {
  w.integer(static_cast<std::int64_t>(v));
}

void put_result(Writer& w, ResultCode rc) {
  w.enumerated(static_cast<int>(rc));
}

void put_attrs(Writer& w, const std::vector<Attr>& attrs) {
  const std::size_t list = w.open_sequence();
  for (const Attr& a : attrs) {
    const std::size_t row = w.open_sequence();
    w.ia5string(a.name);
    w.ia5string(a.value);
    w.close(row);
  }
  w.close(list);
}

void put_names(Writer& w, const std::vector<std::string>& names) {
  const std::size_t list = w.open_sequence();
  for (const std::string& n : names) w.ia5string(n);
  w.close(list);
}

void put_filter(Writer& w, const directory::Filter& filter) {
  using directory::Filter;
  const auto context = [&w](std::uint32_t tag) {
    return w.open(asn1::TagClass::ContextSpecific, tag);
  };
  switch (filter.op()) {
    case Filter::Op::And:
    case Filter::Op::Or: {
      const std::size_t ctx = context(filter.op() == Filter::Op::And ? 0 : 1);
      const std::size_t seq = w.open_sequence();
      for (const Filter& c : filter.children()) put_filter(w, c);
      w.close(seq);
      w.close(ctx);
      return;
    }
    case Filter::Op::Not: {
      const std::size_t ctx = context(2);
      put_filter(w, filter.children().front());
      w.close(ctx);
      return;
    }
    case Filter::Op::Equal:
    case Filter::Op::Substring: {
      const std::size_t ctx =
          context(filter.op() == Filter::Op::Equal ? 3 : 4);
      const std::size_t seq = w.open_sequence();
      w.ia5string(filter.attr());
      w.ia5string(filter.value());
      w.close(seq);
      w.close(ctx);
      return;
    }
    case Filter::Op::Present: {
      const std::size_t ctx = context(5);
      w.ia5string(filter.attr());
      w.close(ctx);
      return;
    }
    case Filter::Op::All:
      break;
  }
  const std::size_t ctx = context(6);
  w.null();
  w.close(ctx);
}

// The field list of each PDU body, in wire order.
void put_fields(Writer& w, const AssociateReq& p) {
  w.ia5string(p.user);
  w.integer(p.version);
}
void put_fields(Writer& w, const AssociateResp& p) {
  put_result(w, p.result);
  w.ia5string(p.diagnostic);
}
void put_fields(Writer&, const ReleaseReq&) {}
void put_fields(Writer&, const ReleaseResp&) {}
void put_fields(Writer& w, const MovieCreateReq& p) {
  w.ia5string(p.title);
  put_attrs(w, p.attrs);
}
void put_fields(Writer& w, const MovieCreateResp& p) {
  put_result(w, p.result);
  put_id(w, p.movie_id);
}
void put_fields(Writer& w, const MovieDeleteReq& p) { put_id(w, p.movie_id); }
void put_fields(Writer& w, const MovieDeleteResp& p) {
  put_result(w, p.result);
}
void put_fields(Writer& w, const MovieSelectReq& p) { w.ia5string(p.title); }
void put_fields(Writer& w, const MovieSelectResp& p) {
  put_result(w, p.result);
  put_id(w, p.movie_id);
  put_attrs(w, p.attrs);
}
void put_fields(Writer& w, const AttrQueryReq& p) {
  put_id(w, p.movie_id);
  put_names(w, p.names);
}
void put_fields(Writer& w, const AttrQueryResp& p) {
  put_result(w, p.result);
  put_attrs(w, p.attrs);
}
void put_fields(Writer& w, const AttrModifyReq& p) {
  put_id(w, p.movie_id);
  put_attrs(w, p.attrs);
}
void put_fields(Writer& w, const AttrModifyResp& p) {
  put_result(w, p.result);
}
void put_fields(Writer& w, const PlayReq& p) {
  put_id(w, p.movie_id);
  put_id(w, p.start_frame);
  w.ia5string(p.dest_host);
  w.integer(p.dest_port);
  // §6 QoS extension: OPTIONAL [0]/[1] EXPLICIT fields.
  const std::uint32_t qos[] = {p.qos_max_delay_ms, p.qos_max_jitter_ms};
  for (std::uint32_t tag = 0; tag < 2; ++tag) {
    if (qos[tag] == 0) continue;
    const std::size_t ctx = w.open(asn1::TagClass::ContextSpecific, tag);
    w.integer(qos[tag]);
    w.close(ctx);
  }
}
void put_fields(Writer& w, const PlayResp& p) {
  put_result(w, p.result);
  w.integer(p.stream_id);
}
void put_fields(Writer& w, const StopReq& p) { put_id(w, p.movie_id); }
void put_fields(Writer& w, const StopResp& p) {
  put_result(w, p.result);
  put_id(w, p.position);
}
void put_fields(Writer& w, const PauseReq& p) { put_id(w, p.movie_id); }
void put_fields(Writer& w, const PauseResp& p) { put_result(w, p.result); }
void put_fields(Writer& w, const ResumeReq& p) { put_id(w, p.movie_id); }
void put_fields(Writer& w, const ResumeResp& p) { put_result(w, p.result); }
void put_fields(Writer& w, const RecordReq& p) {
  w.ia5string(p.title);
  w.integer(p.equipment_id);
  put_attrs(w, p.attrs);
}
void put_fields(Writer& w, const RecordResp& p) {
  put_result(w, p.result);
  put_id(w, p.movie_id);
}
void put_fields(Writer& w, const RecordStopReq& p) { put_id(w, p.movie_id); }
void put_fields(Writer& w, const RecordStopResp& p) {
  put_result(w, p.result);
  put_id(w, p.frames);
}
void put_fields(Writer& w, const EquipListReq& p) { w.integer(p.kind); }
void put_fields(Writer& w, const EquipListResp& p) {
  put_result(w, p.result);
  const std::size_t list = w.open_sequence();
  for (const EquipItem& item : p.items) {
    const std::size_t row = w.open_sequence();
    w.integer(item.id);
    w.integer(item.kind);
    w.ia5string(item.name);
    w.boolean(item.powered);
    w.ia5string(item.reserved_by);
    w.close(row);
  }
  w.close(list);
}
void put_fields(Writer& w, const EquipControlReq& p) {
  w.integer(p.equipment_id);
  w.integer(p.command);
  w.ia5string(p.param);
  w.integer(p.value);
}
void put_fields(Writer& w, const EquipControlResp& p) {
  put_result(w, p.result);
  w.boolean(p.powered);
  w.integer(p.value);
  w.ia5string(p.reserved_by);
}
void put_fields(Writer& w, const MovieSearchReq& p) {
  put_filter(w, p.filter);
  w.boolean(p.chained);
}
void put_fields(Writer& w, const MovieSearchResp& p) {
  put_result(w, p.result);
  const std::size_t list = w.open_sequence();
  for (const SearchHit& hit : p.hits) {
    const std::size_t row = w.open_sequence();
    put_id(w, hit.movie_id);
    put_attrs(w, hit.attrs);
    w.close(row);
  }
  w.close(list);
}
void put_fields(Writer& w, const PositionInd& p) {
  put_id(w, p.movie_id);
  put_id(w, p.frame);
}
void put_fields(Writer& w, const ErrorResp& p) {
  put_result(w, p.result);
  w.ia5string(p.diagnostic);
}

// ---- decode: one field extraction over either node type -----------------
//
// N is asn1::Node (decode(), over validated bytes) or asn1::Value
// (pdu_from_value(), the reference). Both expose the same accessors with the
// same checks and messages, so the two instantiations agree on every input.

template <typename N>
Result<std::vector<Attr>> attrs_of(const N& list, const char* arity_error) {
  std::vector<Attr> out;
  out.reserve(list.size());
  for (const N& row : list.children()) {
    // One pass over the row; the arity error still comes first.
    auto it = row.children().begin();
    const auto end = row.children().end();
    if (it == end) return Error::make(kBadPduBody, arity_error);
    auto name = it->as_string();
    if (++it == end) return Error::make(kBadPduBody, arity_error);
    auto value = it->as_string();
    if (++it != end) return Error::make(kBadPduBody, arity_error);
    if (!name.ok()) return name.error();
    if (!value.ok()) return value.error();
    out.push_back(Attr{std::move(name).take(), std::move(value).take()});
  }
  return out;
}

template <typename N>
Result<std::vector<std::string>> names_of(const N& list) {
  std::vector<std::string> out;
  for (const N& row : list.children()) {
    auto s = row.as_string();
    if (!s.ok()) return s.error();
    out.push_back(std::move(s).take());
  }
  return out;
}

/// Sequential reader over the field list of a PDU body.
template <typename N>
class Fields {
 public:
  explicit Fields(const N& pdu)
      : it_(pdu.children().begin()), end_(pdu.children().end()) {}

  Result<std::int64_t> integer() {
    return next([](const N& v) { return v.as_int(); });
  }
  Result<std::string> text() {
    return next([](const N& v) { return v.as_string(); });
  }
  Result<ResultCode> result_code() {
    auto v = integer();
    if (!v.ok()) return v.error();
    return static_cast<ResultCode>(v.value());
  }
  Result<bool> boolean() {
    return next([](const N& v) { return v.as_bool(); });
  }
  Result<std::vector<Attr>> attrs() {
    return next([](const N& v) { return attrs_of(v, "attr row arity"); });
  }
  Result<std::vector<std::string>> names() {
    return next([](const N& v) { return names_of(v); });
  }

 private:
  template <typename F>
  auto next(F&& read) -> decltype(read(std::declval<const N&>())) {
    if (it_ == end_) return Error::make(kBadPduBody, "missing PDU field");
    auto r = read(*it_);
    ++it_;
    return r;
  }

  using Iterator = decltype(std::declval<const N&>().children().begin());
  Iterator it_;
  Iterator end_;
};

template <typename N>
Result<directory::Filter> filter_from(const N& v, int depth) {
  using directory::Filter;
  if (depth > 32) return Error::make(kBadFilter, "filter nesting too deep");
  if (v.tag_class() != asn1::TagClass::ContextSpecific || !v.constructed() ||
      v.size() != 1)
    return Error::make(kBadFilter, "malformed filter node");
  decltype(auto) body = v.child(0);
  switch (v.tag()) {
    case 0:
    case 1: {
      std::vector<Filter> kids;
      for (const N& c : body.children()) {
        auto k = filter_from(c, depth + 1);
        if (!k.ok()) return k.error();
        kids.push_back(std::move(k).take());
      }
      return v.tag() == 0 ? Filter::and_(std::move(kids))
                          : Filter::or_(std::move(kids));
    }
    case 2: {
      auto inner = filter_from(body, depth + 1);
      if (!inner.ok()) return inner.error();
      return Filter::not_(std::move(inner).take());
    }
    case 3:
    case 4: {
      if (body.size() != 2)
        return Error::make(kBadFilter, "match filter arity");
      auto attr = body.child(0).as_string();
      auto value = body.child(1).as_string();
      if (!attr.ok()) return attr.error();
      if (!value.ok()) return value.error();
      return v.tag() == 3 ? Filter::equal(std::move(attr).take(),
                                          std::move(value).take())
                          : Filter::substring(std::move(attr).take(),
                                              std::move(value).take());
    }
    case 5: {
      auto attr = body.as_string();
      if (!attr.ok()) return attr.error();
      return Filter::present(std::move(attr).take());
    }
    case 6:
      return Filter::all();
    default:
      return Error::make(kBadFilter, "unknown filter tag");
  }
}

template <typename N>
Result<Pdu> pdu_from(const N& v) {
  if (v.tag_class() != asn1::TagClass::Application || !v.constructed())
    return Error::make(kUnknownOp, "not an MCAM PDU: " + v.to_string());

  Fields<N> f(v);
  switch (static_cast<Op>(v.tag())) {
    case Op::AssociateReq: {
      auto user = f.text();
      auto version = f.integer();
      if (!user.ok()) return user.error();
      if (!version.ok()) return version.error();
      return Pdu{AssociateReq{std::move(user).take(),
                              static_cast<int>(version.value())}};
    }
    case Op::AssociateResp: {
      auto rc = f.result_code();
      auto diag = f.text();
      if (!rc.ok()) return rc.error();
      if (!diag.ok()) return diag.error();
      return Pdu{AssociateResp{rc.value(), std::move(diag).take()}};
    }
    case Op::ReleaseReq:
      return Pdu{ReleaseReq{}};
    case Op::ReleaseResp:
      return Pdu{ReleaseResp{}};
    case Op::MovieCreateReq: {
      auto title = f.text();
      auto attrs = f.attrs();
      if (!title.ok()) return title.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{MovieCreateReq{std::move(title).take(),
                                std::move(attrs).take()}};
    }
    case Op::MovieCreateResp: {
      auto rc = f.result_code();
      auto id = f.integer();
      if (!rc.ok()) return rc.error();
      if (!id.ok()) return id.error();
      return Pdu{MovieCreateResp{rc.value(),
                                 static_cast<std::uint64_t>(id.value())}};
    }
    case Op::MovieDeleteReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{MovieDeleteReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::MovieDeleteResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{MovieDeleteResp{rc.value()}};
    }
    case Op::MovieSelectReq: {
      auto title = f.text();
      if (!title.ok()) return title.error();
      return Pdu{MovieSelectReq{std::move(title).take()}};
    }
    case Op::MovieSelectResp: {
      auto rc = f.result_code();
      auto id = f.integer();
      auto attrs = f.attrs();
      if (!rc.ok()) return rc.error();
      if (!id.ok()) return id.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{MovieSelectResp{rc.value(),
                                 static_cast<std::uint64_t>(id.value()),
                                 std::move(attrs).take()}};
    }
    case Op::AttrQueryReq: {
      auto id = f.integer();
      auto names = f.names();
      if (!id.ok()) return id.error();
      if (!names.ok()) return names.error();
      return Pdu{AttrQueryReq{static_cast<std::uint64_t>(id.value()),
                              std::move(names).take()}};
    }
    case Op::AttrQueryResp: {
      auto rc = f.result_code();
      auto attrs = f.attrs();
      if (!rc.ok()) return rc.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{AttrQueryResp{rc.value(), std::move(attrs).take()}};
    }
    case Op::AttrModifyReq: {
      auto id = f.integer();
      auto attrs = f.attrs();
      if (!id.ok()) return id.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{AttrModifyReq{static_cast<std::uint64_t>(id.value()),
                               std::move(attrs).take()}};
    }
    case Op::AttrModifyResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{AttrModifyResp{rc.value()}};
    }
    case Op::PlayReq: {
      auto id = f.integer();
      auto start = f.integer();
      auto host = f.text();
      auto port = f.integer();
      if (!id.ok()) return id.error();
      if (!start.ok()) return start.error();
      if (!host.ok()) return host.error();
      if (!port.ok()) return port.error();
      PlayReq req{static_cast<std::uint64_t>(id.value()),
                  static_cast<std::uint64_t>(start.value()),
                  std::move(host).take(),
                  static_cast<std::uint16_t>(port.value()), 0, 0};
      if (const auto qd = v.find_context(0); qd && qd->size() == 1)
        req.qos_max_delay_ms = static_cast<std::uint32_t>(
            qd->child(0).as_int().value_or(0));
      if (const auto qj = v.find_context(1); qj && qj->size() == 1)
        req.qos_max_jitter_ms = static_cast<std::uint32_t>(
            qj->child(0).as_int().value_or(0));
      return Pdu{std::move(req)};
    }
    case Op::PlayResp: {
      auto rc = f.result_code();
      auto stream = f.integer();
      if (!rc.ok()) return rc.error();
      if (!stream.ok()) return stream.error();
      return Pdu{PlayResp{rc.value(),
                          static_cast<std::uint16_t>(stream.value())}};
    }
    case Op::StopReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{StopReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::StopResp: {
      auto rc = f.result_code();
      auto pos = f.integer();
      if (!rc.ok()) return rc.error();
      if (!pos.ok()) return pos.error();
      return Pdu{StopResp{rc.value(), static_cast<std::uint64_t>(pos.value())}};
    }
    case Op::PauseReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{PauseReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::PauseResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{PauseResp{rc.value()}};
    }
    case Op::ResumeReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{ResumeReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::ResumeResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{ResumeResp{rc.value()}};
    }
    case Op::RecordReq: {
      auto title = f.text();
      auto equip = f.integer();
      auto attrs = f.attrs();
      if (!title.ok()) return title.error();
      if (!equip.ok()) return equip.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{RecordReq{std::move(title).take(),
                           static_cast<std::uint32_t>(equip.value()),
                           std::move(attrs).take()}};
    }
    case Op::RecordResp: {
      auto rc = f.result_code();
      auto id = f.integer();
      if (!rc.ok()) return rc.error();
      if (!id.ok()) return id.error();
      return Pdu{RecordResp{rc.value(),
                            static_cast<std::uint64_t>(id.value())}};
    }
    case Op::RecordStopReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{RecordStopReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::RecordStopResp: {
      auto rc = f.result_code();
      auto frames = f.integer();
      if (!rc.ok()) return rc.error();
      if (!frames.ok()) return frames.error();
      return Pdu{RecordStopResp{rc.value(),
                                static_cast<std::uint64_t>(frames.value())}};
    }
    case Op::EquipListReq: {
      auto kind = f.integer();
      if (!kind.ok()) return kind.error();
      return Pdu{EquipListReq{static_cast<int>(kind.value())}};
    }
    case Op::EquipListResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      if (v.size() < 2) return Error::make(kBadPduBody, "missing item list");
      EquipListResp resp;
      resp.result = rc.value();
      for (const N& row : v.child(1).children()) {
        if (row.size() != 5) return Error::make(kBadPduBody, "item arity");
        Fields<N> item_fields(row);
        auto id = item_fields.integer();
        auto kind = item_fields.integer();
        auto name = item_fields.text();
        auto powered = item_fields.boolean();
        auto reserved = item_fields.text();
        if (!id.ok() || !kind.ok() || !name.ok() || !powered.ok() ||
            !reserved.ok())
          return Error::make(kBadPduBody, "bad equipment item");
        resp.items.push_back(EquipItem{
            static_cast<std::uint32_t>(id.value()),
            static_cast<int>(kind.value()), std::move(name).take(),
            powered.value(), std::move(reserved).take()});
      }
      return Pdu{std::move(resp)};
    }
    case Op::EquipControlReq: {
      auto id = f.integer();
      auto cmd = f.integer();
      auto param = f.text();
      auto value = f.integer();
      if (!id.ok()) return id.error();
      if (!cmd.ok()) return cmd.error();
      if (!param.ok()) return param.error();
      if (!value.ok()) return value.error();
      return Pdu{EquipControlReq{static_cast<std::uint32_t>(id.value()),
                                 static_cast<int>(cmd.value()),
                                 std::move(param).take(),
                                 static_cast<int>(value.value())}};
    }
    case Op::EquipControlResp: {
      auto rc = f.result_code();
      auto powered = f.boolean();
      auto value = f.integer();
      auto reserved = f.text();
      if (!rc.ok()) return rc.error();
      if (!powered.ok()) return powered.error();
      if (!value.ok()) return value.error();
      if (!reserved.ok()) return reserved.error();
      return Pdu{EquipControlResp{rc.value(), powered.value(),
                                  static_cast<int>(value.value()),
                                  std::move(reserved).take()}};
    }
    case Op::MovieSearchReq: {
      if (v.size() < 2) return Error::make(kBadPduBody, "short search req");
      auto filter = filter_from(v.child(0), 0);
      if (!filter.ok()) return filter.error();
      auto chained = v.child(1).as_bool();
      if (!chained.ok()) return chained.error();
      return Pdu{MovieSearchReq{std::move(filter).take(), chained.value()}};
    }
    case Op::MovieSearchResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      if (v.size() < 2) return Error::make(kBadPduBody, "short search resp");
      MovieSearchResp resp;
      resp.result = rc.value();
      for (const N& row : v.child(1).children()) {
        if (row.size() != 2) return Error::make(kBadPduBody, "hit arity");
        auto id = row.child(0).as_int();
        if (!id.ok()) return id.error();
        auto attrs = attrs_of(row.child(1), "hit attr arity");
        if (!attrs.ok()) return attrs.error();
        resp.hits.push_back(SearchHit{static_cast<std::uint64_t>(id.value()),
                                      std::move(attrs).take()});
      }
      return Pdu{std::move(resp)};
    }
    case Op::PositionInd: {
      auto id = f.integer();
      auto frame = f.integer();
      if (!id.ok()) return id.error();
      if (!frame.ok()) return frame.error();
      return Pdu{PositionInd{static_cast<std::uint64_t>(id.value()),
                             static_cast<std::uint64_t>(frame.value())}};
    }
    case Op::ErrorResp: {
      auto rc = f.result_code();
      auto diag = f.text();
      if (!rc.ok()) return rc.error();
      if (!diag.ok()) return diag.error();
      return Pdu{ErrorResp{rc.value(), std::move(diag).take()}};
    }
  }
  return Error::make(kUnknownOp,
                     "unknown MCAM operation tag " + std::to_string(v.tag()));
}

}  // namespace

Op op_of(const Pdu& pdu) noexcept {
  return std::visit(
      [](const auto& p) -> Op {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, AssociateReq>) return Op::AssociateReq;
        else if constexpr (std::is_same_v<T, AssociateResp>) return Op::AssociateResp;
        else if constexpr (std::is_same_v<T, ReleaseReq>) return Op::ReleaseReq;
        else if constexpr (std::is_same_v<T, ReleaseResp>) return Op::ReleaseResp;
        else if constexpr (std::is_same_v<T, MovieCreateReq>) return Op::MovieCreateReq;
        else if constexpr (std::is_same_v<T, MovieCreateResp>) return Op::MovieCreateResp;
        else if constexpr (std::is_same_v<T, MovieDeleteReq>) return Op::MovieDeleteReq;
        else if constexpr (std::is_same_v<T, MovieDeleteResp>) return Op::MovieDeleteResp;
        else if constexpr (std::is_same_v<T, MovieSelectReq>) return Op::MovieSelectReq;
        else if constexpr (std::is_same_v<T, MovieSelectResp>) return Op::MovieSelectResp;
        else if constexpr (std::is_same_v<T, AttrQueryReq>) return Op::AttrQueryReq;
        else if constexpr (std::is_same_v<T, AttrQueryResp>) return Op::AttrQueryResp;
        else if constexpr (std::is_same_v<T, AttrModifyReq>) return Op::AttrModifyReq;
        else if constexpr (std::is_same_v<T, AttrModifyResp>) return Op::AttrModifyResp;
        else if constexpr (std::is_same_v<T, PlayReq>) return Op::PlayReq;
        else if constexpr (std::is_same_v<T, PlayResp>) return Op::PlayResp;
        else if constexpr (std::is_same_v<T, StopReq>) return Op::StopReq;
        else if constexpr (std::is_same_v<T, StopResp>) return Op::StopResp;
        else if constexpr (std::is_same_v<T, PauseReq>) return Op::PauseReq;
        else if constexpr (std::is_same_v<T, PauseResp>) return Op::PauseResp;
        else if constexpr (std::is_same_v<T, ResumeReq>) return Op::ResumeReq;
        else if constexpr (std::is_same_v<T, ResumeResp>) return Op::ResumeResp;
        else if constexpr (std::is_same_v<T, RecordReq>) return Op::RecordReq;
        else if constexpr (std::is_same_v<T, RecordResp>) return Op::RecordResp;
        else if constexpr (std::is_same_v<T, RecordStopReq>) return Op::RecordStopReq;
        else if constexpr (std::is_same_v<T, RecordStopResp>) return Op::RecordStopResp;
        else if constexpr (std::is_same_v<T, EquipListReq>) return Op::EquipListReq;
        else if constexpr (std::is_same_v<T, EquipListResp>) return Op::EquipListResp;
        else if constexpr (std::is_same_v<T, EquipControlReq>) return Op::EquipControlReq;
        else if constexpr (std::is_same_v<T, EquipControlResp>) return Op::EquipControlResp;
        else if constexpr (std::is_same_v<T, MovieSearchReq>) return Op::MovieSearchReq;
        else if constexpr (std::is_same_v<T, MovieSearchResp>) return Op::MovieSearchResp;
        else if constexpr (std::is_same_v<T, PositionInd>) return Op::PositionInd;
        else return Op::ErrorResp;
      },
      pdu);
}

Bytes encode(const Pdu& pdu) {
  return asn1::write_exact([&pdu](Writer& w) {
    const std::size_t body = w.open(asn1::TagClass::Application,
                                    static_cast<std::uint32_t>(op_of(pdu)));
    std::visit([&w](const auto& p) { put_fields(w, p); }, pdu);
    w.close(body);
  });
}

common::Result<Op> peek_op(common::ByteSpan raw) {
  auto root = asn1::Node::parse(raw);
  if (!root.ok()) return root.error();
  if (root.value().tag_class() != asn1::TagClass::Application)
    return Error::make(kUnknownOp, "not an MCAM PDU");
  return static_cast<Op>(root.value().tag());
}

common::Result<Pdu> decode(common::ByteSpan raw) {
  auto root = asn1::Node::parse(raw);
  if (!root.ok()) return root.error();
  return pdu_from(root.value());
}

common::Result<Pdu> pdu_from_value(const asn1::Value& v) { return pdu_from(v); }

}  // namespace mcam::core
