#include "estelle/transport/frame.hpp"

#include <cstring>
#include <utility>

#include "asn1/ber.hpp"

namespace mcam::estelle {

using asn1::Value;
using common::ByteSpan;
using common::Bytes;
using common::Error;
using common::Result;

namespace {

/// u64 fields ride the INTEGER as an int64 bit-cast on both sides, so the
/// full range (hashes) round-trips exactly.
Value u64v(std::uint64_t v) {
  return Value::integer(static_cast<std::int64_t>(v));
}

Result<std::uint64_t> get_u64(const Value& seq, std::size_t i) {
  if (i >= seq.size())
    return Error::make(asn1::kTruncated, "frame field " + std::to_string(i) +
                                             " missing");
  Result<std::int64_t> v = seq.child(i).as_int();
  if (!v.ok()) return v.error();
  return static_cast<std::uint64_t>(v.value());
}

Result<std::uint32_t> get_u32(const Value& seq, std::size_t i) {
  Result<std::uint64_t> v = get_u64(seq, i);
  if (!v.ok()) return v.error();
  if (v.value() > 0xffffffffull)
    return Error::make(asn1::kWrongType, "frame field " + std::to_string(i) +
                                             " out of u32 range");
  return static_cast<std::uint32_t>(v.value());
}

Result<bool> get_bool(const Value& seq, std::size_t i) {
  if (i >= seq.size())
    return Error::make(asn1::kTruncated, "frame field " + std::to_string(i) +
                                             " missing");
  return seq.child(i).as_bool();
}

Result<std::string> get_str(const Value& seq, std::size_t i) {
  if (i >= seq.size())
    return Error::make(asn1::kTruncated, "frame field " + std::to_string(i) +
                                             " missing");
  return seq.child(i).as_string();
}

// ---------------------------------------------------------------------------
// Direct BER writer — the transfer hot path.
//
// Transfer and TransferBatch are the only frames sent per message rather than
// per round, so they skip the Value-tree construction entirely: lengths are
// computed arithmetically and the TLVs are written straight into the caller's
// buffer. With the buffer warmed to capacity the encode allocates nothing.
// The emitted octets are exactly what the tree encoder would produce (same
// minimal two's-complement INTEGERs, same definite lengths), so the general
// decoder reads them back unchanged — a property the frame tests pin.

std::size_t int_content_len(std::int64_t v) noexcept {
  std::size_t n = 1;
  while (v > 127 || v < -128) {
    v >>= 8;
    ++n;
  }
  return n;
}

std::size_t len_octets(std::size_t n) noexcept {
  if (n < 128) return 1;
  if (n < 256) return 2;
  if (n < 65536) return 3;
  return 4;  // < 2^24 always: bodies are capped by kMaxFrameBytes
}

/// Octets of a complete low-tag TLV holding `content` content octets.
std::size_t tlv_len(std::size_t content) noexcept {
  return 1 + len_octets(content) + content;
}

std::size_t int_tlv_len(std::int64_t v) noexcept {
  return tlv_len(int_content_len(v));
}

void put_header(Bytes& out, std::uint8_t tag, std::size_t content) {
  out.push_back(tag);
  if (content < 128) {
    out.push_back(static_cast<std::uint8_t>(content));
    return;
  }
  const int b = content < 256 ? 1 : content < 65536 ? 2 : 3;
  out.push_back(static_cast<std::uint8_t>(0x80 | b));
  for (int i = b; i-- > 0;)
    out.push_back(static_cast<std::uint8_t>(content >> (8 * i)));
}

void put_int(Bytes& out, std::int64_t v) {
  const std::size_t n = int_content_len(v);
  put_header(out, 0x02, n);  // INTEGER
  for (std::size_t i = n; i-- > 0;)
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(v) >> (8 * i)));
}

bool has_value(const Interaction& msg) { return !(msg.value == Value()); }

/// Content length of the Transfer/batch-entry field list from `first` on
/// (Transfer inserts the round between dir and sent_at_ns; entries omit it).
std::size_t msg_fields_len(const Interaction& msg) {
  std::size_t n = int_tlv_len(msg.kind) + tlv_len(msg.payload.size());
  if (has_value(msg)) n += tlv_len(asn1::encoded_length(msg.value));
  return n;
}

void put_msg_fields(Bytes& out, const Interaction& msg) {
  put_int(out, msg.kind);
  put_header(out, 0x04, msg.payload.size());  // OCTET STRING
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  if (has_value(msg)) {
    put_header(out, 0xA0, asn1::encoded_length(msg.value));  // [0] EXPLICIT
    asn1::encode_to(msg.value, out);
  }
}

std::size_t transfer_body_len(const Frame& f) {
  return int_tlv_len(static_cast<std::int64_t>(f.channel)) +
         int_tlv_len(f.dir) + int_tlv_len(static_cast<std::int64_t>(f.round)) +
         int_tlv_len(f.sent_at_ns) + msg_fields_len(f.msg);
}

std::size_t entry_content_len(const TransferEntry& e) {
  return int_tlv_len(static_cast<std::int64_t>(e.channel)) +
         int_tlv_len(e.dir) + int_tlv_len(e.sent_at_ns) +
         msg_fields_len(e.msg);
}

std::size_t batch_body_len(const Frame& f, std::size_t* entries_content) {
  std::size_t entries = 0;
  for (const TransferEntry& e : f.entries) entries += tlv_len(entry_content_len(e));
  *entries_content = entries;
  return int_tlv_len(static_cast<std::int64_t>(f.round)) + tlv_len(entries);
}

/// The frame body as an ASN.1 value (the catalogue in frame.hpp).
Value frame_value(const Frame& f) {
  std::vector<Value> body;
  switch (f.type) {
    case FrameType::Hello:
      body = {u64v(f.node),      u64v(f.nodes),
              u64v(f.shards),    u64v(f.spec_hash),
              u64v(f.topology_version), u64v(f.assign_hash)};
      break;
    case FrameType::Welcome:
      body = {u64v(f.node), Value::boolean(f.accept),
              Value::utf8string(f.reason)};
      break;
    case FrameType::Transfer: {
      body = {u64v(f.channel),     Value::integer(f.dir),
              u64v(f.round),       Value::integer(f.sent_at_ns),
              Value::integer(f.msg.kind), Value::octet_string(f.msg.payload)};
      // The structured parameters travel as-is — the Interaction's value IS
      // an ASN.1 value, wrapped [0] EXPLICIT only to mark presence.
      if (!(f.msg.value == Value()))
        body.push_back(Value::context(0, f.msg.value));
      break;
    }
    case FrameType::RoundDone:
      body = {u64v(f.node), u64v(f.round), Value::boolean(f.quiescent)};
      break;
    case FrameType::Bye:
      body = {u64v(f.node)};
      break;
    case FrameType::HelloResume:
      body = {u64v(f.node), u64v(f.spec_hash), u64v(f.epoch), u64v(f.recv)};
      break;
    case FrameType::SessionAck:
      body = {u64v(f.recv)};
      break;
    case FrameType::TransferBatch: {
      // Reference encoding only: encode_frame_to routes batches through the
      // direct writer; the tests pin both to the same octets.
      std::vector<Value> entries;
      entries.reserve(f.entries.size());
      for (const TransferEntry& e : f.entries) {
        std::vector<Value> ev = {u64v(e.channel), Value::integer(e.dir),
                                 Value::integer(e.sent_at_ns),
                                 Value::integer(e.msg.kind),
                                 Value::octet_string(e.msg.payload)};
        if (has_value(e.msg)) ev.push_back(Value::context(0, e.msg.value));
        entries.push_back(Value::sequence(std::move(ev)));
      }
      body = {u64v(f.round), Value::sequence(std::move(entries))};
      break;
    }
  }
  return Value::application(static_cast<std::uint32_t>(f.type),
                            std::move(body));
}

/// One batch entry from its SEQUENCE value. Returns false on any structural
/// defect — the caller skips the entry (and counts it) instead of failing
/// the whole frame: the length prefix already guaranteed framing, so one
/// corrupt entry must not take down its siblings.
bool entry_from_value(const Value& ev, TransferEntry& e) {
  if (!ev.is_universal(asn1::UniversalTag::Sequence) || !ev.constructed())
    return false;
  Result<std::uint32_t> channel = get_u32(ev, 0);
  if (!channel.ok()) return false;
  e.channel = channel.value();
  Result<std::uint32_t> dir = get_u32(ev, 1);
  if (!dir.ok() || dir.value() > 1) return false;
  e.dir = static_cast<std::uint8_t>(dir.value());
  Result<std::uint64_t> sent_at = get_u64(ev, 2);
  if (!sent_at.ok()) return false;
  e.sent_at_ns = static_cast<std::int64_t>(sent_at.value());
  Result<std::uint32_t> kind = get_u32(ev, 3);
  if (!kind.ok()) return false;
  e.msg.kind = static_cast<int>(kind.value());
  if (ev.size() < 5) return false;
  Result<Bytes> payload = ev.child(4).as_octets();
  if (!payload.ok()) return false;
  e.msg.payload = std::move(payload).value();
  if (const Value* wrapped = ev.find_context(0)) {
    Result<Value> inner = wrapped->unwrap_context(0);
    if (!inner.ok()) return false;
    e.msg.value = std::move(inner).value();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Direct BER reader — the batch receive hot path.
//
// Mirrors the direct writer: a TransferBatch body is picked apart with a
// cursor instead of materializing the Value tree, whose per-entry child
// vectors dominated receive-side profiles. Outer-structure defects fall back
// to the reference tree decoder; entry-level defects degrade to per-entry
// rejection exactly like entry_from_value.

struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  std::size_t left() const noexcept {
    return static_cast<std::size_t>(end - p);
  }
};

/// Low-tag definite-length header. False on truncation, high-tag-number
/// form, or indefinite/overlong length — shapes the writer never emits.
bool read_header(Cursor& c, std::uint8_t* id, std::size_t* len) {
  if (c.left() < 2) return false;
  *id = c.p[0];
  if ((*id & 0x1f) == 0x1f) return false;
  const std::uint8_t l = c.p[1];
  c.p += 2;
  if (l < 0x80) {
    *len = l;
  } else {
    const std::size_t n = l & 0x7f;
    if (n == 0 || n > 4 || c.left() < n) return false;
    std::size_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | c.p[i];
    c.p += n;
    *len = v;
  }
  return *len <= c.left();
}

/// Primitive INTEGER with 1..8 content octets (as_int's accepted range).
bool read_int(Cursor& c, std::int64_t* out) {
  std::uint8_t id = 0;
  std::size_t len = 0;
  if (!read_header(c, &id, &len)) return false;
  if (id != 0x02 || len == 0 || len > 8) return false;
  std::int64_t v = (c.p[0] & 0x80) ? -1 : 0;
  for (std::size_t i = 0; i < len; ++i) v = (v << 8) | c.p[i];
  c.p += len;
  *out = v;
  return true;
}

/// One delimited batch entry (cursor by value: the entry's own length
/// already bounds it). Field semantics match entry_from_value: u32 range
/// checks, dir 0/1, any primitive accepted as the payload octets, first
/// [0] EXPLICIT child is the structured value, unknown trailing fields
/// ignored.
bool read_entry(Cursor c, TransferEntry* e) {
  std::int64_t v = 0;
  if (!read_int(c, &v) || v < 0 || v > 0xffffffffll) return false;
  e->channel = static_cast<std::uint32_t>(v);
  if (!read_int(c, &v) || v < 0 || v > 1) return false;
  e->dir = static_cast<std::uint8_t>(v);
  if (!read_int(c, &v)) return false;
  e->sent_at_ns = v;
  if (!read_int(c, &v) || v < 0 || v > 0xffffffffll) return false;
  e->msg.kind = static_cast<int>(v);
  std::uint8_t id = 0;
  std::size_t len = 0;
  if (!read_header(c, &id, &len) || (id & 0x20) != 0) return false;
  e->msg.payload.assign(c.p, c.p + len);
  c.p += len;
  while (read_header(c, &id, &len)) {
    if ((id & 0xc0) == 0x80 && (id & 0x1f) == 0) {
      if ((id & 0x20) == 0) return false;  // [0] primitive: unwrap would fail
      Result<Value> inner = asn1::decode(ByteSpan{c.p, len});
      if (!inner.ok()) return false;
      e->msg.value = std::move(inner).value();
      return true;
    }
    c.p += len;
  }
  return true;
}

/// Direct decode of a TransferBatch body. False when the outer shape is not
/// the writer's clean form — the caller retries on the tree decoder, which
/// stays the semantics reference for hostile input.
bool read_batch_body(ByteSpan body, Frame* f) {
  Cursor c{body.data(), body.data() + body.size()};
  std::uint8_t id = 0;
  std::size_t len = 0;
  if (!read_header(c, &id, &len) || id != 0x6A || len != c.left())
    return false;  // [APPLICATION 10] filling the whole body
  std::int64_t round = 0;
  if (!read_int(c, &round)) return false;
  f->round = static_cast<std::uint64_t>(round);
  if (!read_header(c, &id, &len) || id != 0x30 || len != c.left())
    return false;  // SEQUENCE OF entry
  while (c.left() > 0) {
    if (!read_header(c, &id, &len)) return false;  // cannot delimit entries
    TransferEntry e;
    if (id == 0x30 && read_entry(Cursor{c.p, c.p + len}, &e))
      f->entries.push_back(std::move(e));
    else
      ++f->rejected_entries;
    c.p += len;
  }
  return true;
}

#define TRY_FIELD(dest, expr)              \
  do {                                     \
    auto r_ = (expr);                      \
    if (!r_.ok()) return r_.error();       \
    (dest) = std::move(r_).value();        \
  } while (0)

Result<Frame> frame_from_value(const Value& v) {
  if (v.tag_class() != asn1::TagClass::Application || !v.constructed())
    return Error::make(asn1::kBadTag, "frame: not an APPLICATION envelope");
  Frame f;
  f.type = static_cast<FrameType>(v.tag());
  switch (f.type) {
    case FrameType::Hello:
      TRY_FIELD(f.node, get_u32(v, 0));
      TRY_FIELD(f.nodes, get_u32(v, 1));
      TRY_FIELD(f.shards, get_u32(v, 2));
      TRY_FIELD(f.spec_hash, get_u64(v, 3));
      TRY_FIELD(f.topology_version, get_u64(v, 4));
      TRY_FIELD(f.assign_hash, get_u64(v, 5));
      break;
    case FrameType::Welcome:
      TRY_FIELD(f.node, get_u32(v, 0));
      TRY_FIELD(f.accept, get_bool(v, 1));
      TRY_FIELD(f.reason, get_str(v, 2));
      break;
    case FrameType::Transfer: {
      TRY_FIELD(f.channel, get_u32(v, 0));
      std::uint32_t dir = 0;
      TRY_FIELD(dir, get_u32(v, 1));
      if (dir > 1)
        return Error::make(asn1::kWrongType, "transfer: dir not 0/1");
      f.dir = static_cast<std::uint8_t>(dir);
      TRY_FIELD(f.round, get_u64(v, 2));
      std::uint64_t sent_at = 0;
      TRY_FIELD(sent_at, get_u64(v, 3));
      f.sent_at_ns = static_cast<std::int64_t>(sent_at);
      std::uint32_t kind = 0;
      TRY_FIELD(kind, get_u32(v, 4));
      f.msg.kind = static_cast<int>(kind);
      TRY_FIELD(f.msg.payload, (v.size() > 5 ? v.child(5).as_octets()
                                             : Result<Bytes>(Error::make(
                                                   asn1::kTruncated,
                                                   "transfer: no payload"))));
      if (const Value* wrapped = v.find_context(0)) {
        Result<Value> inner = wrapped->unwrap_context(0);
        if (!inner.ok()) return inner.error();
        f.msg.value = std::move(inner).value();
      }
      break;
    }
    case FrameType::RoundDone:
      TRY_FIELD(f.node, get_u32(v, 0));
      TRY_FIELD(f.round, get_u64(v, 1));
      TRY_FIELD(f.quiescent, get_bool(v, 2));
      break;
    case FrameType::Bye:
      TRY_FIELD(f.node, get_u32(v, 0));
      break;
    case FrameType::HelloResume:
      TRY_FIELD(f.node, get_u32(v, 0));
      TRY_FIELD(f.spec_hash, get_u64(v, 1));
      TRY_FIELD(f.epoch, get_u64(v, 2));
      TRY_FIELD(f.recv, get_u64(v, 3));
      break;
    case FrameType::SessionAck:
      TRY_FIELD(f.recv, get_u64(v, 0));
      break;
    case FrameType::TransferBatch: {
      TRY_FIELD(f.round, get_u64(v, 0));
      if (v.size() < 2)
        return Error::make(asn1::kTruncated, "transfer-batch: no entry list");
      const Value& list = v.child(1);
      if (!list.is_universal(asn1::UniversalTag::Sequence) ||
          !list.constructed())
        return Error::make(asn1::kWrongType,
                           "transfer-batch: entries are not a SEQUENCE");
      f.entries.reserve(list.size());
      for (std::size_t i = 0; i < list.size(); ++i) {
        TransferEntry e;
        if (entry_from_value(list.child(i), e))
          f.entries.push_back(std::move(e));
        else
          ++f.rejected_entries;
      }
      break;
    }
    default:
      return Error::make(asn1::kBadTag,
                         "frame: unknown type " + std::to_string(v.tag()));
  }
  return f;
}

#undef TRY_FIELD

}  // namespace

const char* frame_type_name(FrameType t) noexcept {
  switch (t) {
    case FrameType::Hello:
      return "hello";
    case FrameType::Welcome:
      return "welcome";
    case FrameType::Transfer:
      return "transfer";
    case FrameType::RoundDone:
      return "round-done";
    case FrameType::Bye:
      return "bye";
    case FrameType::TransferBatch:
      return "transfer-batch";
    case FrameType::HelloResume:
      return "hello-resume";
    case FrameType::SessionAck:
      return "session-ack";
  }
  return "?";
}

namespace {

void put_length_prefix(Bytes& out, std::size_t body_len) {
  out.push_back(static_cast<std::uint8_t>(body_len >> 24));
  out.push_back(static_cast<std::uint8_t>(body_len >> 16));
  out.push_back(static_cast<std::uint8_t>(body_len >> 8));
  out.push_back(static_cast<std::uint8_t>(body_len));
}

void put_seq(Bytes& out, std::uint64_t seq) {
  for (int i = 8; i-- > 0;)
    out.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
}

/// Shared emitter: `seq == nullptr` gives the plain dialect, otherwise the
/// sequenced record (length | seq | body). The body octets are identical.
void emit_frame(const Frame& f, const std::uint64_t* seq, Bytes& out) {
  // The per-message frames go through the direct writer; everything else is
  // per-round or per-run and keeps the simpler Value-tree path.
  if (f.type == FrameType::Transfer) {
    const std::size_t content = transfer_body_len(f);
    put_length_prefix(out, tlv_len(content));
    if (seq != nullptr) put_seq(out, *seq);
    put_header(out, 0x63, content);  // [APPLICATION 3]
    put_int(out, static_cast<std::int64_t>(f.channel));
    put_int(out, f.dir);
    put_int(out, static_cast<std::int64_t>(f.round));
    put_int(out, f.sent_at_ns);
    put_msg_fields(out, f.msg);
    return;
  }
  if (f.type == FrameType::TransferBatch) {
    std::size_t entries_content = 0;
    const std::size_t content = batch_body_len(f, &entries_content);
    put_length_prefix(out, tlv_len(content));
    if (seq != nullptr) put_seq(out, *seq);
    put_header(out, 0x6A, content);  // [APPLICATION 10]
    put_int(out, static_cast<std::int64_t>(f.round));
    put_header(out, 0x30, entries_content);  // SEQUENCE OF entry
    for (const TransferEntry& e : f.entries) {
      put_header(out, 0x30, entry_content_len(e));
      put_int(out, static_cast<std::int64_t>(e.channel));
      put_int(out, e.dir);
      put_int(out, e.sent_at_ns);
      put_msg_fields(out, e.msg);
    }
    return;
  }
  const Value v = frame_value(f);
  put_length_prefix(out, asn1::encoded_length(v));
  if (seq != nullptr) put_seq(out, *seq);
  asn1::encode_to(v, out);
}

}  // namespace

void encode_frame_to(const Frame& f, Bytes& out) {
  emit_frame(f, nullptr, out);
}

void encode_frame_seq_to(const Frame& f, std::uint64_t seq, Bytes& out) {
  emit_frame(f, &seq, out);
}

Bytes encode_frame(const Frame& f) {
  Bytes out;
  encode_frame_to(f, out);
  return out;
}

Result<Frame> decode_frame(ByteSpan body) {
  // Batch frames take the direct reader; a shape it cannot digest falls
  // back to the tree path below, which keeps the reference semantics (and
  // the error messages) for everything unusual.
  if (!body.empty() && body[0] == 0x6A) {
    Frame f;
    f.type = FrameType::TransferBatch;
    if (read_batch_body(body, &f)) return f;
  }
  Result<Value> v = asn1::decode(body);
  if (!v.ok()) return v.error();
  return frame_from_value(v.value());
}

void FrameReassembler::feed(ByteSpan data) {
  // Compact before growing. A fully-drained buffer rewinds for free; a
  // buffer whose consumed prefix either dominates it or is the difference
  // between fitting and regrowing slides its tail down with memmove. Only
  // after reclaiming the prefix may the insert extend capacity — so a
  // steady stream of frames no larger than the high-water mark never
  // reallocates, whatever read()-boundary splits arrive.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 0 && (buf_.size() + data.size() > buf_.capacity() ||
                          (pos_ > 4096 && pos_ * 2 >= buf_.size()))) {
    std::memmove(buf_.data(), buf_.data() + pos_, buf_.size() - pos_);
    buf_.resize(buf_.size() - pos_);
    pos_ = 0;
  }
  const std::size_t cap = buf_.capacity();
  buf_.insert(buf_.end(), data.begin(), data.end());
  if (buf_.capacity() != cap) ++regrowths_;
}

FrameReassembler::Next FrameReassembler::next(Frame* out, std::string* error) {
  const std::size_t header = seq_prefixed_ ? 12 : 4;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < header) return Next::kNeedMore;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::size_t body_len = (static_cast<std::size_t>(p[0]) << 24) |
                               (static_cast<std::size_t>(p[1]) << 16) |
                               (static_cast<std::size_t>(p[2]) << 8) |
                               static_cast<std::size_t>(p[3]);
  if (body_len > kMaxFrameBytes) {
    if (error != nullptr)
      *error = "frame length " + std::to_string(body_len) +
               " exceeds limit — stream corrupt";
    return Next::kError;
  }
  if (avail < header + body_len) return Next::kNeedMore;
  Result<Frame> f = decode_frame(ByteSpan{p + header, body_len});
  if (!f.ok()) {
    // A framed-but-undecodable body means the peer speaks another dialect
    // (or the stream desynchronized); resynchronizing inside BER garbage is
    // hopeless, so the stream dies here.
    if (error != nullptr) *error = "frame decode: " + f.error().message;
    return Next::kError;
  }
  if (seq_prefixed_) {
    std::uint64_t seq = 0;
    for (int i = 4; i < 12; ++i) seq = (seq << 8) | p[i];
    last_seq_ = seq;
  }
  pos_ += header + body_len;
  *out = std::move(f).value();
  return Next::kFrame;
}

}  // namespace mcam::estelle
