#include "estelle/transport/frame.hpp"

#include <cstring>
#include <optional>
#include <utility>

#include "asn1/direct.hpp"

namespace mcam::estelle {

using asn1::TagClass;
using asn1::Writer;
using common::ByteSpan;
using common::Bytes;
using common::Error;
using common::Result;
using common::Status;

namespace {

// ---------------------------------------------------------------------------
// Encode: the direct writer.
//
// TransferBatch is the only frame whose size grows with the traffic, so its
// lengths are computed arithmetically and the TLVs written straight into the
// caller's buffer: with the buffer warmed to capacity the encode allocates
// nothing, and no entry is moved after it is written. The per-round and
// per-run frames are small, so the writer's open()/close() patches their
// envelope length in place.

constexpr auto kBatchTag = static_cast<std::uint32_t>(FrameType::TransferBatch);
constexpr auto kOctets =
    static_cast<std::uint32_t>(asn1::UniversalTag::OctetString);
constexpr auto kSequence =
    static_cast<std::uint32_t>(asn1::UniversalTag::Sequence);

/// Content length of the Interaction's fields: kind, payload and, unless
/// the value is 0 (none), the value as [0] EXPLICIT INTEGER.
std::size_t msg_fields_len(const Interaction& msg) {
  std::size_t n = Writer::int_tlv_len(msg.kind) +
                  Writer::tlv_len(kOctets, msg.payload.size());
  if (msg.value != 0) n += Writer::tlv_len(0, Writer::int_tlv_len(msg.value));
  return n;
}

void put_msg_fields(Writer& w, const Interaction& msg) {
  w.integer(msg.kind);
  w.octet_string(msg.payload);
  if (msg.value != 0) {
    w.header(TagClass::ContextSpecific, true, 0,
             Writer::int_tlv_len(msg.value));
    w.integer(msg.value);
  }
}

std::size_t entry_content_len(const TransferEntry& e) {
  return Writer::int_tlv_len(static_cast<std::int64_t>(e.channel)) +
         Writer::int_tlv_len(e.dir) + Writer::int_tlv_len(e.sent_at_ns) +
         msg_fields_len(e.msg);
}

std::size_t batch_body_len(const Frame& f, std::size_t* entries_content) {
  std::size_t entries = 0;
  for (const TransferEntry& e : f.entries)
    entries += Writer::tlv_len(kSequence, entry_content_len(e));
  *entries_content = entries;
  return Writer::int_tlv_len(static_cast<std::int64_t>(f.round)) +
         Writer::tlv_len(kSequence, entries);
}

/// The fields of a per-round or per-run frame (the catalogue in frame.hpp).
/// u64 fields ride the INTEGER as an int64 bit-cast, so the full range
/// (hashes) round-trips exactly.
void put_control_fields(Writer& w, const Frame& f) {
  const auto u64 = [&w](std::uint64_t v) {
    w.integer(static_cast<std::int64_t>(v));
  };
  switch (f.type) {
    case FrameType::Hello:
      u64(f.node);
      u64(f.nodes);
      u64(f.shards);
      u64(f.spec_hash);
      u64(f.topology_version);
      u64(f.assign_hash);
      break;
    case FrameType::Welcome:
      u64(f.node);
      w.boolean(f.accept);
      w.utf8string(f.reason);
      break;
    case FrameType::RoundDone:
      u64(f.node);
      u64(f.round);
      w.boolean(f.quiescent);
      break;
    case FrameType::Bye:
      u64(f.node);
      break;
    case FrameType::HelloResume:
      u64(f.node);
      u64(f.spec_hash);
      u64(f.epoch);
      u64(f.recv);
      break;
    case FrameType::SessionAck:
      u64(f.recv);
      break;
    case FrameType::TransferBatch:
      break;  // emit_frame writes it with precomputed lengths
  }
}

// ---------------------------------------------------------------------------
// Decode: one field extraction over either node type.
//
// N is asn1::Node for every frame body (validated, read in place) and
// asn1::Value for the reference, frame_from_value; the two instantiations
// agree on every input.

/// Sequential reader over a frame's (or batch entry's) field list. Each read
/// returns false when the field is missing or malformed; error() then gives
/// what the tree path reports (errors name the field's index). Only a
/// failed read builds an Error.
template <typename N>
class FrameFields {
 public:
  explicit FrameFields(const N& seq)
      : it_(seq.children().begin()), end_(seq.children().end()) {}

  [[nodiscard]] bool more() const { return it_ != end_; }
  /// The next field itself, unread (more() must hold).
  [[nodiscard]] const N& peek() const { return *it_; }

  bool u64(std::uint64_t& out) {
    if (!more()) return fail(Failed::kMissing, index_);
    std::int64_t v = 0;
    if (!asn1::detail::int_value(*it_, v)) return fail(Failed::kInteger, index_);
    out = static_cast<std::uint64_t>(v);
    advance();
    return true;
  }
  bool u32(std::uint32_t& out) {
    std::uint64_t v = 0;
    if (!u64(v)) return false;
    if (v > 0xffffffffull) return fail(Failed::kU32Range, index_ - 1);
    out = static_cast<std::uint32_t>(v);
    return true;
  }
  bool boolean(bool& out) {
    if (!more()) return fail(Failed::kMissing, index_);
    Result<bool> v = (*it_).as_bool();
    if (!v.ok()) return fail(Failed::kBoolean, index_);
    out = v.value();
    advance();
    return true;
  }
  bool text(std::string& out) {
    if (!more()) return fail(Failed::kMissing, index_);
    Result<std::string> v = (*it_).as_string();
    if (!v.ok()) return fail(Failed::kText, index_);
    out = std::move(v).take();
    advance();
    return true;
  }
  /// The index find_context(0) would find: the first [0] field, among those
  /// read so far and the rest, which this reads to the end.
  std::optional<std::size_t> first_context0() {
    while (more()) advance();
    if (context0_ == kNone) return std::nullopt;
    return context0_;
  }

  /// The Error of the read that last returned false (which left the field
  /// it failed on unread).
  [[nodiscard]] Error error() const {
    const std::string field = "frame field " + std::to_string(failed_at_);
    switch (failed_) {
      case Failed::kMissing:
        return Error::make(asn1::kTruncated, field + " missing");
      case Failed::kU32Range:
        return Error::make(asn1::kWrongType, field + " out of u32 range");
      case Failed::kInteger:
        return (*it_).as_int().error();
      case Failed::kBoolean:
        return (*it_).as_bool().error();
      case Failed::kText:
        return (*it_).as_string().error();
    }
    return Error::make(asn1::kWrongType, field);
  }

 private:
  enum class Failed : std::uint8_t {
    kMissing,
    kInteger,
    kU32Range,
    kBoolean,
    kText
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  bool fail(Failed what, std::size_t at) {
    failed_ = what;
    failed_at_ = at;
    return false;
  }
  void advance() {
    if (context0_ == kNone && (*it_).is_context(0)) context0_ = index_;
    ++it_;
    ++index_;
  }

  using Iterator = decltype(std::declval<const N&>().children().begin());
  Iterator it_;
  Iterator end_;
  std::size_t index_ = 0;
  std::size_t context0_ = kNone;
  Failed failed_ = Failed::kMissing;
  std::size_t failed_at_ = 0;
};

/// The interaction value a [0] field carries: [0] EXPLICIT INTEGER.
template <typename N>
Result<std::int64_t> value_of(const N& field) {
  auto inner = field.unwrap_context(0);
  if (!inner.ok()) return inner.error();
  return inner.value().as_int();
}

/// Read one field with `read`, or return the reader's error.
#define TRY_FIELD(read)                  \
  do {                                   \
    if (!(read)) return in.error();      \
  } while (0)

/// One batch entry. A defect fails the whole frame, as a bad field of any
/// other frame does.
template <typename N>
Status entry_from(const N& ev, TransferEntry& e) {
  if (!ev.is_universal(asn1::UniversalTag::Sequence) || !ev.constructed())
    return Error::make(asn1::kWrongType,
                       "transfer-batch: entry is not a SEQUENCE");
  FrameFields<N> in(ev);
  TRY_FIELD(in.u32(e.channel));
  std::uint32_t dir = 0;
  TRY_FIELD(in.u32(dir));
  if (dir > 1)
    return Error::make(asn1::kWrongType, "transfer-batch: dir not 0/1");
  e.dir = static_cast<std::uint8_t>(dir);
  std::uint64_t sent_at = 0;
  TRY_FIELD(in.u64(sent_at));
  e.sent_at_ns = static_cast<std::int64_t>(sent_at);
  std::uint32_t kind = 0;
  TRY_FIELD(in.u32(kind));
  e.msg.kind = static_cast<int>(kind);
  if (!in.more())
    return Error::make(asn1::kTruncated,
                       "transfer-batch: entry has no payload");
  Result<Bytes> payload = in.peek().as_octets();
  if (!payload.ok()) return payload.error();
  e.msg.payload = std::move(payload).take();
  if (const auto at = in.first_context0()) {
    Result<std::int64_t> value = value_of(ev.child(*at));
    if (!value.ok()) return value.error();
    e.msg.value = value.value();
  }
  return {};
}

template <typename N>
Result<Frame> frame_from(const N& v) {
  if (v.tag_class() != TagClass::Application || !v.constructed())
    return Error::make(asn1::kBadTag, "frame: not an APPLICATION envelope");
  Frame f;
  f.type = static_cast<FrameType>(v.tag());
  FrameFields<N> in(v);
  switch (f.type) {
    case FrameType::Hello:
      TRY_FIELD(in.u32(f.node));
      TRY_FIELD(in.u32(f.nodes));
      TRY_FIELD(in.u32(f.shards));
      TRY_FIELD(in.u64(f.spec_hash));
      TRY_FIELD(in.u64(f.topology_version));
      TRY_FIELD(in.u64(f.assign_hash));
      break;
    case FrameType::Welcome:
      TRY_FIELD(in.u32(f.node));
      TRY_FIELD(in.boolean(f.accept));
      TRY_FIELD(in.text(f.reason));
      break;
    case FrameType::RoundDone:
      TRY_FIELD(in.u32(f.node));
      TRY_FIELD(in.u64(f.round));
      TRY_FIELD(in.boolean(f.quiescent));
      break;
    case FrameType::Bye:
      TRY_FIELD(in.u32(f.node));
      break;
    case FrameType::HelloResume:
      TRY_FIELD(in.u32(f.node));
      TRY_FIELD(in.u64(f.spec_hash));
      TRY_FIELD(in.u64(f.epoch));
      TRY_FIELD(in.u64(f.recv));
      break;
    case FrameType::SessionAck:
      TRY_FIELD(in.u64(f.recv));
      break;
    case FrameType::TransferBatch: {
      TRY_FIELD(in.u64(f.round));
      if (!in.more())
        return Error::make(asn1::kTruncated, "transfer-batch: no entry list");
      const N& list = in.peek();
      if (!list.is_universal(asn1::UniversalTag::Sequence) ||
          !list.constructed())
        return Error::make(asn1::kWrongType,
                           "transfer-batch: entries are not a SEQUENCE");
      f.entries.reserve(list.size());
      for (const N& ev : list.children()) {
        Status entry = entry_from(ev, f.entries.emplace_back());
        if (!entry.ok()) return entry.error();
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

/// Shared emitter: `seq == nullptr` gives the plain dialect, otherwise the
/// sequenced record (length | seq | body). The body octets are identical.
void emit_frame(const Frame& f, const std::uint64_t* seq, Bytes& out) {
  const std::size_t prefix = out.size();
  out.resize(prefix + 4);  // the u32 body length, written once it is known
  if (seq != nullptr)
    for (int i = 8; i-- > 0;)
      out.push_back(static_cast<std::uint8_t>(*seq >> (8 * i)));
  const std::size_t body = out.size();
  Writer w(out);
  if (f.type == FrameType::TransferBatch) {
    std::size_t entries_content = 0;
    const std::size_t content = batch_body_len(f, &entries_content);
    w.header(TagClass::Application, true, kBatchTag, content);
    w.integer(static_cast<std::int64_t>(f.round));
    w.header(TagClass::Universal, true, kSequence, entries_content);
    for (const TransferEntry& e : f.entries) {
      w.header(TagClass::Universal, true, kSequence, entry_content_len(e));
      w.integer(static_cast<std::int64_t>(e.channel));
      w.integer(e.dir);
      w.integer(e.sent_at_ns);
      put_msg_fields(w, e.msg);
    }
  } else {
    const std::size_t mark =
        w.open(TagClass::Application, static_cast<std::uint32_t>(f.type));
    put_control_fields(w, f);
    w.close(mark);
  }
  const std::size_t len = out.size() - body;
  for (int i = 0; i < 4; ++i)
    out[prefix + i] = static_cast<std::uint8_t>(len >> (8 * (3 - i)));
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
  Result<asn1::Node> root = asn1::Node::parse(body);
  if (!root.ok()) return root.error();
  return frame_from(root.value());
}

Result<Frame> frame_from_value(const asn1::Value& v) { return frame_from(v); }

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
