#include "asn1/ber.hpp"

#include "asn1/direct.hpp"

namespace mcam::asn1 {

namespace {

using common::ByteSpan;
using common::Bytes;
using common::Error;
using common::Result;

std::size_t content_length(const Value& v) {
  if (!v.constructed()) return v.content().size();
  std::size_t total = 0;
  for (const Value& c : v.children()) total += encoded_length(c);
  return total;
}

Error trailing_bytes(std::size_t n) {
  return Error::make(kTrailingBytes, std::to_string(n) + " trailing bytes");
}

Result<Value> decode_one(const std::uint8_t*& p, const std::uint8_t* end,
                         int depth) {
  if (depth > kMaxDecodeDepth) return ber_error(BerFault::kTooDeep);
  Header h;
  if (const BerFault f = read_header(p, end, h); f != BerFault::kNone)
    return ber_error(f);
  const std::uint8_t* const content_end = p + h.length;
  if (!h.constructed) {
    Bytes content(p, content_end);
    p = content_end;
    return Value::raw(h.cls, h.tag, false, std::move(content), {});
  }
  std::vector<Value> children;
  while (p != content_end) {
    auto child = decode_one(p, content_end, depth + 1);
    if (!child.ok()) return child.error();
    children.push_back(std::move(child).take());
  }
  return Value::raw(h.cls, h.tag, true, {}, std::move(children));
}

/// decode_one's checks over the siblings filling [p, end) at `depth`, in its
/// order, building nothing.
BerFault walk(const std::uint8_t* p, const std::uint8_t* end, int depth) {
  if (p != end && depth > kMaxDecodeDepth) return BerFault::kTooDeep;
  while (p != end) {
    Header h;
    if (const BerFault f = read_header(p, end, h); f != BerFault::kNone)
      return f;
    if (h.constructed)
      if (const BerFault f = walk(p, p + h.length, depth + 1);
          f != BerFault::kNone)
        return f;
    p += h.length;
  }
  return BerFault::kNone;
}

}  // namespace

Error ber_error(BerFault fault) {
  switch (fault) {
    case BerFault::kNone:
      break;
    case BerFault::kTruncated:
      return Error::make(kTruncated, "truncated BER header");
    case BerFault::kTagTooLarge:
      return Error::make(kBadTag, "tag number too large");
    case BerFault::kIndefinite:
      return Error::make(kBadLength, "indefinite length not supported");
    case BerFault::kLengthOfLength:
      return Error::make(kBadLength, "length of length too large");
    case BerFault::kPastEnd:
      return Error::make(kTruncated, "content extends past buffer");
    case BerFault::kTooDeep:
      return Error::make(kDepthExceeded, "BER nesting too deep");
  }
  return Error::make(0, "no BER fault");
}

std::size_t encoded_length(const Value& v) {
  const std::size_t content = content_length(v);
  return Writer::tlv_len(v.tag(), content);
}

void encode_to(const Value& v, Bytes& out) {
  Writer w(out);
  if (!v.constructed()) {
    w.primitive(v.tag_class(), v.tag(), v.content());
    return;
  }
  w.header(v.tag_class(), true, v.tag(), content_length(v));
  for (const Value& c : v.children()) encode_to(c, out);
}

Bytes encode(const Value& v) {
  Bytes out;
  out.reserve(encoded_length(v));
  encode_to(v, out);
  return out;
}

Result<Value> decode(ByteSpan data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  auto v = decode_one(p, end, 0);
  if (!v.ok()) return v;
  if (p != end) return trailing_bytes(static_cast<std::size_t>(end - p));
  return v;
}

Result<Value> decode_prefix(ByteSpan data, std::size_t& offset) {
  const ByteSpan rest = data.subspan(offset);
  const std::uint8_t* p = rest.data();
  auto v = decode_one(p, p + rest.size(), 0);
  if (v.ok()) offset += static_cast<std::size_t>(p - rest.data());
  return v;
}

common::Status validate(ByteSpan data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  Header root;
  if (const BerFault f = read_header(p, end, root); f != BerFault::kNone)
    return ber_error(f);
  if (root.constructed)
    if (const BerFault f = walk(p, p + root.length, 1); f != BerFault::kNone)
      return ber_error(f);
  p += root.length;
  if (p != end) return trailing_bytes(static_cast<std::size_t>(end - p));
  return {};
}

}  // namespace mcam::asn1
