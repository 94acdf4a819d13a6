// BER transfer syntax (ISO 8825), definite-length form.
//
// This is the transfer syntax the presentation layer negotiates for the MCAM
// abstract syntax, and what the paper's generated ASN.1 encode/decode
// routines implement. High-tag-number form and multi-octet lengths are
// supported; indefinite length is not produced and is rejected on decode
// (the paper's toolchain likewise emitted definite-length encodings).
//
// Two codecs share this file's header parser and checks. The tree codec
// below (encode/decode over asn1::Value) is the general one. The direct
// codec in direct.hpp writes and reads the same octets without building a
// tree; validate() is its entry check, and accepts exactly what decode()
// accepts, with the same error for everything else.
#pragma once

#include <cstddef>
#include <cstdint>

#include "asn1/value.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"

namespace mcam::asn1 {

/// Encode a value tree to definite-length BER.
common::Bytes encode(const Value& v);

/// Append the encoding of `v` to `out` (used by the parallel encoder to
/// splice pre-encoded child segments).
void encode_to(const Value& v, common::Bytes& out);

/// Number of octets `encode(v)` will produce (drives length-field emission).
std::size_t encoded_length(const Value& v);

/// Decode exactly one value; trailing bytes are an error.
common::Result<Value> decode(common::ByteSpan data);

/// Decode one value starting at `offset`; on success advances `offset` past
/// it. Permits trailing data (used when PDUs are concatenated in a stream).
common::Result<Value> decode_prefix(common::ByteSpan data,
                                    std::size_t& offset);

/// decode()'s checks without building anything: ok iff decode(data) would
/// succeed, and otherwise the Error decode(data) would return.
common::Status validate(common::ByteSpan data);

/// Maximum nesting depth accepted by the decoder; deeper input is rejected
/// with kDepthExceeded rather than recursing unboundedly on hostile data.
inline constexpr int kMaxDecodeDepth = 64;

/// One TLV header as read from the wire.
struct Header {
  TagClass cls = TagClass::Universal;
  std::uint32_t tag = 0;
  bool constructed = false;
  std::size_t length = 0;  // content octets
};

/// What a decode found wrong (kNone: nothing). ber_error() gives each its
/// code and message.
enum class BerFault : std::uint8_t {
  kNone,
  kTruncated,       // the header runs past the end
  kTagTooLarge,     // more than five tag-number octets
  kIndefinite,      // length octet 0x80
  kLengthOfLength,  // more than eight length octets
  kPastEnd,         // the content runs past the end
  kTooDeep,         // nested deeper than kMaxDecodeDepth
};
common::Error ber_error(BerFault fault);

/// The one BER header parser, used by decode(), validate() and the direct
/// reader. Reads the header at `p` (never past `end`); on success `p` is at
/// the first content octet and the content fits before `end`.
inline BerFault read_header(const std::uint8_t*& p, const std::uint8_t* end,
                            Header& h) noexcept {
  if (p == end) return BerFault::kTruncated;
  const std::uint8_t first = *p++;
  h.cls = static_cast<TagClass>(first >> 6);
  h.constructed = (first & 0x20) != 0;
  h.tag = first & 0x1f;
  if (h.tag == 0x1f) {
    // High-tag-number form: base-128, MSB-first, continuation bits.
    h.tag = 0;
    int count = 0;
    std::uint8_t octet = 0;
    do {
      if (p == end) return BerFault::kTruncated;
      octet = *p++;
      if (++count > 5) return BerFault::kTagTooLarge;
      h.tag = (h.tag << 7) | (octet & 0x7f);
    } while (octet & 0x80);
  }
  if (p == end) return BerFault::kTruncated;
  const std::uint8_t len0 = *p++;
  if (len0 < 0x80) {
    h.length = len0;
  } else if (len0 == 0x80) {
    return BerFault::kIndefinite;
  } else {
    const int n = len0 & 0x7f;
    if (n > 8) return BerFault::kLengthOfLength;
    std::size_t len = 0;
    for (int i = 0; i < n; ++i) {
      if (p == end) return BerFault::kTruncated;
      len = (len << 8) | *p++;
    }
    h.length = len;
  }
  if (h.length > static_cast<std::size_t>(end - p))
    return BerFault::kPastEnd;
  return BerFault::kNone;
}

}  // namespace mcam::asn1
