// Direct BER codec: a writer and a reader that build no Value tree.
//
// The request path (MCAM PDUs, presentation PPDUs, ACSE APDUs, transport
// frames) encodes and decodes every message, so it skips the tree:
//
//   Writer — appends TLVs straight to the caller's buffer and emits exactly
//     the tree encoder's octets (minimal two's-complement INTEGERs, minimal
//     definite lengths, the high-tag-number form). A constructed TLV's
//     length is either passed to header() up front, when the builder can
//     compute it (the *_len helpers), or patched by close() after its
//     content is written. On a buffer warmed to capacity nothing allocates.
//
//   Node — a non-owning view of one TLV inside bytes that validate() (ber.hpp)
//     accepted, with the accessors of Value: same results, same error codes
//     and messages. A decoder written once as a template over the node type
//     runs on Node in production and on Value as its reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "asn1/accessors.hpp"
#include "asn1/ber.hpp"
#include "asn1/value.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"

namespace mcam::asn1 {

class Writer {
 public:
  explicit Writer(common::Bytes& out) noexcept : out_(out) {}

  // ---- sizes, for builders that precompute constructed lengths ----------
  /// Octets of a header for tag number `tag` announcing `content` octets.
  [[nodiscard]] static std::size_t header_len(std::uint32_t tag,
                                              std::size_t content) noexcept {
    std::size_t n = tag < 31 ? 2 : 2 + base128_len(tag);
    if (content < 128) return n;  // short form: one length octet
    for (; content != 0; content >>= 8) ++n;
    return n;
  }
  /// Octets of a whole TLV with `content` content octets.
  [[nodiscard]] static std::size_t tlv_len(std::uint32_t tag,
                                           std::size_t content) noexcept {
    return header_len(tag, content) + content;
  }
  /// Content octets of the minimal two's-complement encoding of `v`.
  [[nodiscard]] static std::size_t int_len(std::int64_t v) noexcept {
    std::size_t n = 1;
    while (v > 127 || v < -128) {
      v >>= 8;
      ++n;
    }
    return n;
  }
  /// Octets of a whole INTEGER (or ENUMERATED) TLV holding `v`.
  [[nodiscard]] static std::size_t int_tlv_len(std::int64_t v) noexcept {
    return tlv_len(static_cast<std::uint32_t>(UniversalTag::Integer),
                   int_len(v));
  }

  // ---- content octets (shared with Value's factories) -------------------
  static void int_content(common::Bytes& out, std::int64_t v);
  /// ISO 8825 §8.19: the first two arcs pack into one octet, the rest are
  /// base-128 with continuation bits.
  static void oid_content(common::Bytes& out,
                          std::span<const std::uint32_t> arcs);

  // ---- TLVs ---------------------------------------------------------------
  void header(TagClass cls, bool constructed, std::uint32_t tag,
              std::size_t content) {
    if (tag < 31 && content < 128) {  // the common two-octet header
      out_.push_back(static_cast<std::uint8_t>(
          (static_cast<std::uint8_t>(cls) << 6) | (constructed ? 0x20 : 0) |
          tag));
      out_.push_back(static_cast<std::uint8_t>(content));
      return;
    }
    long_header(cls, constructed, tag, content);
  }
  void primitive(TagClass cls, std::uint32_t tag, common::ByteSpan content) {
    header(cls, false, tag, content.size());
    out_.insert(out_.end(), content.begin(), content.end());
  }
  void integer(std::int64_t v) { int_tlv(UniversalTag::Integer, v); }
  void enumerated(std::int64_t v) { int_tlv(UniversalTag::Enumerated, v); }
  void boolean(bool v);
  void null();
  void octet_string(common::ByteSpan content) {
    universal(UniversalTag::OctetString, content);
  }
  void ia5string(std::string_view s) { universal(UniversalTag::Ia5String, s); }
  void utf8string(std::string_view s) {
    universal(UniversalTag::Utf8String, s);
  }
  void oid(std::span<const std::uint32_t> arcs);

  /// Open a constructed TLV whose length close() fills in. Returns the mark
  /// to pass to close(); marks nest like brackets.
  [[nodiscard]] std::size_t open(TagClass cls, std::uint32_t tag);
  [[nodiscard]] std::size_t open_sequence() {
    return open(TagClass::Universal,
                static_cast<std::uint32_t>(UniversalTag::Sequence));
  }
  void close(std::size_t mark);

 private:
  /// Base-128 groups in a tag number or OID arc (at least one).
  static std::size_t base128_len(std::uint32_t v) noexcept {
    std::size_t n = 1;
    while (v >>= 7) ++n;
    return n;
  }
  static void put_base128(common::Bytes& out, std::uint32_t v);
  void long_header(TagClass cls, bool constructed, std::uint32_t tag,
                   std::size_t content);
  void tag_octets(TagClass cls, bool constructed, std::uint32_t tag);
  void int_tlv(UniversalTag t, std::int64_t v) {
    const std::size_t n = int_len(v);
    header(TagClass::Universal, false, static_cast<std::uint32_t>(t), n);
    for (std::size_t i = n; i-- > 0;)
      out_.push_back(
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
  void universal(UniversalTag t, common::ByteSpan content) {
    primitive(TagClass::Universal, static_cast<std::uint32_t>(t), content);
  }
  void universal(UniversalTag t, std::string_view s) {
    universal(t, common::ByteSpan{
                     reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size()});
  }

  common::Bytes& out_;
};

/// Spare capacity write_exact leaves behind every message it returns. A
/// message the MCA or ACSE encodes is an SDU of the OSI layers below, which
/// prepend their headers to it in place (a TD, an SPDU and a DT TPDU:
/// osi/presentation.cpp checks that their longest headers fit), so an SDU
/// crosses the whole stack in the buffer it was encoded into.
inline constexpr std::size_t kSduHeadroom = 36;

/// Runs `emit(Writer&)` against a per-thread scratch buffer and returns a
/// copy of exactly the message's size with kSduHeadroom octets of spare
/// capacity: one allocation per message however deeply it nests, with every
/// close() patching in place. `emit` must not call write_exact.
common::Bytes& write_scratch() noexcept;
template <typename Emit>
common::Bytes write_exact(Emit&& emit) {
  common::Bytes& scratch = write_scratch();
  scratch.clear();
  Writer w(scratch);
  emit(w);
  common::Bytes out;
  out.reserve(scratch.size() + kSduHeadroom);
  out.assign(scratch.begin(), scratch.end());
  // One rare huge message must not pin its buffer for the thread's life.
  if (scratch.capacity() > (std::size_t{1} << 16)) common::Bytes().swap(scratch);
  return out;
}

class NodeIterator;

/// The children of a Node, as a range.
struct NodeChildren {
  const std::uint8_t* first;
  const std::uint8_t* last;
  [[nodiscard]] NodeIterator begin() const noexcept;
  [[nodiscard]] NodeIterator end() const noexcept;
};

class Node {
 public:
  Node() = default;

  /// Validate `data` as exactly one BER value (decode()'s checks and
  /// errors, via validate()) and view its root.
  static common::Result<Node> parse(common::ByteSpan data);

  // ---- structure (as Value) -------------------------------------------------
  [[nodiscard]] TagClass tag_class() const noexcept { return cls_; }
  [[nodiscard]] std::uint32_t tag() const noexcept { return tag_; }
  [[nodiscard]] bool constructed() const noexcept { return constructed_; }
  [[nodiscard]] bool is_universal(UniversalTag t) const noexcept {
    return cls_ == TagClass::Universal && tag_ == static_cast<std::uint32_t>(t);
  }
  [[nodiscard]] bool is_context(std::uint32_t t) const noexcept {
    return cls_ == TagClass::ContextSpecific && tag_ == t;
  }
  /// Content octets of a primitive; empty for a constructed node, as
  /// Value::content().
  [[nodiscard]] common::ByteSpan content() const noexcept {
    return constructed_ ? common::ByteSpan{} : body_;
  }
  /// The whole TLV, header included.
  [[nodiscard]] common::ByteSpan encoding() const noexcept {
    return {tlv_, static_cast<std::size_t>(body_.data() + body_.size() - tlv_)};
  }

  /// The children, in order; none for a primitive.
  [[nodiscard]] NodeChildren children() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;
  /// The i-th child; throws std::out_of_range past the end, as Value::child.
  [[nodiscard]] Node child(std::size_t i) const;
  /// First child carrying context tag `t`, if present (OPTIONAL fields).
  [[nodiscard]] std::optional<Node> find_context(std::uint32_t t) const noexcept;

  // ---- checked accessors (Value's checks, codes and messages) -------------
  [[nodiscard]] common::Result<std::int64_t> as_int() const {
    return detail::as_int(*this);
  }
  [[nodiscard]] common::Result<bool> as_bool() const {
    return detail::as_bool(*this);
  }
  [[nodiscard]] common::Result<std::string> as_string() const {
    return detail::as_string(*this);
  }
  [[nodiscard]] common::Result<common::Bytes> as_octets() const {
    return detail::as_octets(*this);
  }
  [[nodiscard]] common::Result<std::vector<std::uint32_t>> as_oid() const {
    return detail::as_oid(*this);
  }
  [[nodiscard]] common::Result<Node> unwrap_context(std::uint32_t t) const;

  /// Value::to_string() of the same TLV (error paths only: it builds a tree).
  [[nodiscard]] std::string to_string() const;
  /// The TLV as a value tree.
  [[nodiscard]] Value to_value() const;

 private:
  friend class NodeIterator;

  /// The node whose header starts at `p` in validated bytes ending at `end`.
  static Node at(const std::uint8_t* p, const std::uint8_t* end) noexcept {
    Node n;
    n.tlv_ = p;
    Header h;
    (void)read_header(p, end, h);  // validated: cannot fail
    n.cls_ = h.cls;
    n.tag_ = h.tag;
    n.constructed_ = h.constructed;
    n.body_ = common::ByteSpan{p, h.length};
    return n;
  }

  TagClass cls_ = TagClass::Universal;
  std::uint32_t tag_ = static_cast<std::uint32_t>(UniversalTag::Null);
  bool constructed_ = false;
  const std::uint8_t* tlv_ = nullptr;
  common::ByteSpan body_;  // content octets (children's TLVs if constructed)
};

/// Forward iterator over the children of a constructed Node.
class NodeIterator {
 public:
  NodeIterator(const std::uint8_t* p, const std::uint8_t* end) noexcept
      : p_(p), end_(end) {
    if (p_ != end_) cur_ = Node::at(p_, end_);
  }
  const Node& operator*() const noexcept { return cur_; }
  const Node* operator->() const noexcept { return &cur_; }
  NodeIterator& operator++() noexcept {
    p_ = cur_.body_.data() + cur_.body_.size();
    if (p_ != end_) cur_ = Node::at(p_, end_);
    return *this;
  }
  bool operator==(const NodeIterator& o) const noexcept { return p_ == o.p_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  Node cur_;
};

inline NodeIterator NodeChildren::begin() const noexcept {
  return {first, last};
}
inline NodeIterator NodeChildren::end() const noexcept { return {last, last}; }

inline NodeChildren Node::children() const noexcept {
  const std::uint8_t* first = body_.data();
  return {first, constructed_ ? first + body_.size() : first};
}

}  // namespace mcam::asn1
