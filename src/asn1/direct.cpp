#include "asn1/direct.hpp"

#include <stdexcept>

#include "asn1/accessors.hpp"

namespace mcam::asn1 {

using common::Bytes;
using common::ByteSpan;
using common::Result;

// ---------------------------------------------------------------------------
// Writer

void Writer::int_content(Bytes& out, std::int64_t v) {
  for (std::size_t i = int_len(v); i-- > 0;)
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >>
                                            (8 * i)));
}

void Writer::oid_content(Bytes& out, std::span<const std::uint32_t> arcs) {
  if (arcs.size() >= 2) {
    out.push_back(static_cast<std::uint8_t>(arcs[0] * 40 + arcs[1]));
  } else if (arcs.size() == 1) {
    out.push_back(static_cast<std::uint8_t>(arcs[0] * 40));
  }
  for (std::size_t i = 2; i < arcs.size(); ++i) put_base128(out, arcs[i]);
}

void Writer::put_base128(Bytes& out, std::uint32_t v) {
  for (std::size_t i = base128_len(v); i-- > 1;)
    out.push_back(static_cast<std::uint8_t>(0x80 | ((v >> (7 * i)) & 0x7f)));
  out.push_back(static_cast<std::uint8_t>(v & 0x7f));
}

void Writer::tag_octets(TagClass cls, bool constructed, std::uint32_t tag) {
  const auto first = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(cls) << 6) | (constructed ? 0x20 : 0x00));
  if (tag < 31) {
    out_.push_back(first | static_cast<std::uint8_t>(tag));
    return;
  }
  out_.push_back(first | 0x1f);
  put_base128(out_, tag);
}

void Writer::long_header(TagClass cls, bool constructed, std::uint32_t tag,
                         std::size_t content) {
  tag_octets(cls, constructed, tag);
  if (content < 128) {
    out_.push_back(static_cast<std::uint8_t>(content));
    return;
  }
  const std::size_t n = header_len(0, content) - 2;
  out_.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (std::size_t i = n; i-- > 0;)
    out_.push_back(static_cast<std::uint8_t>(content >> (8 * i)));
}

void Writer::boolean(bool v) {
  header(TagClass::Universal, false,
         static_cast<std::uint32_t>(UniversalTag::Boolean), 1);
  out_.push_back(v ? 0xff : 0x00);
}

void Writer::null() {
  header(TagClass::Universal, false,
         static_cast<std::uint32_t>(UniversalTag::Null), 0);
}

void Writer::oid(std::span<const std::uint32_t> arcs) {
  std::size_t len = arcs.empty() ? 0 : 1;
  for (std::size_t i = 2; i < arcs.size(); ++i) len += base128_len(arcs[i]);
  header(TagClass::Universal, false,
         static_cast<std::uint32_t>(UniversalTag::ObjectIdentifier), len);
  oid_content(out_, arcs);
}

std::size_t Writer::open(TagClass cls, std::uint32_t tag) {
  tag_octets(cls, true, tag);
  out_.push_back(0);  // short-form placeholder, widened by close() if needed
  return out_.size();
}

void Writer::close(std::size_t mark) {
  const std::size_t len = out_.size() - mark;
  if (len < 128) {
    out_[mark - 1] = static_cast<std::uint8_t>(len);
    return;
  }
  const std::size_t n = header_len(0, len) - 2;
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(mark), n, 0);
  out_[mark - 1] = static_cast<std::uint8_t>(0x80 | n);
  for (std::size_t i = 0; i < n; ++i)
    out_[mark + i] = static_cast<std::uint8_t>(len >> (8 * (n - 1 - i)));
}

Bytes& write_scratch() noexcept {
  thread_local Bytes scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// Node

Result<Node> Node::parse(ByteSpan data) {
  common::Status valid = validate(data);
  if (!valid.ok()) return valid.error();
  return at(data.data(), data.data() + data.size());
}

std::size_t Node::size() const noexcept {
  std::size_t n = 0;
  const NodeChildren c = children();
  for (NodeIterator it = c.begin(), end = c.end(); it != end; ++it) ++n;
  return n;
}

Node Node::child(std::size_t i) const {
  for (const Node& c : children())
    if (i-- == 0) return c;
  throw std::out_of_range("Node::child: index past the last child");
}

std::optional<Node> Node::find_context(std::uint32_t t) const noexcept {
  for (const Node& c : children())
    if (c.tag_class() == TagClass::ContextSpecific && c.tag() == t) return c;
  return std::nullopt;
}

Result<Node> Node::unwrap_context(std::uint32_t t) const {
  if (auto error = detail::not_explicit(*this, t)) return std::move(*error);
  return *children().begin();
}

std::string Node::to_string() const { return to_value().to_string(); }

Value Node::to_value() const {
  // Validated bytes: a subtree decodes on its own, within the depth bound.
  return decode(encoding()).value();
}

}  // namespace mcam::asn1
