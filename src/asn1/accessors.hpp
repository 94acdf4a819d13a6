// The checked accessors of Value and Node, written once over the node type,
// so the tree and the direct reader accept the same shapes and report the
// same errors. Internal to src/asn1.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "asn1/value.hpp"
#include "common/strf.hpp"

namespace mcam::asn1::detail {

template <typename N>
bool int_like(const N& n) noexcept {
  return (n.is_universal(UniversalTag::Integer) ||
          n.is_universal(UniversalTag::Enumerated) ||
          n.tag_class() == TagClass::ContextSpecific) &&
         !n.constructed();
}

/// as_int()'s success path without a Result: false exactly when as_int()
/// fails.
template <typename N>
bool int_value(const N& n, std::int64_t& out) noexcept {
  if (!int_like(n)) return false;
  const common::ByteSpan c = n.content();
  if (c.empty() || c.size() > 8) return false;
  std::int64_t v = (c[0] & 0x80) ? -1 : 0;
  for (std::uint8_t octet : c) v = (v << 8) | octet;
  out = v;
  return true;
}

template <typename N>
common::Result<std::int64_t> as_int(const N& n) {
  std::int64_t v = 0;
  if (int_value(n, v)) return v;
  if (!int_like(n))
    return common::Error::make(kWrongType, "not an INTEGER: " + n.to_string());
  return common::Error::make(kBadLength, "INTEGER content length invalid");
}

template <typename N>
common::Result<bool> as_bool(const N& n) {
  const common::ByteSpan c = n.content();
  if (!n.is_universal(UniversalTag::Boolean) || c.size() != 1)
    return common::Error::make(kWrongType, "not a BOOLEAN: " + n.to_string());
  return c[0] != 0;
}

template <typename N>
common::Result<std::string> as_string(const N& n) {
  const bool string_like = n.is_universal(UniversalTag::Ia5String) ||
                           n.is_universal(UniversalTag::Utf8String) ||
                           n.is_universal(UniversalTag::PrintableString) ||
                           n.is_universal(UniversalTag::GeneralizedTime) ||
                           n.tag_class() == TagClass::ContextSpecific;
  if (!string_like || n.constructed())
    return common::Error::make(kWrongType, "not a string: " + n.to_string());
  const common::ByteSpan c = n.content();
  return std::string(c.begin(), c.end());
}

template <typename N>
common::Result<common::Bytes> as_octets(const N& n) {
  if (n.constructed())
    return common::Error::make(kWrongType,
                               "constructed value has no content octets");
  const common::ByteSpan c = n.content();
  return common::Bytes(c.begin(), c.end());
}

template <typename N>
common::Result<std::vector<std::uint32_t>> as_oid(const N& n) {
  const common::ByteSpan c = n.content();
  if (!n.is_universal(UniversalTag::ObjectIdentifier) || c.empty())
    return common::Error::make(kWrongType, "not an OID: " + n.to_string());
  std::vector<std::uint32_t> arcs;
  arcs.push_back(c[0] / 40);
  arcs.push_back(c[0] % 40);
  std::uint32_t acc = 0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    acc = (acc << 7) | (c[i] & 0x7f);
    if ((c[i] & 0x80) == 0) {
      arcs.push_back(acc);
      acc = 0;
    }
  }
  return arcs;
}

/// unwrap_context's check: nullopt when `n` is an [t] EXPLICIT wrapper.
template <typename N>
std::optional<common::Error> not_explicit(const N& n, std::uint32_t t) {
  if (n.is_context(t) && n.constructed() && n.size() == 1) return std::nullopt;
  return common::Error::make(
      kWrongType,
      common::strf("not an explicit [%u]: %s", t, n.to_string().c_str()));
}

}  // namespace mcam::asn1::detail
