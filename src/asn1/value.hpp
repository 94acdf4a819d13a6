// ASN.1 value model (ISO 8824).
//
// The paper specifies all MCAM PDUs in ASN.1 and generates C++ data
// structures plus encode/decode routines from that specification ([9], [16]).
// A Value is a dynamic tree node — (tag class, tag number, primitive |
// constructed) holding either content octets or child values — with typed
// factory functions and checked accessors. With encode/decode (ber.hpp) it
// is the reference codec, and the parallel encoder's. Every PDU and
// transport frame skips the tree and goes through the direct writer and
// reader of direct.hpp, whose asn1::Node shares these accessors' checks and
// messages (accessors.hpp); each decoder is one template whose Value
// instantiation is its reference. Node::to_string renders a diagnostic
// through a Value.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace mcam::asn1 {

using common::Bytes;
using common::ByteSpan;

enum class TagClass : std::uint8_t {
  Universal = 0,
  Application = 1,
  ContextSpecific = 2,
  Private = 3,
};

/// Universal tag numbers used by this project (subset of ISO 8824).
enum class UniversalTag : std::uint32_t {
  Boolean = 1,
  Integer = 2,
  BitString = 3,
  OctetString = 4,
  Null = 5,
  ObjectIdentifier = 6,
  Enumerated = 10,
  Utf8String = 12,
  Sequence = 16,  // also SEQUENCE OF
  Set = 17,
  PrintableString = 19,
  Ia5String = 22,
  GeneralizedTime = 24,
};

/// One node of an ASN.1 value tree.
class Value {
 public:
  Value() = default;

  // ---- factories (the "generated constructors") ------------------------

  static Value boolean(bool v);
  static Value integer(std::int64_t v);
  static Value enumerated(std::int64_t v);
  static Value octet_string(Bytes content);
  static Value ia5string(std::string_view s);
  static Value utf8string(std::string_view s);
  static Value printable(std::string_view s);
  static Value null();
  /// OBJECT IDENTIFIER from arcs, e.g. {1,3,6,1}.
  static Value oid(std::vector<std::uint32_t> arcs);
  static Value sequence(std::vector<Value> children);
  static Value set(std::vector<Value> children);
  /// [n] EXPLICIT wrapper (constructed context tag around one child).
  static Value context(std::uint32_t tag, Value inner);
  /// APPLICATION-class constructed tag — used for MCAM PDU outer tags.
  static Value application(std::uint32_t tag, std::vector<Value> children);

  // ---- structure --------------------------------------------------------

  [[nodiscard]] TagClass tag_class() const noexcept { return class_; }
  [[nodiscard]] std::uint32_t tag() const noexcept { return tag_; }
  [[nodiscard]] bool constructed() const noexcept { return constructed_; }
  [[nodiscard]] bool is_universal(UniversalTag t) const noexcept {
    return class_ == TagClass::Universal &&
           tag_ == static_cast<std::uint32_t>(t);
  }
  [[nodiscard]] bool is_context(std::uint32_t t) const noexcept {
    return class_ == TagClass::ContextSpecific && tag_ == t;
  }

  [[nodiscard]] const Bytes& content() const noexcept { return content_; }
  [[nodiscard]] const std::vector<Value>& children() const noexcept {
    return children_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return children_.size(); }
  [[nodiscard]] const Value& child(std::size_t i) const {
    return children_.at(i);
  }
  void append(Value v) { children_.push_back(std::move(v)); }

  /// First child carrying context tag `t`, if present (OPTIONAL fields).
  [[nodiscard]] const Value* find_context(std::uint32_t t) const noexcept;

  // ---- checked accessors (decode-side "generated getters") --------------
  // These return an error Result instead of throwing: a malformed peer PDU
  // is an expected runtime condition, not a programming error.

  [[nodiscard]] common::Result<std::int64_t> as_int() const;
  [[nodiscard]] common::Result<bool> as_bool() const;
  [[nodiscard]] common::Result<std::string> as_string() const;
  [[nodiscard]] common::Result<Bytes> as_octets() const;
  [[nodiscard]] common::Result<std::vector<std::uint32_t>> as_oid() const;
  /// Unwrap an [n] EXPLICIT: requires constructed context tag with 1 child.
  [[nodiscard]] common::Result<Value> unwrap_context(std::uint32_t t) const;

  /// Structural equality (tag, class, form, content, children).
  bool operator==(const Value& other) const;

  /// Diagnostic rendering, e.g. `SEQUENCE { 5, "x" }`. Always one
  /// line: string contents outside printable ASCII render as \xHH, and `"`
  /// and `\` are backslash-escaped.
  [[nodiscard]] std::string to_string() const;

  // Raw constructor used by the decoder.
  static Value raw(TagClass cls, std::uint32_t tag, bool constructed,
                   Bytes content, std::vector<Value> children);

 private:
  TagClass class_ = TagClass::Universal;
  std::uint32_t tag_ = static_cast<std::uint32_t>(UniversalTag::Null);
  bool constructed_ = false;
  Bytes content_;                 // primitive form
  std::vector<Value> children_;   // constructed form
};

/// Error codes produced by ASN.1 accessors and the BER decoder.
enum Asn1Error : int {
  kWrongType = 1001,
  kTruncated = 1002,
  kBadLength = 1003,
  kBadTag = 1004,
  kTrailingBytes = 1005,
  kDepthExceeded = 1006,
};

}  // namespace mcam::asn1
