#include "asn1/value.hpp"

#include "asn1/accessors.hpp"
#include "asn1/direct.hpp"
#include "common/strf.hpp"

namespace mcam::asn1 {

namespace {

Bytes int_content(std::int64_t v) {
  Bytes out;
  Writer::int_content(out, v);
  return out;
}

Value universal(UniversalTag t, bool constructed, Bytes content,
                std::vector<Value> children = {}) {
  return Value::raw(TagClass::Universal, static_cast<std::uint32_t>(t),
                    constructed, std::move(content), std::move(children));
}

}  // namespace

Value Value::raw(TagClass cls, std::uint32_t tag, bool constructed,
                 Bytes content, std::vector<Value> children) {
  Value v;
  v.class_ = cls;
  v.tag_ = tag;
  v.constructed_ = constructed;
  v.content_ = std::move(content);
  v.children_ = std::move(children);
  return v;
}

Value Value::boolean(bool v) {
  return universal(UniversalTag::Boolean, false,
                   Bytes{static_cast<std::uint8_t>(v ? 0xff : 0x00)});
}

Value Value::integer(std::int64_t v) {
  return universal(UniversalTag::Integer, false, int_content(v));
}

Value Value::enumerated(std::int64_t v) {
  return universal(UniversalTag::Enumerated, false, int_content(v));
}

Value Value::octet_string(Bytes content) {
  return universal(UniversalTag::OctetString, false, std::move(content));
}

Value Value::ia5string(std::string_view s) {
  return universal(UniversalTag::Ia5String, false, common::to_bytes(s));
}

Value Value::utf8string(std::string_view s) {
  return universal(UniversalTag::Utf8String, false, common::to_bytes(s));
}

Value Value::printable(std::string_view s) {
  return universal(UniversalTag::PrintableString, false, common::to_bytes(s));
}

Value Value::null() { return universal(UniversalTag::Null, false, {}); }

Value Value::oid(std::vector<std::uint32_t> arcs) {
  Bytes content;
  Writer::oid_content(content, arcs);
  return universal(UniversalTag::ObjectIdentifier, false, std::move(content));
}

Value Value::sequence(std::vector<Value> children) {
  return universal(UniversalTag::Sequence, true, {}, std::move(children));
}

Value Value::set(std::vector<Value> children) {
  return universal(UniversalTag::Set, true, {}, std::move(children));
}

Value Value::context(std::uint32_t tag, Value inner) {
  std::vector<Value> children;
  children.push_back(std::move(inner));
  return raw(TagClass::ContextSpecific, tag, true, {}, std::move(children));
}

Value Value::application(std::uint32_t tag, std::vector<Value> children) {
  return raw(TagClass::Application, tag, true, {}, std::move(children));
}

const Value* Value::find_context(std::uint32_t t) const noexcept {
  for (const Value& c : children_) {
    if (c.tag_class() == TagClass::ContextSpecific && c.tag() == t) return &c;
  }
  return nullptr;
}

common::Result<std::int64_t> Value::as_int() const {
  return detail::as_int(*this);
}

common::Result<bool> Value::as_bool() const { return detail::as_bool(*this); }

common::Result<std::string> Value::as_string() const {
  return detail::as_string(*this);
}

common::Result<Bytes> Value::as_octets() const {
  return detail::as_octets(*this);
}

common::Result<std::vector<std::uint32_t>> Value::as_oid() const {
  return detail::as_oid(*this);
}

common::Result<Value> Value::unwrap_context(std::uint32_t t) const {
  if (auto error = detail::not_explicit(*this, t)) return std::move(*error);
  return children_[0];
}

bool Value::operator==(const Value& other) const {
  return class_ == other.class_ && tag_ == other.tag_ &&
         constructed_ == other.constructed_ && content_ == other.content_ &&
         children_ == other.children_;
}

namespace {

/// `"..."` with every octet outside printable ASCII written as \xHH and `"`
/// and `\` backslash-escaped, so a peer's string content cannot break a
/// diagnostic across lines or forge its quoting. Printable text is verbatim.
std::string quoted(const common::Bytes& content) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const std::uint8_t c : content) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20 || c > 0x7e) {
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 0x0f];
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string Value::to_string() const {
  std::string head;
  switch (class_) {
    case TagClass::Universal:
      switch (static_cast<UniversalTag>(tag_)) {
        case UniversalTag::Boolean:
          return content_.size() == 1 && content_[0] ? "TRUE" : "FALSE";
        case UniversalTag::Integer:
        case UniversalTag::Enumerated: {
          if (constructed_) {
            // Hostile encodings only — as_int() rejects constructed values
            // with a message that renders this value, so calling it here
            // would recurse without bound. Render generically instead.
            head = tag_ == static_cast<std::uint32_t>(UniversalTag::Enumerated)
                       ? "ENUM"
                       : "INTEGER";
            break;
          }
          auto v = as_int();
          head = v.ok() ? std::to_string(v.value()) : "INTEGER<bad>";
          return (tag_ == static_cast<std::uint32_t>(UniversalTag::Enumerated)
                      ? "ENUM "
                      : "") +
                 head;
        }
        case UniversalTag::Null:
          return "NULL";
        case UniversalTag::OctetString:
          return "OCTETS(" + common::hexdump(content_, 16) + ")";
        case UniversalTag::Ia5String:
        case UniversalTag::Utf8String:
        case UniversalTag::PrintableString:
          return quoted(content_);
        case UniversalTag::ObjectIdentifier: {
          // Same recursion hazard as INTEGER above: as_oid() rejects these
          // shapes with a message that renders this value.
          if (constructed_ || content_.empty()) return "OID<bad>";
          auto arcs = as_oid();
          if (!arcs.ok()) return "OID<bad>";
          std::string s = "OID ";
          for (std::size_t i = 0; i < arcs.value().size(); ++i) {
            if (i) s += '.';
            s += std::to_string(arcs.value()[i]);
          }
          return s;
        }
        case UniversalTag::Sequence:
          head = "SEQUENCE";
          break;
        case UniversalTag::Set:
          head = "SET";
          break;
        default:
          head = common::strf("UNIVERSAL[%u]", tag_);
      }
      break;
    case TagClass::Application:
      head = common::strf("APPLICATION[%u]", tag_);
      break;
    case TagClass::ContextSpecific:
      head = common::strf("[%u]", tag_);
      break;
    case TagClass::Private:
      head = common::strf("PRIVATE[%u]", tag_);
      break;
  }
  if (!constructed_) return head + "(" + common::hexdump(content_, 16) + ")";
  std::string s = head + " { ";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i) s += ", ";
    s += children_[i].to_string();
  }
  s += " }";
  return s;
}

}  // namespace mcam::asn1
