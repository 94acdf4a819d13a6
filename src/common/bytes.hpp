// Byte-buffer utilities shared by every protocol layer.
//
// All PDUs in this project are carried as `Bytes` (a std::vector<std::uint8_t>).
// `ByteWriter` and `ByteReader` provide bounds-checked big-endian primitive
// access; the MTP packet and colour-map codecs are built on top of them.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcam::common {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Thrown by ByteReader on truncated input. Protocol decoders translate this
/// into a decode error at the layer boundary.
class ShortReadError : public std::runtime_error {
 public:
  explicit ShortReadError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only big-endian writer over an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8)
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
  void u64(std::uint64_t v) {
    for (int shift = 56; shift >= 0; shift -= 8)
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
  void raw(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void raw(const Bytes& data) { raw(ByteSpan{data}); }
  void str(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }

 private:
  Bytes buf_;
};

/// Bounds-checked big-endian reader over a non-owned span.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool empty() const noexcept { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }
  Bytes raw(std::size_t n) {
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  ByteSpan view(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::string str(std::size_t n) {
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  std::uint8_t peek() const {
    if (remaining() < 1) throw ShortReadError("peek past end");
    return data_[pos_];
  }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n)
      throw ShortReadError("need " + std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()));
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Render a buffer as "aa bb cc ..." for diagnostics and test failure output.
std::string hexdump(ByteSpan data, std::size_t max_bytes = 64);

/// Convenience: build a Bytes value from a string literal's characters.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace mcam::common
