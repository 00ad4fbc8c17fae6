// Bounds-checked big-endian byte buffer I/O, used by every wire codec in
// the library (MRT, DNS, RTR, TLV). Readers never throw on truncated or
// malformed input; they report failure through Result.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace ripki::util {

using Bytes = std::vector<std::uint8_t>;

/// Serialises primitives in network byte order into a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `reuse` as the output buffer: contents are cleared but the
  /// capacity is kept, so encode-into-scratch loops stop allocating once
  /// the buffer has grown to the working-set size.
  explicit ByteWriter(Bytes&& reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  // Per header field and per record in the DNS codec: one resize, then
  // stores.
  void put_u16(std::uint16_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + 2);
    buf_[at] = static_cast<std::uint8_t>(v >> 8);
    buf_[at + 1] = static_cast<std::uint8_t>(v);
  }
  void put_u32(std::uint32_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + 4);
    buf_[at] = static_cast<std::uint8_t>(v >> 24);
    buf_[at + 1] = static_cast<std::uint8_t>(v >> 16);
    buf_[at + 2] = static_cast<std::uint8_t>(v >> 8);
    buf_[at + 3] = static_cast<std::uint8_t>(v);
  }
  void put_u64(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_string(std::string_view s);

  /// Overwrites a previously written big-endian u16/u32 at `offset`;
  /// used for back-patching length fields.
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Deserialises primitives in network byte order from a fixed view.
/// All reads are bounds-checked; failure leaves the cursor untouched.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return remaining() == 0; }

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16() {
    if (remaining() < 2) return Err("byte reader: truncated u16");
    const auto v =
        static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    if (remaining() < 4) return Err("byte reader: truncated u32");
    const std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                            (std::uint32_t{data_[pos_ + 1]} << 16) |
                            (std::uint32_t{data_[pos_ + 2]} << 8) |
                            std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> u64();
  /// Copies out `n` bytes.
  Result<Bytes> bytes(std::size_t n);
  /// Zero-copy view of the next `n` bytes (valid while the backing span is).
  Result<std::span<const std::uint8_t>> view(std::size_t n);
  Result<std::string> string(std::size_t n);

  /// Skips `n` bytes (error when fewer remain).
  Result<void> skip(std::size_t n);
  /// Moves the cursor to an absolute offset within the buffer.
  Result<void> seek(std::size_t offset);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ripki::util
