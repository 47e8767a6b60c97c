// Bounds-checked byte-level reading and writing for wire-format codecs.
//
// Every from-scratch binary parser in the pipeline (MRT TABLE_DUMP_V2,
// BGP4MP, and any future wire format) decodes through ByteCursor, and every
// encoder accumulates through ByteBuf. The contract:
//
//   * ByteCursor never reads out of bounds. The throwing accessors (u8(),
//     u16(), ...) raise ParseError on truncation; the try_* accessors
//     return std::nullopt instead. Parse loops that unwind to a per-record
//     error boundary use the throwing form; probe-style callers use try_*.
//   * All multi-byte integers are big-endian (network order). There is no
//     host-endian accessor on purpose: wire formats name their endianness.
//   * No pointer arithmetic or reinterpret_cast in client code. The only
//     sanctioned byte<->char aliasing in the codebase lives in bytes.cpp
//     (the iostream bridge below); manrs_analyze enforces this.
//
// See docs/static-analysis.md for the full API contract and the list of
// banned patterns this layer replaces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace manrs::util {

/// Typed error for malformed external input (wire records, registry rows,
/// archive lines). Parsers throw ParseError -- never index out of bounds,
/// never silently truncate -- and record-stream readers convert it into a
/// counted per-record failure so one corrupt record cannot take down a
/// whole scan.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Bounds-checked forward cursor over an immutable byte span.
///
/// The cursor does not own the bytes; the underlying buffer must outlive
/// it (same lifetime rule as std::span / std::string_view).
class ByteCursor {
 public:
  constexpr ByteCursor() = default;
  explicit constexpr ByteCursor(std::span<const uint8_t> data)
      : data_(data) {}

  constexpr size_t size() const { return data_.size(); }
  constexpr size_t position() const { return pos_; }
  constexpr size_t remaining() const { return data_.size() - pos_; }
  constexpr bool done() const { return pos_ == data_.size(); }

  /// True iff at least `n` more bytes can be read.
  constexpr bool can_read(size_t n) const { return remaining() >= n; }

  // --- throwing reads (ParseError on truncation) -----------------------
  uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  uint16_t u16() {
    need(2, "u16");
    uint16_t v = static_cast<uint16_t>(
        static_cast<uint16_t>(data_[pos_]) << 8 |
        static_cast<uint16_t>(data_[pos_ + 1]));
    pos_ += 2;
    return v;
  }
  uint32_t u32() {
    need(4, "u32");
    uint32_t v = static_cast<uint32_t>(data_[pos_]) << 24 |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 2]) << 8 |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  uint64_t u64() {
    need(8, "u64");
    uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  /// View of the next `n` bytes; advances past them.
  std::span<const uint8_t> bytes(size_t n) {
    need(n, "bytes");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// The next `n` bytes as text (e.g. an embedded name field). The view
  /// aliases the underlying buffer.
  std::string_view ascii(size_t n);

  void skip(size_t n) {
    need(n, "skip");
    pos_ += n;
  }

  /// Carve the next `n` bytes out as an independent child cursor. This is
  /// the safe replacement for "end = position() + declared_len" index
  /// arithmetic: a nested structure parses against its declared extent and
  /// cannot overrun into sibling data.
  ByteCursor sub(size_t n) {
    return ByteCursor(bytes(n));
  }

  // --- fallible reads (nullopt on truncation) --------------------------
  std::optional<uint8_t> try_u8() {
    if (!can_read(1)) return std::nullopt;
    return u8();
  }
  std::optional<uint16_t> try_u16() {
    if (!can_read(2)) return std::nullopt;
    return u16();
  }
  std::optional<uint32_t> try_u32() {
    if (!can_read(4)) return std::nullopt;
    return u32();
  }
  std::optional<uint64_t> try_u64() {
    if (!can_read(8)) return std::nullopt;
    return u64();
  }
  std::optional<std::span<const uint8_t>> try_bytes(size_t n) {
    if (!can_read(n)) return std::nullopt;
    return bytes(n);
  }

 private:
  void need(size_t n, const char* what) const {
    if (data_.size() - pos_ < n) throw_truncated(n, what);
  }
  /// need()'s failure path, out of line: a call the compiler knows never
  /// returns lets it prove the reads after a failed need() unreachable.
  [[noreturn]] void throw_truncated(size_t n, const char* what) const;
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Growing byte buffer with big-endian writers; the encoding counterpart
/// of ByteCursor.
class ByteBuf {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void u32(uint32_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 24));
    buf_.push_back(static_cast<uint8_t>(v >> 16));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v >> 32));
    u32(static_cast<uint32_t>(v));
  }
  void bytes(std::span<const uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void bytes(const ByteBuf& other) {
    buf_.insert(buf_.end(), other.buf_.begin(), other.buf_.end());
  }
  /// Append text bytes (e.g. a name field) without aliasing casts.
  void ascii(std::string_view s) {
    for (char c : s) buf_.push_back(static_cast<uint8_t>(c));
  }

  /// Overwrite a previously written 16-bit slot (back-patched length
  /// fields). Throws ParseError if the slot is out of range.
  void patch_u16(size_t offset, uint16_t v) {
    if (offset + 2 > buf_.size()) {
      throw ParseError("patch_u16: offset " + std::to_string(offset) +
                       " out of range for buffer of " +
                       std::to_string(buf_.size()));
    }
    buf_[offset] = static_cast<uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<uint8_t>(v);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::span<const uint8_t> span() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// --- iostream byte bridge ----------------------------------------------
//
// std::istream/std::ostream traffic in char; wire codecs traffic in
// uint8_t. These four functions are the single audited place where the
// two meet (implemented in bytes.cpp); everything else stays cast-free.

/// Read exactly `out.size()` bytes. Returns false on EOF/short read (the
/// stream's failbit state is left to the caller).
[[nodiscard]] bool read_exact(std::istream& in, std::span<uint8_t> out);

/// Read up to `out.size()` bytes; returns the count actually read.
size_t read_upto(std::istream& in, std::span<uint8_t> out);

/// Slurp the rest of the stream into `out` (appending to its current
/// contents). When the stream is seekable the remaining size is probed
/// once up front so the buffer grows exactly once instead of
/// reallocating per chunk. Returns the number of bytes appended.
size_t read_all(std::istream& in, std::vector<uint8_t>& out);

/// Write all of `data` to the stream.
void write_bytes(std::ostream& out, std::span<const uint8_t> data);

/// View bytes as text without copying (and the reverse). The view aliases
/// the input.
std::string_view as_chars(std::span<const uint8_t> data);
std::span<const uint8_t> as_bytes(std::string_view s);

}  // namespace manrs::util
