#pragma once
// Tiny byte-oriented serialization used by the crash-consistent trainer
// checkpoints (fl/checkpoint.h) and the stateful-component snapshots
// (Aggregator/Attack serialize_state). Deliberately minimal: explicit
// little-endian fixed-width integers, raw IEEE-754 floats (the in-memory
// representation on every supported target), length-prefixed strings.
// A checkpoint is consumed by the same build that wrote it, so no
// cross-architecture byte swapping is attempted — the format is pinned
// by a header checksum, not by portability machinery.
//
// ByteReader is total on hostile bytes: every read is bounds-checked and
// underflow throws std::runtime_error (a truncated or corrupted
// checkpoint must fail loudly, never read out of bounds).
//
// Symmetric field lists: both classes take the same io(field) calls — a
// writer writes the field, a reader overwrites it — so a checkpoint's
// field list is written once, as a template over the stream type, and
// saves and loads the same bytes by construction. kLoading tells the two
// apart where a list must (a post-load restore, a save-only count).

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace signguard::common {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void floats(std::span<const float> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(float));
  }
  void doubles(std::span<const double> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  static constexpr bool kLoading = false;
  // Scalars: bools and one-byte enums as u8, 8-byte numbers as-is.
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void io(T v) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 8);
    if constexpr (sizeof(T) == 1) u8(static_cast<std::uint8_t>(v));
    else raw(&v, sizeof v);
  }
  void io(std::string_view s) { str(s); }
  void io(std::span<const float> v) { floats(v); }
  void io(const std::optional<double>& v) {
    io(v.has_value());
    if (v) f64(*v);
  }
  // Length-prefixed sequence; `each` streams one element.
  template <class T, class F>
  void io(std::vector<T>& v, F&& each) {
    u64(v.size());
    for (T& e : v) each(e);
  }
  // A component's serialize_state, inline or as a length-prefixed blob.
  template <class T>
  void state(const T& obj) { obj.serialize_state(*this); }
  template <class T>
  void nested(const T& obj) {
    ByteWriter b;
    obj.serialize_state(b);
    str(b.bytes());
  }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t len = length(1);
    std::string out(len, '\0');
    raw(out.data(), len);
    return out;
  }
  std::vector<float> floats() {
    const std::uint64_t len = length(sizeof(float));
    std::vector<float> out(len);
    raw(out.data(), len * sizeof(float));
    return out;
  }
  std::vector<double> doubles() {
    const std::uint64_t len = length(sizeof(double));
    std::vector<double> out(len);
    raw(out.data(), len * sizeof(double));
    return out;
  }
  void raw(void* out, std::size_t len) {
    need(len);
    // An empty vector hands over a null `out`, and memcpy must never see
    // a null pointer, even with len == 0.
    if (len != 0) std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
  }

  static constexpr bool kLoading = true;
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void io(T& v) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 8);
    if constexpr (std::is_same_v<T, bool>) v = u8() != 0;
    else if constexpr (sizeof(T) == 1) v = static_cast<T>(u8());
    else raw(&v, sizeof v);
  }
  void io(std::string& s) { s = str(); }
  void io(std::vector<float>& v) { v = floats(); }
  void io(std::optional<double>& v) {
    v.reset();
    if (u8() != 0) v = f64();
  }
  // Every element takes at least one byte, which bounds the count.
  template <class T, class F>
  void io(std::vector<T>& v, F&& each) {
    v.resize(length(1));
    for (T& e : v) each(e);
  }
  template <class T>
  void state(T& obj) { obj.restore_state(*this); }
  template <class T>
  void nested(T& obj) {
    const std::string blob = str();
    ByteReader b(blob);
    obj.restore_state(b);
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  // A length prefix bounded by the remaining bytes: a corrupted prefix
  // must not turn into a multi-gigabyte allocation before the bounds
  // check fires.
  std::uint64_t length(std::size_t elem_size) {
    const std::uint64_t len = u64();
    if (elem_size != 0 && len > remaining() / elem_size)
      throw std::runtime_error("serial: length prefix exceeds buffer");
    return len;
  }
  void need(std::size_t len) const {
    if (bytes_.size() - pos_ < len)
      throw std::runtime_error("serial: read past end of buffer");
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace signguard::common
