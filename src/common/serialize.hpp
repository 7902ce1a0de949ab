// Little binary serialization layer.
//
// Reduction objects cross simulated cluster boundaries and real engine thread
// boundaries as flat byte buffers; BufferWriter/BufferReader give a typed,
// bounds-checked view over those buffers. Format: little-endian fixed-width
// integers, IEEE doubles, length-prefixed strings/vectors. Not meant as an
// interchange format — both ends are this library.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace cloudburst {

/// Appends plain-old-data values to a growable byte buffer.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void write_u8(std::uint8_t v) { append(&v, sizeof v); }
  void write_u32(std::uint32_t v) { append(&v, sizeof v); }
  void write_u64(std::uint64_t v) { append(&v, sizeof v); }
  void write_i64(std::int64_t v) { append(&v, sizeof v); }
  void write_f64(double v) { append(&v, sizeof v); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    append(s.data(), s.size());
  }

  template <typename T>
  void write_pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>, "write_pod_vector needs POD");
    write_u64(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  void write_bytes(const void* data, std::size_t n) { append(data, n); }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Reads values back out; throws std::out_of_range on truncated input so
/// corruption is loud rather than silent.
class BufferReader {
 public:
  BufferReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<std::uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const std::uint64_t n = read_u64();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> read_pod_vector() {
    static_assert(std::is_trivially_copyable_v<T>, "read_pod_vector needs POD");
    const std::uint64_t n = read_u64();
    check(n * sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));  // data() may be null
    pos_ += n * sizeof(T);
    return v;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  template <typename T>
  T read_pod() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void check(std::uint64_t need) const {
    if (need > size_ - pos_) {
      throw std::out_of_range("BufferReader: truncated buffer");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace cloudburst
