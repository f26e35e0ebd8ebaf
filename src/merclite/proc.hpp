// merclite/proc.hpp
//
// Wire serialization ("proc" in Mercury terminology). RPC argument structs
// are genuinely encoded to / decoded from byte buffers — the byte counts
// drive both the network timing model and the (de)serialization cost that
// the paper's Sonata case study measures (Fig. 7).
//
// Encoding: little-endian fixed-width integers, u32-length-prefixed strings
// and vectors. All quantities pass through put()/get() overloads, extended
// by services via ADL for their own argument structs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sym::hg {

/// Spare capacity a BufWriter adds whenever it grows, so that the RPC layer
/// can append its fixed-size message trailer (core.hpp) to a finished
/// payload without reallocating it.
inline constexpr std::size_t kWriterTailroom = 64;

/// Growable output buffer.
class BufWriter {
 public:
  BufWriter() = default;
  /// Adopt `storage` as the backing buffer: its bytes are kept and writes
  /// append after them (a trailer added to a received payload, say).
  explicit BufWriter(std::vector<std::byte> storage) noexcept
      : buf_(std::move(storage)) {}

  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Make room for `n` more bytes plus the tailroom, so a payload whose
  /// size is known up front is written without any reallocation.
  void reserve(std::size_t n) {
    buf_.reserve(buf_.size() + n + kWriterTailroom);
  }

  void write_raw(const void* data, std::size_t n) {
    grow_for(n);
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Append `n` zero bytes: models payload regions whose content is
  /// irrelevant to the experiment but whose size must hit the wire.
  void write_zeros(std::size_t n) {
    grow_for(n);
    buf_.resize(buf_.size() + n);
  }

  /// Overwrite `n` already-written bytes at `pos` (a count or length that
  /// is only known after the fields following it were written).
  void patch_raw(std::size_t pos, const void* data, std::size_t n) {
    if (pos + n > buf_.size()) throw std::out_of_range("proc: patch overrun");
    std::memcpy(buf_.data() + pos, data, n);
  }

 private:
  void grow_for(std::size_t n) {
    if (buf_.capacity() - buf_.size() >= n) return;
    const std::size_t doubled = 2 * buf_.capacity();
    const std::size_t needed = buf_.size() + n;
    buf_.reserve((doubled > needed ? doubled : needed) + kWriterTailroom);
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked input cursor over a received buffer.
class BufReader {
 public:
  BufReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BufReader(const std::vector<std::byte>& buf)
      : BufReader(buf.data(), buf.size()) {}

  void read_raw(void* out, std::size_t n) {
    if (pos_ + n > size_) throw std::out_of_range("proc: buffer underrun");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  void skip(std::size_t n) {
    if (pos_ + n > size_) throw std::out_of_range("proc: buffer underrun");
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- integral types -------------------------------------------------------

template <typename T>
  requires std::is_integral_v<T> || std::is_floating_point_v<T>
void put(BufWriter& w, T v) {
  w.write_raw(&v, sizeof(T));
}

template <typename T>
  requires std::is_integral_v<T> || std::is_floating_point_v<T>
void get(BufReader& r, T& v) {
  r.read_raw(&v, sizeof(T));
}

inline void put(BufWriter& w, bool v) { put(w, static_cast<std::uint8_t>(v)); }
inline void get(BufReader& r, bool& v) {
  std::uint8_t b = 0;
  get(r, b);
  v = (b != 0);
}

// --- strings ----------------------------------------------------------------

inline void put(BufWriter& w, const std::string& s) {
  put(w, static_cast<std::uint32_t>(s.size()));
  w.write_raw(s.data(), s.size());
}

inline void get(BufReader& r, std::string& s) {
  std::uint32_t n = 0;
  get(r, n);
  // Check the wire length before allocating for it.
  if (n > r.remaining()) throw std::out_of_range("proc: buffer underrun");
  s.resize(n);
  if (n > 0) r.read_raw(s.data(), n);
}

// --- vectors & pairs --------------------------------------------------------

template <typename T>
void put(BufWriter& w, const std::vector<T>& v) {
  put(w, static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) put(w, e);
}

template <typename T>
void get(BufReader& r, std::vector<T>& v) {
  std::uint32_t n = 0;
  get(r, n);
  v.clear();
  // Reserve no more than the bytes left: a wire count must not size the
  // allocation by itself. The element reads below throw on an underrun.
  v.reserve(std::min<std::size_t>(n, r.remaining()));
  for (std::uint32_t i = 0; i < n; ++i) {
    T e{};
    get(r, e);
    v.push_back(std::move(e));
  }
}

template <typename A, typename B>
void put(BufWriter& w, const std::pair<A, B>& p) {
  put(w, p.first);
  put(w, p.second);
}

template <typename A, typename B>
void get(BufReader& r, std::pair<A, B>& p) {
  get(r, p.first);
  get(r, p.second);
}

// --- whole-struct helpers ----------------------------------------------------

/// Encode any put()-able value into a fresh buffer.
template <typename T>
[[nodiscard]] std::vector<std::byte> encode(const T& value) {
  BufWriter w;
  put(w, value);
  return w.take();
}

/// Decode a whole buffer into a default-constructed T.
template <typename T>
[[nodiscard]] T decode(const std::vector<std::byte>& buf) {
  BufReader r(buf);
  T value{};
  get(r, value);
  return value;
}

}  // namespace sym::hg
