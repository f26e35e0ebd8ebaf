// symbiosys/chunked_buffer.hpp
//
// Chunked arena buffer for append-heavy measurement streams (trace events,
// system-statistic samples). A growing std::vector periodically copies every
// element it holds — on a trace buffer with a million events that is a
// multi-hundred-megabyte reallocation spike right in the middle of the
// workload being measured. This buffer instead appends into fixed-size
// chunks: appends never move existing elements, iteration order is stable
// (oldest to newest), and memory grows one chunk at a time.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace sym::prof {

template <typename T, std::size_t ChunkCap = 1024>
class ChunkedBuffer {
  static_assert(ChunkCap > 0);

 public:
  ChunkedBuffer() = default;

  void push_back(const T& v) { emplace_back() = v; }

  T& emplace_back() {
    if (size_ % ChunkCap == 0) chunks_.push_back(std::make_unique<Chunk>());
    return chunks_.back()->items[size_++ % ChunkCap];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

  /// Random access by logical index (0 = oldest element).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / ChunkCap]->items[i % ChunkCap];
  }

  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size() - 1]; }

  void clear() {
    chunks_.clear();
    size_ = 0;
  }

  class const_iterator {
   public:
    const_iterator(const ChunkedBuffer* buf, std::size_t i)
        : buf_(buf), i_(i) {}
    const T& operator*() const { return (*buf_)[i_]; }
    const T* operator->() const { return &(*buf_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const ChunkedBuffer* buf_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  struct Chunk {
    T items[ChunkCap];
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace sym::prof
