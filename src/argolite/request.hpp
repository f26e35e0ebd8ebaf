// argolite/request.hpp
//
// Lightweight request records: the scale companion to ULTs. An argolite ULT
// carries a fiber stack: 128 KiB of address space and, while its handler
// stays shallow, one resident page — perfect for service handler code,
// hopeless for simulating millions of concurrent client requests. A
// RequestRec is a 48-byte POD slot in a lane-owned RequestArena: requests
// queue through an intrusive FIFO link instead of blocking a fiber, and the
// arena recycles slots through a generation-tagged freelist exactly like the
// simkit event arena, so a steady-state open-loop run creates no per-request
// heap traffic after the table reaches its high-water mark.
//
// Ownership rule (same as every lane-adjacent structure): an arena belongs
// to the lane that owns the server it models; only events executing on that
// lane may acquire, link, or release its records.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "simkit/time.hpp"

namespace sym::abt {

/// One in-flight simulated request. POD by design: records are recycled in
/// place and never own heap state.
struct RequestRec {
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  std::uint64_t id = 0;            ///< globally unique (lane << 40 | seq)
  std::uint64_t bytes = 0;         ///< payload size drawn by the generator
  sim::TimeNs arrival = 0;         ///< when the server received it
  sim::TimeNs service_start = 0;   ///< when it left the queue
  std::uint32_t next = kNil;       ///< intrusive FIFO link (arena index)
  std::uint16_t op = 0;            ///< scenario op-class index
  std::uint16_t generation = 1;    ///< stale-handle guard, bumped on release
};

/// Arena of RequestRec slots with an intrusive freelist. Mirrors the simkit
/// LaneArena discipline (acquire from freelist, release bumps the
/// generation) at request granularity; the counters make steady-state
/// recycling testable — two identical phases must show zero net slot growth.
class RequestArena {
 public:
  std::uint32_t acquire() {
    std::uint32_t idx;
    if (free_head_ != RequestRec::kNil) {
      idx = free_head_;
      free_head_ = recs_[idx].next;
      ++recycled_;
    } else {
      idx = static_cast<std::uint32_t>(recs_.size());
      if (recs_.size() == recs_.capacity()) ++growths_;
      recs_.emplace_back();
    }
    RequestRec& r = recs_[idx];
    r.next = RequestRec::kNil;
    ++live_;
    return idx;
  }

  void release(std::uint32_t idx) noexcept {
    assert(live_ > 0);
    RequestRec& r = recs_[idx];
    ++r.generation;
    r.next = free_head_;
    free_head_ = idx;
    --live_;
  }

  [[nodiscard]] RequestRec& rec(std::uint32_t idx) noexcept {
    return recs_[idx];
  }
  [[nodiscard]] const RequestRec& rec(std::uint32_t idx) const noexcept {
    return recs_[idx];
  }

  /// Slots ever created (live + freelisted): the arena's high-water mark.
  [[nodiscard]] std::uint32_t slot_count() const noexcept {
    return static_cast<std::uint32_t>(recs_.size());
  }
  [[nodiscard]] std::uint32_t live() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t recycled() const noexcept { return recycled_; }
  /// Vector reallocations of the slot table (0 in steady state).
  [[nodiscard]] std::uint64_t growths() const noexcept { return growths_; }

  void reserve(std::uint32_t n) { recs_.reserve(n); }

 private:
  std::vector<RequestRec> recs_;
  std::uint32_t free_head_ = RequestRec::kNil;
  std::uint32_t live_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t growths_ = 0;
};

}  // namespace sym::abt
