// simkit/arena.hpp
//
// LaneArena — lane-local event-slot arena. Each Lane owns one arena holding
// the slot table of every pending event in an SoA split: the *hot* array
// (generation tag, freelist link, liveness flags — the fields cancel() and
// the cancelled-entry drop test touch, plus the step count of a multi-step
// entry) is 12 bytes per slot and packs five slots per cache line, while
// the *cold* array holds the SmallFn callback payload that is only touched
// twice per event (store on schedule, move-out on execution). Slots recycle
// through an intrusive freelist with the same generation-tag discipline the
// AoS table used, so EventIds from fired events keep failing the generation
// check.
//
// The arena is the unit of the zero-allocation steady-state invariant: once
// the slot table, the event heap and the outbox buffers have grown to the
// workload's high-water mark, a run performs no malloc/free per event —
// slots come from the freelist, heap pushes reuse vector capacity, and
// SmallFn captures stay inline. ArenaStats counts every departure from that
// state (container growth, inline-capture spill), which is what the
// allocations-per-event column in BENCH_scale.json / BENCH_scaling.json
// reports and the bench_scale_smoke ctest gates on: after warmup the delta
// must be zero. Wall-clock never enters the counters, so they are identical
// across worker counts.
#pragma once

#include <cstdint>
#include <vector>

#include "simkit/smallfn.hpp"

namespace sym::sim {

/// Allocation accounting for one lane. All counters are simulation state
/// (they depend only on the schedule), never wall time.
struct ArenaStats {
  /// Vector reallocations: slot table, event heap, outbox buffers and the
  /// dirty-destination list growing past capacity.
  std::uint64_t container_growths = 0;
  /// SmallFn captures that spilled past the inline buffer.
  std::uint64_t fn_heap_spills = 0;
  /// Slots served from the freelist (steady-state recycling hits).
  std::uint64_t slots_recycled = 0;

  /// Heap allocations attributable to the event path: what the
  /// allocations-per-event bench columns divide by executed events.
  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return container_growths + fn_heap_spills;
  }

  ArenaStats& operator+=(const ArenaStats& o) noexcept {
    container_growths += o.container_growths;
    fn_heap_spills += o.fn_heap_spills;
    slots_recycled += o.slots_recycled;
    return *this;
  }
};

class LaneArena {
 public:
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;
  static constexpr std::uint8_t kInUse = 0x1;
  static constexpr std::uint8_t kCancelled = 0x2;
  /// A multi-step entry that has already run one of its steps.
  static constexpr std::uint8_t kStepped = 0x4;
  /// Most steps one entry can run (Lane::schedule_steps).
  static constexpr std::uint32_t kMaxSteps = 0x10000;

  struct SlotHot {
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoFreeSlot;
    std::uint8_t flags = 0;
    /// Steps the entry still runs after its next one; 0 for a plain event
    /// and back to 0 by the time the slot is released.
    std::uint16_t steps_after = 0;
  };
  static_assert(sizeof(SlotHot) == 12, "five hot slots per cache line");

  /// Acquire a slot (freelist first, growth otherwise). The returned slot is
  /// marked in-use with a cleared cancel flag; its callback is empty.
  std::uint32_t acquire() {
    std::uint32_t idx;
    if (free_head_ != kNoFreeSlot) {
      idx = free_head_;
      free_head_ = hot_[idx].next_free;
      ++stats.slots_recycled;
    } else {
      idx = static_cast<std::uint32_t>(hot_.size());
      if (hot_.size() == hot_.capacity() || cb_.size() == cb_.capacity()) {
        ++stats.container_growths;
      }
      hot_.emplace_back();
      cb_.emplace_back();
    }
    SlotHot& s = hot_[idx];
    s.flags = kInUse;
    return idx;
  }

  /// Release a slot: destroy the callback, invalidate outstanding ids via
  /// the generation bump, and push onto the freelist.
  void release(std::uint32_t idx) noexcept {
    SlotHot& s = hot_[idx];
    cb_[idx] = nullptr;
    s.flags = 0;
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  [[nodiscard]] SlotHot& hot(std::uint32_t idx) noexcept { return hot_[idx]; }
  [[nodiscard]] const SlotHot& hot(std::uint32_t idx) const noexcept {
    return hot_[idx];
  }
  [[nodiscard]] SmallFn& cb(std::uint32_t idx) noexcept { return cb_[idx]; }

  /// Slots ever created (live + freelisted): the arena's high-water mark.
  [[nodiscard]] std::uint32_t slot_count() const noexcept {
    return static_cast<std::uint32_t>(hot_.size());
  }

  /// Pre-size the table so a known steady state never grows mid-run.
  void reserve(std::uint32_t n) {
    hot_.reserve(n);
    cb_.reserve(n);
  }

  ArenaStats stats;

 private:
  std::vector<SlotHot> hot_;
  std::vector<SmallFn> cb_;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace sym::sim
