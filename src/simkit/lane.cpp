#include "simkit/lane.hpp"

#include <cassert>
#include <utility>

namespace sym::sim {

Lane::Lane(std::uint32_t index, std::uint64_t seed, std::uint32_t lane_count)
    : index_(index),
      rng_(seed),
      outbox_(lane_count),
      outbox_hw_(lane_count, 0) {
  debug::bind_home_lane(this, index_);
}

Lane::~Lane() { debug::unbind_home_lane(this); }

void Lane::reserve_events(std::uint32_t n) {
  arena_.reserve(n);
  heap_.reserve(n);
  dirty_dst_.reserve(outbox_.size());
}

void Lane::reserve_outbox(std::uint32_t dst, std::uint32_t n) {
  assert(dst < outbox_.size());
  outbox_[dst].reserve(n);
}

// ---------------------------------------------------------------------------
// 4-ary event heap (see dheap.hpp)
// ---------------------------------------------------------------------------

void Lane::heap_push(HeapEntry e) {
  if (heap_.size() == heap_.capacity()) ++arena_.stats.container_growths;
  dheap_push(heap_, e, Before{});
}

Lane::HeapEntry Lane::heap_pop() {
  assert(!heap_.empty());
  return dheap_pop(heap_, Before{});
}

void Lane::drop_cancelled_top() {
  while (!heap_.empty() &&
         (arena_.hot(heap_[0].slot).flags & LaneArena::kCancelled) != 0) {
    arena_.release(heap_pop().slot);
  }
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

std::uint64_t Lane::schedule(TimeNs t, Callback cb) {
  assert(cb && "scheduling an empty callback");
  // The slot table and heap are lane-owned: inserting from a foreign
  // worker's lane is exactly the cross-lane bug at_on's mailbox prevents.
  debug::assert_home_lane(this, "Lane::schedule");
  if (t < now_) t = now_;  // no scheduling into the past
  if (cb.on_heap()) ++arena_.stats.fn_heap_spills;
  const std::uint32_t idx = arena_.acquire();
  arena_.cb(idx) = std::move(cb);
  heap_push(HeapEntry{t, next_seq_++, idx});
  ++pending_;
  return (static_cast<std::uint64_t>(arena_.hot(idx).generation & 0x0FFFFFFFu)
          << 28) |
         idx;
}

void Lane::schedule_steps(TimeNs t, std::uint32_t k, Callback cb) {
  assert(k >= 1 && k <= LaneArena::kMaxSteps);
  debug::assert_home_lane(this, "Lane::schedule_steps");
  // The entry takes the first step's sequence number; the other k - 1 are
  // reserved behind it.
  const std::uint64_t id = schedule(t, std::move(cb));
  arena_.hot(static_cast<std::uint32_t>(id & 0x0FFFFFFFu)).steps_after =
      static_cast<std::uint16_t>(k - 1);
  next_seq_ += k - 1;
  pending_ += k - 1;
}

bool Lane::cancel(std::uint32_t slot, std::uint32_t generation) {
  debug::assert_home_lane(this, "Lane::cancel");
  if (slot >= arena_.slot_count()) return false;
  LaneArena::SlotHot& s = arena_.hot(slot);
  // A fired or re-used slot fails the generation check: cancelling a stale
  // id is a no-op, with no tombstone left behind. The heap entry stays in
  // place and is dropped with a flag test when it surfaces.
  if ((s.flags & LaneArena::kInUse) == 0 ||
      (s.generation & 0x0FFFFFFFu) != generation ||
      (s.flags & LaneArena::kCancelled) != 0) {
    return false;
  }
  s.flags |= LaneArena::kCancelled;
  arena_.cb(slot) = nullptr;  // free captured state eagerly
  --pending_;
  return true;
}

void Lane::post_remote(std::uint32_t dst, TimeNs t, Callback cb) {
  assert(dst < outbox_.size());
  // Spills are counted once per event, in schedule(): every remote callback
  // reaches the destination lane's schedule() via absorb_outbox_from().
  auto& box = outbox_[dst];
  if (box.empty()) {
    if (dirty_dst_.size() == dirty_dst_.capacity()) {
      ++arena_.stats.container_growths;
    }
    dirty_dst_.push_back(dst);
  }
  if (box.size() == box.capacity()) ++arena_.stats.container_growths;
  box.push_back(RemoteEvent{t, std::move(cb)});
  if (box.size() > outbox_hw_[dst]) {
    outbox_hw_[dst] = static_cast<std::uint32_t>(box.size());
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Lane::account_event(TimeNs t, std::uint64_t seq) noexcept {
  now_ = t;
  ++processed_;
#if SYM_DEBUG_CHECKS
  // Fold (timestamp, FIFO seq) of every executed event into the rolling
  // per-lane digest; identical schedules => identical digests.
  const auto mix = [](std::uint64_t h, std::uint64_t v) noexcept {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  };
  digest_ = mix(mix(digest_, t), seq);
#else
  (void)seq;
#endif
}

bool Lane::pop_and_run() {
  debug::assert_home_lane(this, "Lane::pop_and_run");
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_[0].slot;
    LaneArena::SlotHot& s = arena_.hot(slot);
    if ((s.flags & LaneArena::kCancelled) != 0) {
      arena_.release(heap_pop().slot);
      continue;
    }
    if ((s.flags & LaneArena::kStepped) != 0) ++coalesced_;
    --pending_;
    if (s.steps_after != 0) {
      // Not the entry's last step: it stays on top, keyed by the next
      // reserved sequence number. The callback runs outside the slot
      // because the arena may grow while it runs.
      --s.steps_after;
      s.flags |= LaneArena::kStepped;
      HeapEntry& top = heap_[0];
      account_event(top.t, top.seq++);
      Callback cb = std::move(arena_.cb(slot));
      cb();
      arena_.cb(slot) = std::move(cb);
      return true;
    }
    const HeapEntry top = heap_pop();
    account_event(top.t, top.seq);
    Callback cb = std::move(arena_.cb(slot));
    // Release before running: a callback cancelling its own (now stale) id
    // or scheduling new events must see a consistent slot table.
    arena_.release(slot);
    cb();
    return true;
  }
  return false;
}

std::size_t Lane::run_window(TimeNs end) {
  inplace_end_ = end;
  std::size_t ran = 0;
  while (true) {
    drop_cancelled_top();
    if (heap_.empty() || heap_[0].t >= end) break;
    pop_and_run();
    ++ran;
  }
  inplace_end_ = 0;
  return ran;
}

bool Lane::peek_next(TimeNs& t) {
  drop_cancelled_top();
  if (heap_.empty()) return false;
  t = heap_[0].t;
  return true;
}

void Lane::absorb_outbox_from(Lane& src) {
  auto& box = src.outbox_[index_];
  for (auto& ev : box) {
    // The lookahead guarantees every merged event lands at or beyond the
    // window end, hence at or after this lane's clock. One below it means a
    // sender posted with less than the lookahead: schedule() would clamp
    // it to now() and silently shift its modeled delivery time.
    if (ev.t < now_) {
      ++causality_clamps_;
      debug::report_late_merge(this, index_, src.index_);
    }
    schedule(ev.t, std::move(ev.cb));
  }
  box.clear();
}

}  // namespace sym::sim
