// simkit/lane.hpp
//
// One shard of the discrete-event engine. A Lane owns everything the old
// single-threaded engine owned — a 4-ary heap of generation-tagged event
// slots (see dheap.hpp), a virtual clock, a FIFO sequence counter and an
// independently seeded Rng stream — for the subset of simulated nodes
// mapped to it (node % lane_count). During a safe window (see engine.hpp)
// every lane is executed by exactly one worker thread and touches only
// lane-local state; events destined for another lane are appended to a
// per-destination outbox that the coordinator merges at the window barrier
// in (src-lane, append) order, which keeps the merged schedule independent
// of the worker count. A callback may also run its own next step in place
// (continue_in_place) when that step provably is the lane's next event;
// it is then accounted exactly as if it had been scheduled and popped. And
// k events with the same time and consecutive sequence numbers can share
// one heap entry (schedule_steps) that runs as k consecutive steps, each
// accounted as its own popped event.
//
// Memory model: every per-event byte lives in the lane's arena (arena.hpp)
// or in vectors the lane recycles in place. Callbacks are SmallFn (inline
// capture buffer, no per-event malloc), event slots come from LaneArena's
// intrusive freelist, and heap/outbox vectors only grow to the workload's
// high-water mark. ArenaStats counts every departure from that steady state
// so benches can assert allocations-per-event == 0 after warmup.
#pragma once

#include <cstdint>
#include <vector>

#include "simkit/arena.hpp"
#include "simkit/debug_checks.hpp"
#include "simkit/dheap.hpp"
#include "simkit/rng.hpp"
#include "simkit/smallfn.hpp"
#include "simkit/time.hpp"

namespace sym::sim {

class Engine;

class Lane {
 public:
  using Callback = SmallFn;

  Lane(std::uint32_t index, std::uint64_t seed, std::uint32_t lane_count);
  ~Lane();
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] TimeNs now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept {
    // The Rng stream is lane-owned state: a draw from a foreign worker both
    // races and perturbs the stream the home lane's events replay.
    debug::assert_home_lane(this, "Lane::rng");
    return rng_;
  }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  /// Logical events run: popped from the heap or continued in place.
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }
  /// The subset of processed() that continue_in_place() ran without a heap
  /// entry; processed() - continued() events were executed from the heap.
  [[nodiscard]] std::uint64_t continued() const noexcept { return continued_; }
  /// The subset of processed() that ran from a schedule_steps() entry after
  /// an earlier step of the same entry: steps that cost no heap pop.
  [[nodiscard]] std::uint64_t coalesced() const noexcept { return coalesced_; }

  /// Rolling digest of the executed event stream (timestamp + FIFO sequence
  /// of every event run, continued in place or popped), folded per lane. Only maintained under
  /// -DSYM_DEBUG_CHECKS=ON (always 0 otherwise); the debug_checks test
  /// suite compares Engine::event_digest() across worker counts so a
  /// determinism regression fails loudly instead of skewing figures.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Allocation accounting for this lane's event path (slot table, heap,
  /// outboxes, SmallFn spills). Pure simulation state: identical across
  /// worker counts for identical schedules.
  [[nodiscard]] const ArenaStats& arena_stats() const noexcept {
    return arena_.stats;
  }

  /// Slots ever created in the arena (live + freelisted): the high-water
  /// mark the recycling tests compare across identical phases.
  [[nodiscard]] std::uint32_t arena_slot_count() const noexcept {
    return arena_.slot_count();
  }

  /// Pre-size the slot table and event heap for a known steady state so the
  /// run never grows containers mid-flight.
  void reserve_events(std::uint32_t n);

  /// Pre-size the outbox buffer for destination `dst`. Outboxes retain
  /// their capacity across window merges, so seeding them with a measured
  /// high-water mark removes the last growth source on the post path.
  void reserve_outbox(std::uint32_t dst, std::uint32_t n);

  /// Largest size the outbox for `dst` ever reached (capacity planning for
  /// reserve_outbox on a subsequent identical run).
  [[nodiscard]] std::uint32_t outbox_highwater(std::uint32_t dst) const noexcept {
    return outbox_hw_[dst];
  }

  /// Schedule `cb` at absolute time `t` (clamped to now()). Returns the
  /// slot/generation half of an Engine::EventId (lane bits added by the
  /// engine). Must only be called from the thread currently executing this
  /// lane, or while no window is executing.
  std::uint64_t schedule(TimeNs t, Callback cb);

  /// Schedule `cb` to run `k` times (1 <= k <= LaneArena::kMaxSteps) at
  /// absolute time `t` (clamped to now()), as k consecutive events: one heap
  /// entry holding k consecutive sequence numbers. Each pop_and_run() runs
  /// one step and accounts it exactly as a popped event with its own
  /// sequence number; between steps the entry stays at the heap top, since
  /// nothing else can have a key inside the reserved range. The callback
  /// keeps its state across steps. Not cancellable. Same threading rule as
  /// schedule().
  void schedule_steps(TimeNs t, std::uint32_t k, Callback cb);

  /// Cancel by slot index + 28-bit generation. Same threading rule as
  /// schedule().
  bool cancel(std::uint32_t slot, std::uint32_t generation);

  /// Append a cross-lane event to this (source) lane's outbox for `dst`.
  /// Delivered — with a sequence number assigned deterministically — when
  /// the coordinator merges outboxes at the next window barrier. The first
  /// post to a given destination since the last merge registers the pair in
  /// dirty_outboxes(), so the merge sweep can walk only live pairs.
  void post_remote(std::uint32_t dst, TimeNs t, Callback cb);

  /// Destination lanes this lane has posted to since the last merge, in
  /// first-post order (each destination listed once). The coordinator sorts
  /// the union of these lists into canonical (dst, src) order, absorbs
  /// exactly those pairs, and calls clear_dirty_outboxes().
  [[nodiscard]] const std::vector<std::uint32_t>& dirty_outboxes()
      const noexcept {
    return dirty_dst_;
  }
  void clear_dirty_outboxes() noexcept { dirty_dst_.clear(); }

  /// Count of merged cross-lane events that arrived with a timestamp below
  /// this lane's clock: a window-protocol violation (a post with less than
  /// the lookahead), so 0 in every correct run.
  [[nodiscard]] std::uint64_t causality_clamps() const noexcept {
    return causality_clamps_;
  }

  /// Execute the single earliest event, or the next step of the earliest
  /// multi-step entry. Returns false if the lane is empty.
  bool pop_and_run();

  /// Execute every event with timestamp strictly below `end`, including
  /// events scheduled onto this lane while the window runs.
  std::size_t run_window(TimeNs end);

  /// Exclusive bound for continue_in_place(): the earliest time at which
  /// the run loop driving this lane would no longer pop an event. The
  /// engine's run loops set it (kTimeNever for run(), deadline + 1 for
  /// run_until()); run_window() sets it to the window end itself. It is 0
  /// outside any run loop and under Engine::step(), so nothing continues
  /// there.
  void set_inplace_end(TimeNs end) noexcept { inplace_end_ = end; }

  /// Account an event at `t` (>= now()) that the executing callback is
  /// about to run inline, as its own tail, instead of scheduling it.
  /// Allowed only when that event would provably be the next one this lane
  /// pops: `t` is strictly earlier than every live pending event (an equal
  /// time loses the FIFO tie-break) and below the in-place bound. On
  /// success the lane advances its clock to `t`, consumes the sequence
  /// number schedule() would have, counts the event in processed() and
  /// folds (t, seq) into the digest, exactly as pop_and_run() would, and
  /// returns true. On failure nothing observable changes and the caller
  /// schedules as usual.
  bool continue_in_place(TimeNs t);

  /// Surface the earliest live (non-cancelled) event time. Returns false if
  /// the lane holds no live events.
  bool peek_next(TimeNs& t);

  /// Drain `src`'s outbox for this lane into this lane's heap, preserving
  /// append order. Called by the coordinator between windows.
  void absorb_outbox_from(Lane& src);

 private:
  /// Heap entries are 24 bytes (no callback): the callback lives in the
  /// arena's cold array, so sift operations move small PODs only.
  struct HeapEntry {
    TimeNs t;
    std::uint64_t seq;  ///< monotonically increasing FIFO tie-break
    std::uint32_t slot;
  };

  struct RemoteEvent {
    TimeNs t;
    Callback cb;
  };

  /// Heap order: time, then FIFO sequence. A stateless functor rather
  /// than a function pointer, so the dheap sifts inline the comparison.
  struct Before {
    [[nodiscard]] bool operator()(const HeapEntry& a,
                                  const HeapEntry& b) const noexcept {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };

  void heap_push(HeapEntry e);
  /// Remove and return the top entry (caller checks non-empty).
  HeapEntry heap_pop();
  /// Drop cancelled entries off the top, releasing their slots.
  void drop_cancelled_top();
  /// Account one executed event (clock, processed count, digest).
  void account_event(TimeNs t, std::uint64_t seq) noexcept;

  std::uint32_t index_;
  TimeNs now_ = 0;
  std::uint64_t digest_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t continued_ = 0;
  std::uint64_t coalesced_ = 0;
  TimeNs inplace_end_ = 0;  ///< exclusive continue_in_place() bound
  std::uint64_t causality_clamps_ = 0;
  std::size_t pending_ = 0;
  std::vector<HeapEntry> heap_;
  LaneArena arena_;
  Rng rng_;
  std::vector<std::vector<RemoteEvent>> outbox_;  ///< one per destination lane
  std::vector<std::uint32_t> outbox_hw_;  ///< per-destination size high-water
  std::vector<std::uint32_t> dirty_dst_;  ///< destinations with pending posts
};

// Inline: every compute and tail dispatch asks, and on a busy lane the
// answer is almost always an early "no".
inline bool Lane::continue_in_place(TimeNs t) {
  debug::assert_home_lane(this, "Lane::continue_in_place");
  if (t >= inplace_end_) return false;
  // A live entry due at or before `t` runs first; cancelled ones never run.
  while (!heap_.empty() && heap_[0].t <= t) {
    if ((arena_.hot(heap_[0].slot).flags & LaneArena::kCancelled) == 0) {
      return false;
    }
    drop_cancelled_top();
  }
  account_event(t, next_seq_++);
  ++continued_;
  return true;
}

}  // namespace sym::sim
