// simkit/engine.hpp
//
// The discrete-event simulation engine at the heart of the simulated
// cluster. Everything above it (execution streams, the fabric, databases)
// expresses the passage of time by scheduling callbacks.
//
// The engine is a facade over one or more event *lanes* (lane.hpp). In the
// default configuration there is a single lane and the engine behaves
// exactly like the historical strictly single-threaded implementation:
// events with equal timestamps execute in insertion order (FIFO tie-break
// via a sequence number), which together with the seeded Rng makes entire
// experiments bit-reproducible.
//
// With `EngineConfig::lane_count > 1` (or 0 = one lane per simulated node,
// resolved by the Cluster) the event queue is sharded: each lane owns the
// events of the nodes mapped to it (node % lane_count) plus its own clock,
// heap and Rng stream. Lanes advance in strictly conservative lockstep
// windows [start, start + lookahead), where `start` is the earliest pending
// event anywhere and `lookahead` (the cluster's inter-node latency) lower-
// bounds every cross-lane insertion. An event a lane posts to another lane
// during a window therefore lands at or beyond the window's end, so events
// inside one window on different lanes cannot causally interact and may
// execute concurrently on a pool of worker threads (window.hpp).
// Cross-lane insertions travel through per-lane-pair mailboxes merged at
// each window barrier in (dst-lane, src-lane, append) order — only pairs
// that actually posted are visited — and every lane draws from an
// independently seeded Rng, so results are bit-identical for any
// worker_count (see docs/ARCHITECTURE.md for the full determinism
// argument, including why the window schedule itself depends only on
// simulation state).
//
// Every timer in the stack funnels through these queues, so the per-lane
// operations keep the historical constant factors:
//
//  * Events live in a slot table with generation-tagged ids
//    (id = lane << 56 | generation << 28 | slot). cancel() is a direct O(1)
//    slot access — no hash-set insert, and a stale id from a fired event
//    simply fails the generation check instead of poisoning a tombstone set.
//  * The priority queue is an explicit 4-ary heap (see dheap.hpp):
//    shallower than a binary heap (log_4 n levels) and with a node's
//    children on one cache line's worth of entries, which measurably
//    speeds up the sift-down on pop. Cancelled entries are skipped with a
//    flag test when they surface, not a set lookup per pop.
//  * Per-event memory is arena-owned (arena.hpp): slots recycle through an
//    intrusive freelist, callbacks are inline-buffer SmallFn, and
//    Engine::arena_stats() aggregates the per-lane allocation counters the
//    benches divide by executed events.
//  * An event that would provably be the lane's very next one can skip the
//    queue entirely: continue_in_place() lets the callback about to
//    schedule it run it inline, with the same clock, sequence number, event
//    count and digest (docs/ARCHITECTURE.md, "Determinism").
//  * k events due at the same time with consecutive sequence numbers can
//    share one heap entry (at_steps_on) that runs as k steps, each
//    accounted as its own event.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simkit/lane.hpp"
#include "simkit/rng.hpp"
#include "simkit/time.hpp"

namespace sym::sim {

/// Parallel-execution knobs. The default (one lane, one worker) is the
/// historical single-threaded engine, bit-for-bit.
struct EngineConfig {
  /// Number of event lanes the queue is sharded into. 1 = classic
  /// single-threaded engine. 0 = auto: one lane per simulated node,
  /// resolved when the Cluster is constructed. The lane count determines
  /// the schedule (and the per-lane Rng streams), so runs with different
  /// lane counts are different experiments; runs with the same lane count
  /// and different worker counts are bit-identical.
  std::uint32_t lane_count = 1;
  /// Worker threads executing lanes during a safe window. Clamped to the
  /// lane count. 1 = run lanes sequentially on the calling thread.
  std::uint32_t worker_count = 1;
};

class Engine {
 public:
  using Callback = Lane::Callback;

  /// Opaque handle for cancelling a scheduled event. Encodes a lane, a slot
  /// index and a generation tag; 0 is never a valid id. Events posted to a
  /// *different* lane from inside a running lane travel through a mailbox
  /// and are not cancellable (at_on returns 0 for them).
  using EventId = std::uint64_t;

  explicit Engine(std::uint64_t seed = 0x5EEDC0DEULL, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time: the executing lane's clock from inside a lane,
  /// the window start (or final time) from the coordinating thread.
  [[nodiscard]] TimeNs now() const noexcept;

  /// Deterministic RNG. From inside a running lane this is that lane's
  /// stream; from setup/main context it is lane 0's stream (which is seeded
  /// with the engine seed verbatim, so single-lane behavior is unchanged).
  [[nodiscard]] Rng& rng() noexcept;

  /// Schedule `cb` at absolute virtual time `t` (clamped to now()) on the
  /// current lane (the executing lane, or lane 0 from main context).
  EventId at(TimeNs t, Callback cb);

  /// Schedule `cb` after `d` nanoseconds of virtual time on the current lane.
  EventId after(DurationNs d, Callback cb) {
    return at(now() + d, std::move(cb));
  }

  /// Schedule onto a specific lane. From main context, or when `lane` is the
  /// executing lane, this is a direct (cancellable) insertion. From a
  /// different running lane the event is routed through the deterministic
  /// window mailbox and 0 is returned (not cancellable); `t` must then be at
  /// least one lookahead ahead of the current window start.
  EventId at_on(std::uint32_t lane, TimeNs t, Callback cb);
  EventId after_on(std::uint32_t lane, DurationNs d, Callback cb) {
    return at_on(lane, now() + d, std::move(cb));
  }

  /// Schedule `cb` to run `k` times at `t` on `lane`, as k consecutive
  /// events from one heap entry (Lane::schedule_steps): same clock, FIFO
  /// sequence numbers, event count and digest as k at_on() calls in a row,
  /// one heap push and pop. The callback carries its own cursor across
  /// steps. Not cancellable; `lane` must be the executing lane or the call
  /// must come from main context.
  void at_steps_on(std::uint32_t lane, TimeNs t, std::uint32_t k, Callback cb);
  void after_steps_on(std::uint32_t lane, DurationNs d, std::uint32_t k,
                      Callback cb) {
    at_steps_on(lane, now() + d, k, std::move(cb));
  }

  /// Cancel a previously scheduled event. Safe to call after the event has
  /// fired (the generation check makes it a no-op). Returns true if the
  /// event was still pending. Must target the calling context's own lane.
  bool cancel(EventId id);

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run until virtual time would exceed `deadline` (events at exactly
  /// `deadline` still execute), the queue drains, or stop() is called.
  void run_until(TimeNs deadline);

  /// Execute a single event (the globally earliest; ties broken by lane
  /// index). Returns false if all lanes are empty. Sequential — intended
  /// for tests and debugging. Never continues in place, so it is the
  /// event-by-event reference the run loops are checked against.
  bool step();

  /// Request that run()/run_until() return. Takes effect after the current
  /// event (single lane) or at the next window barrier (sharded), so the
  /// stopping point is deterministic for any worker count. Once set,
  /// continue_in_place() refuses, so the next event stays pending.
  void stop() noexcept { stopped_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_relaxed);
  }

  /// Clear the stop flag so the engine can be driven again.
  void reset_stop() noexcept {
    stopped_.store(false, std::memory_order_relaxed);
  }

  /// Run the calling callback's next step in place instead of scheduling
  /// it `d` from now on the executing lane (Lane::continue_in_place). Only
  /// for a callback's tail: the caller must do nothing after it that a
  /// scheduled event would have seen done first. True means the lane's clock
  /// now reads now() + d and the step was accounted as an executed event;
  /// false (no executing lane, stop() requested, another event due first,
  /// or past the run loop's bound) means schedule it as usual.
  bool continue_in_place(DurationNs d);

  [[nodiscard]] std::size_t pending_events() const noexcept;
  /// Logical events: executed from a heap or continued in place. Equal to
  /// what a run without in-place continuation (e.g. by step()) executes.
  [[nodiscard]] std::uint64_t events_processed() const noexcept;
  /// The part of events_processed() continued in place, without a heap
  /// push/pop.
  [[nodiscard]] std::uint64_t events_continued() const noexcept;
  /// The part of events_processed() run as a later step of a multi-step
  /// entry (at_steps_on). Heap pops are events_processed() -
  /// events_continued() - events_coalesced().
  [[nodiscard]] std::uint64_t events_coalesced() const noexcept;

  /// Rolling digest of the executed event stream, folded over the lanes in
  /// lane-index order. Two runs with the same lane count must produce the
  /// same digest for every worker_count; only maintained under
  /// -DSYM_DEBUG_CHECKS=ON (0 otherwise). See docs/STATIC_ANALYSIS.md.
  [[nodiscard]] std::uint64_t event_digest() const noexcept;

  /// Event-path allocation counters summed over every lane's arena. The
  /// benches report stats.allocations() / events_processed() as the
  /// allocations-per-event column; steady state must hold it at zero.
  [[nodiscard]] ArenaStats arena_stats() const noexcept;

  /// Total event slots ever created across the lane arenas (live +
  /// freelisted): the high-water mark the recycling tests compare across
  /// identical phases.
  [[nodiscard]] std::uint64_t arena_slot_count() const noexcept;

  /// Pre-size one lane's slot table and event heap for `n` simultaneous
  /// pending events, so a known steady state never grows containers
  /// mid-run. Call before scheduling. Event populations are rarely uniform
  /// (server lanes hold the in-transit deliveries), so capacities are per
  /// lane.
  void reserve_events_on(std::uint32_t lane, std::uint32_t n);

  /// Event slots ever created on one lane (its arena high-water mark) —
  /// the capacity-planning input for reserve_events_on.
  [[nodiscard]] std::uint64_t arena_slot_count(std::uint32_t lane) const noexcept;

  /// Row-major lanes^2 matrix of outbox size high-water marks: entry
  /// (src, dst) is the largest batch src ever buffered for dst between two
  /// window merges. A warmup run's matrix, fed back through
  /// reserve_outboxes() on an identical run, removes the last allocation
  /// source on the cross-lane post path.
  [[nodiscard]] std::vector<std::uint32_t> outbox_highwater() const;

  /// Pre-size the (src, dst) outbox buffers from a row-major lanes^2
  /// matrix of capacities (zero entries are skipped).
  void reserve_outboxes(const std::vector<std::uint32_t>& matrix);

#if SYM_DEBUG_CHECKS
  /// Test-only escape hatch: direct access to a Lane, bypassing the at_on
  /// mailbox discipline. Exists so the debug_checks suite can plant a
  /// cross-lane touch and assert the ownership verifier catches it.
  [[nodiscard]] Lane& debug_lane(std::uint32_t lane) { return *lanes_[lane]; }
#endif

  // --- lane topology -------------------------------------------------------

  [[nodiscard]] std::uint32_t lane_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  /// True when the event queue is sharded across more than one lane.
  [[nodiscard]] bool parallel() const noexcept { return lanes_.size() > 1; }
  [[nodiscard]] std::uint32_t lane_for_node(std::uint32_t node) const noexcept {
    return node % static_cast<std::uint32_t>(lanes_.size());
  }
  [[nodiscard]] std::uint32_t worker_count() const noexcept {
    return workers_;
  }

  /// Resolve `lane_count == 0` (auto) to one lane per node. Called by the
  /// Cluster constructor; a no-op when the lane count was set explicitly.
  /// Must run before any event is scheduled or any Rng draw is made.
  void shard_for_nodes(std::uint32_t node_count);

  /// Safe-window width: a lower bound on the delay of any cross-lane event
  /// insertion. Only meaningful when parallel(). The Cluster sets it to its
  /// inter-node latency; engines driven without a Cluster must set it
  /// before run()/run_until().
  void set_lookahead(DurationNs d) noexcept;
  [[nodiscard]] DurationNs lookahead() const noexcept { return lookahead_; }

  // --- window protocol counters (sharded mode) ----------------------------

  /// Safe windows executed by run()/run_until() over this engine's life.
  [[nodiscard]] std::uint64_t windows_executed() const noexcept {
    return windows_executed_;
  }
  /// Always 0: windows are never stretched past the conservative bound.
  /// Kept only because perfbench/driver.cpp still reports it.
  [[nodiscard]] std::uint64_t quiet_extended_windows() const noexcept {
    return 0;
  }
  /// (dst, src) mailbox pairs the merge sweep actually absorbed. The sweep
  /// walks only registered dirty pairs, so this must equal
  /// dirty_pairs_posted(); the scaling bench gates on it.
  [[nodiscard]] std::uint64_t merge_pairs_visited() const noexcept {
    return merge_pairs_visited_;
  }
  /// (dst, src) pairs registered dirty by first posts since the last merge,
  /// accumulated across windows.
  [[nodiscard]] std::uint64_t dirty_pairs_posted() const noexcept {
    return dirty_pairs_posted_;
  }
  /// Merged events that arrived below their destination lane's clock: a
  /// window-protocol violation, 0 by construction (a lockstep window never
  /// outruns the lookahead). -DSYM_DEBUG_CHECKS=ON reports each one through
  /// the debug violation handler.
  [[nodiscard]] std::uint64_t causality_clamps() const noexcept;

 private:
  friend class ActiveLaneScope;
  friend class WindowCoordinator;

  static constexpr std::uint32_t kMaxLanes = 256;  // 8 id bits

  [[nodiscard]] Lane* active_lane_here() const noexcept;
  [[nodiscard]] Lane& scheduling_lane() noexcept;
  [[nodiscard]] static EventId make_id(std::uint32_t lane,
                                       std::uint64_t packed) noexcept {
    return (static_cast<EventId>(lane) << 56) | packed;
  }

  void build_lanes(std::uint32_t count);
  void run_classic();
  void run_until_classic(TimeNs deadline);
  void run_windows(bool bounded, TimeNs deadline);

  /// The lane holding the earliest live event, ties going to the lowest
  /// lane index; nullptr when every lane is empty. Sets `t` to its time.
  [[nodiscard]] Lane* earliest_lane(TimeNs& t);
  /// Exclusive end of the window starting at `start`: start + lookahead,
  /// capped just past the deadline of a bounded run.
  [[nodiscard]] TimeNs window_end(TimeNs start, bool bounded,
                                  TimeNs deadline) const noexcept;

  std::uint64_t seed_;
  EngineConfig config_;
  std::uint32_t workers_ = 1;
  DurationNs lookahead_ = 0;
  bool auto_shard_ = false;
  TimeNs main_now_ = 0;  ///< window start / final time (sharded mode)
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<Lane>> lanes_;

  // Window machinery (sharded mode).
  std::uint64_t windows_executed_ = 0;
  std::uint64_t merge_pairs_visited_ = 0;
  std::uint64_t dirty_pairs_posted_ = 0;
};

/// RAII marker (internal): designates `lane` as the lane executing on the
/// calling thread, which routes Engine::at/now/rng to it. Used by the
/// engine's own run loops and the window coordinator's workers.
class ActiveLaneScope {
 public:
  ActiveLaneScope(Engine& engine, Lane& lane) noexcept;
  ~ActiveLaneScope();
  ActiveLaneScope(const ActiveLaneScope&) = delete;
  ActiveLaneScope& operator=(const ActiveLaneScope&) = delete;

 private:
  Engine* prev_engine_;
  Lane* prev_lane_;
};

}  // namespace sym::sim
