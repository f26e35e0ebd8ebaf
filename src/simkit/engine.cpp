#include "simkit/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simkit/window.hpp"

namespace sym::sim {

namespace {

/// Expand the engine seed into one seed per lane. Lane 0 receives the seed
/// verbatim so a single-lane engine draws exactly the historical stream;
/// higher lanes get splitmix64-derived independent streams.
std::uint64_t lane_seed(std::uint64_t seed, std::uint32_t lane) {
  if (lane == 0) return seed;
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * lane;
  return splitmix64(state);
}

struct ActiveLaneTls {
  Engine* engine = nullptr;
  Lane* lane = nullptr;
};

// symlint: allow(shared-state-escape) reason=thread_local active-lane cursor; each worker reads and writes only its own copy inside ActiveLaneScope
thread_local ActiveLaneTls t_active;

/// a + b without wrapping past kTimeNever (which means "unbounded").
inline TimeNs sat_add(TimeNs a, DurationNs b) noexcept {
  return a > kTimeNever - b ? kTimeNever : a + b;
}

}  // namespace

// ---------------------------------------------------------------------------
// NextEventIndex
// ---------------------------------------------------------------------------

void NextEventIndex::resize(std::uint32_t lanes) {
  heap_.clear();
  pos_.assign(lanes, kAbsent);
  time_.assign(lanes, kTimeNever);
}

void NextEventIndex::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void NextEventIndex::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void NextEventIndex::update(std::uint32_t lane, TimeNs t) {
  if (time_[lane] == t) return;
  time_[lane] = t;
  const std::uint32_t at = pos_[lane];
  if (t == kTimeNever) {
    if (at == kAbsent) return;
    // Remove: move the last entry into the hole and restore heap order.
    const Entry last = heap_.back();
    heap_.pop_back();
    pos_[lane] = kAbsent;
    if (last.lane != lane) {
      heap_[at] = last;  // place() via sift below
      pos_[last.lane] = at;
      sift_up(at);
      sift_down(pos_[last.lane]);
    }
    return;
  }
  if (at == kAbsent) {
    heap_.push_back(Entry{t, lane});
    pos_[lane] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
    return;
  }
  heap_[at].t = t;
  sift_up(at);
  sift_down(pos_[lane]);
}

// ---------------------------------------------------------------------------
// ActiveLaneScope
// ---------------------------------------------------------------------------

ActiveLaneScope::ActiveLaneScope(Engine& engine, Lane& lane) noexcept
    : prev_engine_(t_active.engine), prev_lane_(t_active.lane) {
  t_active.engine = &engine;
  t_active.lane = &lane;
  debug::set_current_lane(lane.index());
}

ActiveLaneScope::~ActiveLaneScope() {
  t_active.engine = prev_engine_;
  t_active.lane = prev_lane_;
  debug::set_current_lane(prev_lane_ != nullptr ? prev_lane_->index()
                                                : debug::kNoLane);
}

// ---------------------------------------------------------------------------
// Construction / lane topology
// ---------------------------------------------------------------------------

Engine::Engine(std::uint64_t seed, EngineConfig config)
    : seed_(seed), config_(config) {
  auto_shard_ = (config_.lane_count == 0);
  const std::uint32_t n =
      auto_shard_ ? 1 : std::min(config_.lane_count, kMaxLanes);
  build_lanes(n);
}

void Engine::build_lanes(std::uint32_t count) {
  assert(count >= 1);
  lanes_.clear();
  lanes_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // symlint: allow(may-allocate) reason=one-time lane construction at
    // engine setup, before any event executes
    lanes_.push_back(std::make_unique<Lane>(i, lane_seed(seed_, i), count));
  }
  const std::uint32_t w = config_.worker_count == 0 ? 1 : config_.worker_count;
  workers_ = std::min(w, count);
  next_index_.resize(count);  // lanes start with next_dirty set
}

void Engine::shard_for_nodes(std::uint32_t node_count) {
  if (!auto_shard_ || node_count == 0) return;
  auto_shard_ = false;
  const std::uint32_t n = std::min(node_count, kMaxLanes);
  if (n == lane_count()) return;
  assert(pending_events() == 0 && events_processed() == 0 &&
         "lane topology must be fixed before any event is scheduled");
  build_lanes(n);
}

void Engine::set_lookahead(DurationNs d) noexcept {
  lookahead_ = d > 0 ? d : 1;
}

// ---------------------------------------------------------------------------
// Context-sensitive accessors
// ---------------------------------------------------------------------------

Lane* Engine::active_lane_here() const noexcept {
  return t_active.engine == this ? t_active.lane : nullptr;
}

Lane& Engine::scheduling_lane() noexcept {
  if (Lane* a = active_lane_here()) return *a;
  return *lanes_[0];
}

TimeNs Engine::now() const noexcept {
  if (const Lane* a = active_lane_here()) return a->now();
  if (lanes_.size() == 1) return lanes_[0]->now();
  return main_now_;
}

Rng& Engine::rng() noexcept { return scheduling_lane().rng(); }

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

Engine::EventId Engine::at(TimeNs t, Callback cb) {
  Lane& l = scheduling_lane();
  return make_id(l.index(), l.schedule(t, std::move(cb)));
}

Engine::EventId Engine::at_on(std::uint32_t lane, TimeNs t, Callback cb) {
  assert(lane < lanes_.size());
  Lane* a = active_lane_here();
  if (a != nullptr && a->index() != lane) {
    // Cross-lane insertion from inside a running lane: deterministic
    // mailbox, delivered at the next window barrier. The lookahead
    // guarantees t lands at or beyond the end of the current window.
    a->post_remote(lane, t, std::move(cb));
    return 0;
  }
  return make_id(lane, lanes_[lane]->schedule(t, std::move(cb)));
}

bool Engine::cancel(EventId id) {
  if (id == 0) return false;
  const auto lane = static_cast<std::uint32_t>(id >> 56);
  const auto gen = static_cast<std::uint32_t>((id >> 28) & 0x0FFFFFFFu);
  const auto slot = static_cast<std::uint32_t>(id & 0x0FFFFFFFu);
  if (lane >= lanes_.size()) return false;
#ifndef NDEBUG
  const Lane* a = active_lane_here();
  assert((a == nullptr || a->index() == lane) &&
         "cancel() must target the calling context's own lane");
#endif
  return lanes_[lane]->cancel(slot, gen);
}

// ---------------------------------------------------------------------------
// Execution — classic (single lane)
// ---------------------------------------------------------------------------

void Engine::run_classic() {
  Lane& l = *lanes_[0];
  ActiveLaneScope scope(*this, l);
  while (!stopped() && l.pop_and_run()) {
  }
}

void Engine::run_until_classic(TimeNs deadline) {
  Lane& l = *lanes_[0];
  ActiveLaneScope scope(*this, l);
  while (!stopped()) {
    // Surface the true next live event before testing the deadline.
    TimeNs t;
    if (!l.peek_next(t) || t > deadline) break;
    l.pop_and_run();
  }
}

// ---------------------------------------------------------------------------
// Execution — sharded (safe windows)
// ---------------------------------------------------------------------------

void Engine::refresh_next_index() {
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    Lane& l = *lanes_[i];
    if (!l.take_next_dirty()) continue;
    TimeNs t;
    next_index_.update(i, l.peek_next(t) ? t : kTimeNever);
  }
}

TimeNs Engine::window_end(TimeNs start, bool bounded,
                          TimeNs deadline) const noexcept {
  const TimeNs end = sat_add(start, lookahead_);
  return bounded ? std::min(end, sat_add(deadline, 1)) : end;
}

void Engine::run_windows(bool bounded, TimeNs deadline) {
  assert(lookahead_ > 0 &&
         "sharded engine requires a lookahead (set by the Cluster)");
  WindowCoordinator coord(*this, workers_);
  while (!stopped()) {
    refresh_next_index();
    if (next_index_.empty()) break;
    // Lockstep window [start, start + lookahead) from the earliest pending
    // event anywhere: every event executed inside it is at or after start,
    // so anything it posts to another lane lands at or beyond the end.
    const TimeNs start = next_index_.top_time();
    if (bounded && start > deadline) break;
    main_now_ = start;
    coord.execute_window(window_end(start, bounded, deadline));
    ++windows_executed_;
    merge_pairs_visited_ += coord.last_merge_pairs();
    dirty_pairs_posted_ += coord.last_dirty_pairs();
  }
  TimeNs final = main_now_;
  for (auto& l : lanes_) final = std::max(final, l->now());
  main_now_ = final;
}

void Engine::run() {
  if (!parallel()) {
    run_classic();
    return;
  }
  run_windows(/*bounded=*/false, 0);
}

void Engine::run_until(TimeNs deadline) {
  if (!parallel()) {
    run_until_classic(deadline);
    return;
  }
  run_windows(/*bounded=*/true, deadline);
}

bool Engine::step() {
  // Shares the incremental next-event index with run_windows(): only lanes
  // whose heap top may have moved are re-peeked, and the (time, lane)
  // heap order reproduces the historical "earliest event, ties by lane
  // index" selection exactly.
  refresh_next_index();
  if (next_index_.empty()) return false;
  Lane* best = lanes_[next_index_.top_lane()].get();
  {
    ActiveLaneScope scope(*this, *best);
    best->pop_and_run();
  }
  if (parallel()) {
    // Deliver any cross-lane insertions immediately: step() is sequential,
    // so the mailbox discipline is not needed for determinism. Only the
    // destinations the event actually posted to are touched.
    for (const std::uint32_t dst : best->dirty_outboxes()) {
      lanes_[dst]->absorb_outbox_from(*best);
    }
    best->clear_dirty_outboxes();
    main_now_ = std::max(main_now_, best->now());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

std::size_t Engine::pending_events() const noexcept {
  std::size_t n = 0;
  for (const auto& l : lanes_) n += l->pending();
  return n;
}

std::uint64_t Engine::events_processed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->processed();
  return n;
}

std::uint64_t Engine::causality_clamps() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->causality_clamps();
  return n;
}

std::uint64_t Engine::event_digest() const noexcept {
  std::uint64_t h = 0;
  for (const auto& l : lanes_) {
    h ^= l->digest() + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

ArenaStats Engine::arena_stats() const noexcept {
  ArenaStats total;
  for (const auto& l : lanes_) total += l->arena_stats();
  return total;
}

std::uint64_t Engine::arena_slot_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->arena_slot_count();
  return n;
}

void Engine::reserve_events_per_lane(std::uint32_t n) {
  for (auto& l : lanes_) l->reserve_events(n);
}

void Engine::reserve_events_on(std::uint32_t lane, std::uint32_t n) {
  lanes_[lane]->reserve_events(n);
}

std::uint64_t Engine::arena_slot_count(std::uint32_t lane) const noexcept {
  return lanes_[lane]->arena_slot_count();
}

std::vector<std::uint32_t> Engine::outbox_highwater() const {
  const std::uint32_t n = lane_count();
  std::vector<std::uint32_t> m(static_cast<std::size_t>(n) * n, 0);
  for (std::uint32_t src = 0; src < n; ++src) {
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      m[static_cast<std::size_t>(src) * n + dst] =
          lanes_[src]->outbox_highwater(dst);
    }
  }
  return m;
}

void Engine::reserve_outboxes(const std::vector<std::uint32_t>& matrix) {
  const std::uint32_t n = lane_count();
  assert(matrix.size() == static_cast<std::size_t>(n) * n);
  for (std::uint32_t src = 0; src < n; ++src) {
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      const std::uint32_t cap = matrix[static_cast<std::size_t>(src) * n + dst];
      if (cap != 0) lanes_[src]->reserve_outbox(dst, cap);
    }
  }
}

}  // namespace sym::sim
