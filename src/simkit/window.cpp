#include "simkit/window.hpp"

#include <algorithm>
#include <cassert>

#include "simkit/engine.hpp"
#include "simkit/lane.hpp"

namespace sym::sim {

WindowCoordinator::WindowCoordinator(Engine& engine, std::uint32_t workers)
    : engine_(engine),
      workers_(workers == 0 ? 1 : workers),
      // Participants: the workers plus the coordinating thread. With one
      // worker the coordinator runs the lanes itself and the barrier is
      // never used (but must still be constructible).
      sync_(workers_ > 1 ? workers_ + 1 : 1) {
  const auto lane_count = static_cast<std::uint32_t>(engine_.lanes_.size());
  // Initial assignment: the historical static stride.
  worker_lanes_.resize(workers_);
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    worker_lanes_[i % workers_].push_back(i);
  }
  rebalance_baseline_.resize(lane_count);
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    rebalance_baseline_[i] = engine_.lanes_[i]->processed();
  }
  if (workers_ > 1) {
    threads_.reserve(workers_);
    for (std::uint32_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

WindowCoordinator::~WindowCoordinator() {
  if (!threads_.empty()) {
    done_.store(true, std::memory_order_release);
    sync_.arrive_and_wait();  // release workers into their exit check
    for (auto& t : threads_) t.join();
  }
}

void WindowCoordinator::worker_main(std::uint32_t worker) {
  for (;;) {
    sync_.arrive_and_wait();  // window start (or shutdown)
    if (done_.load(std::memory_order_acquire)) return;
    run_lanes_of(worker, window_end_.load(std::memory_order_relaxed));
    sync_.arrive_and_wait();  // window end
  }
}

void WindowCoordinator::run_lanes_of(std::uint32_t worker, TimeNs end) {
  auto& lanes = engine_.lanes_;
  for (const std::uint32_t i : worker_lanes_[worker]) {
    Lane& lane = *lanes[i];
    ActiveLaneScope scope(engine_, lane);
    lane.run_window(end);
  }
}

void WindowCoordinator::execute_window(TimeNs end) {
  if (threads_.empty()) {
    run_lanes_of(0, end);
  } else {
    window_end_.store(end, std::memory_order_relaxed);
    sync_.arrive_and_wait();  // open the window
    sync_.arrive_and_wait();  // all lanes done (barrier = full sync point)
  }
  merge();
  maybe_rebalance();
}

void WindowCoordinator::merge() {
  auto& lanes = engine_.lanes_;
  // Collect the (dst, src) pairs that actually received a post this window
  // from each source lane's dirty list, then absorb them in canonical
  // (dst, src, append) order — the same relative order the dense lanes^2
  // sweep gave the nonempty pairs, so the sequence numbers the destination
  // assigns to merged events depend only on the mailbox contents, never on
  // which worker finished first (or how lanes were assigned to workers).
  merge_pairs_.clear();
  for (std::uint32_t src = 0; src < lanes.size(); ++src) {
    for (const std::uint32_t dst : lanes[src]->dirty_outboxes()) {
      merge_pairs_.push_back((static_cast<std::uint64_t>(dst) << 32) | src);
    }
    lanes[src]->clear_dirty_outboxes();
  }
  last_dirty_pairs_ = merge_pairs_.size();
  std::sort(merge_pairs_.begin(), merge_pairs_.end());
  last_merge_pairs_ = 0;
  for (const std::uint64_t key : merge_pairs_) {
    const auto dst = static_cast<std::uint32_t>(key >> 32);
    const auto src = static_cast<std::uint32_t>(key);
    lanes[dst]->absorb_outbox_from(*lanes[src]);
    ++last_merge_pairs_;
  }
}

void WindowCoordinator::maybe_rebalance() {
  if (workers_ <= 1) return;
  if (++windows_since_rebalance_ < kRebalancePeriod) return;
  windows_since_rebalance_ = 0;
  auto& lanes = engine_.lanes_;
  const auto n = static_cast<std::uint32_t>(lanes.size());
  // Per-lane work since the last rebalance, by executed-event count (the
  // only load signal that is simulation state, hence identical on every
  // run — wall-clock timings would make the assignment nondeterministic).
  struct Item {
    std::uint64_t delta;
    std::uint32_t lane;
  };
  std::vector<Item> items(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t p = lanes[i]->processed();
    items[i] = Item{p - rebalance_baseline_[i], i};
    rebalance_baseline_[i] = p;
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.delta != b.delta) return a.delta > b.delta;
    return a.lane < b.lane;
  });
  // LPT greedy: heaviest lane first onto the least-loaded worker (ties by
  // worker index). Within ~4/3 of optimal makespan, and cheap enough to run
  // between windows.
  std::vector<std::uint64_t> load(workers_, 0);
  for (auto& wl : worker_lanes_) wl.clear();
  for (const Item& it : items) {
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < workers_; ++w) {
      if (load[w] < load[best]) best = w;
    }
    load[best] += it.delta;
    worker_lanes_[best].push_back(it.lane);
  }
  // Each worker still visits its lanes in ascending lane order.
  for (auto& wl : worker_lanes_) std::sort(wl.begin(), wl.end());
}

}  // namespace sym::sim
