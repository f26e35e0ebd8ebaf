// simkit/window.hpp
//
// Worker pool and barrier protocol for the sharded engine's lockstep
// safe windows. One coordinator (the thread that called Engine::run)
// decides each window's end; `worker_count` threads execute the lanes of
// the window concurrently, each walking its slice of a persistent
// lane->worker assignment. The assignment starts as the static stride
// (lane i on worker i % worker_count) and is rebalanced every
// kRebalancePeriod windows from per-lane executed-event counts (LPT
// greedy), so a few hot lanes stop serializing a window behind one worker.
// Rebalancing moves fibers between OS threads; fiber.cpp explicitly
// supports resuming a fiber on a different thread than suspended it (the
// sanitizer context is re-fetched on every entry). The coordinator then
// merges the cross-lane mailboxes single-threaded, walking only the
// (dst, src) pairs registered dirty by an actual post, in canonical
// (dst, src, append) order, so the post-window schedule is independent of
// both execution timing and the assignment. With worker_count == 1 no
// threads are spawned and the coordinator runs the lanes itself in lane
// order — producing bit-identical results, just without overlap.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "simkit/time.hpp"

namespace sym::sim {

class Engine;

/// Sense-reversing phase barrier tuned for the window handoff. std::barrier
/// spins aggressively before parking, which is the right call when every
/// participant has its own core — and exactly wrong when the pool is
/// oversubscribed (workers + coordinator > host CPUs): each barrier crossing
/// then burns a scheduling quantum spinning while the thread that could
/// release the barrier waits for the CPU. That is the 16-lane regression in
/// BENCH_scaling.json (workers>1 ~1.7x slower than 1 worker on the 1-vCPU
/// builder). HandoffBarrier sizes its spin budget from host parallelism:
/// bounded spin when participants fit the machine, immediate yield when they
/// don't, so an oversubscribed pool degrades to cooperative scheduling
/// instead of quantum-long spin waits.
class HandoffBarrier {
 public:
  explicit HandoffBarrier(std::uint32_t participants)
      : participants_(participants),
        spin_limit_(participants <= std::thread::hardware_concurrency()
                        ? kSpinBudget
                        : 0) {}

  void arrive_and_wait() noexcept {
    // The phase cannot advance between this load and our arrival below:
    // every participant (including us) must arrive first.
    const std::uint64_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      // Last arriver: reset the count, then publish the new phase. Waiters
      // acquire the phase store, so the reset happens-before any re-arrival.
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      return;
    }
    std::uint32_t spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
      // symlint: allow(may-block) reason=bounded spin then cooperative
      // yield; the barrier IS the sanctioned window-handoff wait point
      if (++spins > spin_limit_) std::this_thread::yield();
    }
  }

 private:
  static constexpr std::uint32_t kSpinBudget = 4096;

  std::uint32_t participants_;
  std::uint32_t spin_limit_;
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<std::uint32_t> arrived_{0};
};

class WindowCoordinator {
 public:
  WindowCoordinator(Engine& engine, std::uint32_t workers);
  ~WindowCoordinator();
  WindowCoordinator(const WindowCoordinator&) = delete;
  WindowCoordinator& operator=(const WindowCoordinator&) = delete;

  /// Run every lane up to (exclusive) `end`, then merge the dirty
  /// cross-lane mailboxes and, on schedule, rebalance the lane->worker
  /// assignment. Returns once the whole window is complete.
  void execute_window(TimeNs end);

  /// (dst, src) mailbox pairs absorbed by the last merge sweep.
  [[nodiscard]] std::uint64_t last_merge_pairs() const noexcept {
    return last_merge_pairs_;
  }
  /// (dst, src) pairs the lanes registered dirty during the last window.
  /// The sweep visits exactly the registered pairs, so this must equal
  /// last_merge_pairs(); the scaling bench gates on the totals staying
  /// equal.
  [[nodiscard]] std::uint64_t last_dirty_pairs() const noexcept {
    return last_dirty_pairs_;
  }

 private:
  void worker_main(std::uint32_t worker);
  /// Execute the lanes currently assigned to `worker`.
  void run_lanes_of(std::uint32_t worker, TimeNs end);
  void merge();
  /// Every kRebalancePeriod windows, re-pack lanes onto workers by
  /// descending executed-event delta (LPT greedy, ties by lane index then
  /// worker index). Inputs are simulation state only, so the assignment is
  /// deterministic — and it never affects results, only which thread runs
  /// which (causally independent) lane.
  void maybe_rebalance();

  static constexpr std::uint32_t kRebalancePeriod = 32;

  Engine& engine_;
  std::uint32_t workers_;
  std::atomic<TimeNs> window_end_{0};
  std::atomic<bool> done_{false};
  HandoffBarrier sync_;
  std::vector<std::thread> threads_;

  /// Persistent lane->worker assignment: worker_lanes_[w] holds the lane
  /// indices worker w executes, each list sorted ascending.
  std::vector<std::vector<std::uint32_t>> worker_lanes_;
  std::vector<std::uint64_t> rebalance_baseline_;  ///< processed() snapshot
  std::uint32_t windows_since_rebalance_ = 0;

  /// Merge scratch: (dst, src) pairs collected from the lanes' dirty lists.
  std::vector<std::uint64_t> merge_pairs_;
  std::uint64_t last_merge_pairs_ = 0;
  std::uint64_t last_dirty_pairs_ = 0;
};

}  // namespace sym::sim
