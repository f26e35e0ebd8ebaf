// argolite/pool.hpp
//
// A pool is a FIFO queue of ready ULTs plus the blocked/runnable accounting
// that SYMBIOSYS samples into trace events (the paper's Fig. 10 plots the
// number of blocked ULTs sampled from Argobots at request start).
//
// Pools optionally carry an advisory capacity: admission-control layers
// (margolite's adaptive controller) consult at_capacity() *before* spawning
// a ULT and early-reject the request instead. push() itself never drops
// work — internal wakeups (sync primitives, the network layer) must always
// land.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "argolite/types.hpp"

namespace sym::abt {

class Pool {
 public:
  Pool(Runtime& runtime, std::string name)
      : runtime_(runtime), name_(std::move(name)) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Enqueue a ready ULT and wake every idle attached xstream that has no
  /// dispatch pending, with one dispatch event for all of them
  /// (Xstream::wake).
  void push(Ult& ult);

  /// Dequeue the next ready ULT, or nullptr if empty.
  [[nodiscard]] Ult* pop();

  /// Transition a kBlocked ULT back to kReady and enqueue it. This is the
  /// counterpart of abt::block_self() used by sync primitives and the
  /// network layer.
  void wake_blocked(Ult& ult);

  [[nodiscard]] std::size_t ready_count() const noexcept {
    return ready_.size();
  }
  /// Highest ready-queue depth ever observed (backlog watermark for the
  /// adaptive controller).
  [[nodiscard]] std::size_t ready_high_watermark() const noexcept {
    return ready_hwm_;
  }

  /// Advisory bound on the ready queue (0 = unbounded). Enforced by
  /// admission-control callers via at_capacity(), not by push().
  void set_capacity(std::size_t cap) noexcept { capacity_ = cap; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool at_capacity() const noexcept {
    return capacity_ > 0 && ready_.size() >= capacity_;
  }
  [[nodiscard]] std::uint64_t blocked_count() const noexcept {
    return blocked_;
  }
  [[nodiscard]] std::uint64_t running_count() const noexcept {
    return running_;
  }
  [[nodiscard]] std::uint64_t total_pushed() const noexcept {
    return total_pushed_;
  }

  /// Accounting hooks used by sync primitives and xstreams.
  void on_blocked() noexcept { ++blocked_; }
  void on_unblocked() noexcept { --blocked_; }
  void on_run_begin() noexcept { ++running_; }
  void on_run_end() noexcept { --running_; }

  /// Xstreams consuming from this pool register themselves so push() can
  /// wake the idle ones.
  void attach(Xstream& xs);

  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }

 private:
  Runtime& runtime_;
  std::string name_;
  std::deque<Ult*> ready_;
  std::vector<Xstream*> consumers_;
  std::size_t ready_hwm_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t running_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace sym::abt
