// argolite/ult.hpp
//
// User-level threads. A ULT wraps a simkit fiber: its body is real C++ code
// that cooperatively suspends whenever it performs a simulated operation
// (compute, sleep, lock, network wait). ULT-local storage keys carry the
// SYMBIOSYS callpath breadcrumb and timing state across the RPC stack, as in
// the paper's "ULT-local key" instrumentation strategy (Table III).
#pragma once

#include <cstdint>
#include <vector>

#include "argolite/types.hpp"
#include "simkit/fiber.hpp"
#include "simkit/time.hpp"

namespace sym::abt {

class Ult {
 public:
  using Id = std::uint64_t;

  Ult(Id id, Pool& pool, sim::SmallFn body);
  Ult(const Ult&) = delete;
  Ult& operator=(const Ult&) = delete;

  [[nodiscard]] Id id() const noexcept { return id_; }
  [[nodiscard]] UltState state() const noexcept { return state_; }
  [[nodiscard]] Pool& pool() noexcept { return *pool_; }
  [[nodiscard]] bool finished() const noexcept {
    return state_ == UltState::kFinished;
  }

  /// ULT-local storage (64-bit slots, keyed by KeyId).
  void local_set(KeyId key, std::uint64_t value);
  [[nodiscard]] std::uint64_t local_get(KeyId key) const noexcept;

  /// Creation timestamp (virtual): the paper's t4 for handler ULTs.
  [[nodiscard]] sim::TimeNs created_at() const noexcept { return created_at_; }
  void set_created_at(sim::TimeNs t) noexcept { created_at_ = t; }

  /// First-dispatch timestamp (virtual): the paper's t5 for handler ULTs.
  [[nodiscard]] sim::TimeNs first_run_at() const noexcept {
    return first_run_at_;
  }

 private:
  friend class Xstream;
  friend class Pool;
  friend class Runtime;
  friend class Mutex;
  friend class Eventual;
  friend class CondVar;
  friend class Barrier;
  friend void yield();
  friend void compute(sim::DurationNs);
  friend void sleep_for(sim::DurationNs);
  friend void block_self();

  Id id_;
  Pool* pool_;
  UltState state_ = UltState::kReady;
  sim::Fiber fiber_;  ///< embedded: a spawn is one allocation
  std::vector<std::uint64_t> locals_;
  sim::TimeNs created_at_ = 0;
  sim::TimeNs first_run_at_ = 0;
  bool ever_ran_ = false;
};

}  // namespace sym::abt
