// argolite/runtime.hpp
//
// Per-process argolite runtime: owns pools, xstreams and live ULTs, and
// exposes the introspection counters (blocked / runnable ULTs) that
// SYMBIOSYS samples when generating trace events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "argolite/pool.hpp"
#include "argolite/types.hpp"
#include "argolite/ult.hpp"
#include "argolite/xstream.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"

namespace sym::abt {

class Runtime {
 public:
  Runtime(sim::Engine& engine, sim::Process& process);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] sim::Process& process() noexcept { return process_; }

  Pool& create_pool(std::string name);
  Xstream& create_xstream(std::vector<Pool*> pools);

  /// Spawn a ULT into `pool`. The ULT begins life kReady; it is destroyed
  /// automatically when its body returns. A body whose capture fits
  /// SmallFn's inline buffer costs no allocation beyond the ULT itself.
  Ult& create_ult(Pool& pool, sim::SmallFn body);

  /// ULT-local key registry (global across runtimes, like Argobots keys).
  static KeyId key_create();
  /// Keys created so far (every KeyId is below it).
  static KeyId key_count();

  [[nodiscard]] std::size_t pool_count() const noexcept {
    return pools_.size();
  }
  [[nodiscard]] std::size_t xstream_count() const noexcept {
    return xstreams_.size();
  }
  [[nodiscard]] Pool& pool(std::size_t i) { return *pools_.at(i); }
  [[nodiscard]] Xstream& xstream(std::size_t i) { return *xstreams_.at(i); }

  /// Introspection across all pools (the paper samples these from Argobots).
  [[nodiscard]] std::uint64_t total_blocked() const noexcept;
  [[nodiscard]] std::uint64_t total_runnable() const noexcept;
  [[nodiscard]] std::uint64_t ults_created() const noexcept {
    return ults_created_;
  }
  [[nodiscard]] std::uint64_t ults_finished() const noexcept {
    return ults_finished_;
  }
  [[nodiscard]] std::uint64_t live_ults() const noexcept {
    return ults_created_ - ults_finished_;
  }

 private:
  friend class Xstream;

  void destroy_ult(Ult& ult);

  sim::Engine& engine_;
  sim::Process& process_;
  std::vector<std::unique_ptr<Pool>> pools_;
  std::vector<std::unique_ptr<Xstream>> xstreams_;
  std::uint64_t next_ult_id_ = 1;
  std::uint64_t ults_created_ = 0;
  std::uint64_t ults_finished_ = 0;
};

// ---------------------------------------------------------------------------
// Calls available from inside ULT code ("this ULT" operations).
// ---------------------------------------------------------------------------

/// The ULT currently running on this thread (nullptr outside ULT context).
[[nodiscard]] Ult* self() noexcept;

/// Cooperatively requeue the calling ULT and let the ES pick other work.
void yield();

/// Occupy the calling ULT's ES for `d` of virtual time (models CPU work).
void compute(sim::DurationNs d);

/// Suspend without occupying the ES for `d` of virtual time.
void sleep_for(sim::DurationNs d);

/// ULT-local storage convenience wrappers for the calling ULT.
void self_set(KeyId key, std::uint64_t value);
[[nodiscard]] std::uint64_t self_get(KeyId key) noexcept;

/// Low-level blocking primitive: mark the calling ULT blocked (accounted on
/// its pool) and suspend it. Library code (sync primitives, the network
/// layer) later resumes it via Pool::wake_blocked().
void block_self();

}  // namespace sym::abt
