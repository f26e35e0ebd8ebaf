// argolite/xstream.hpp
//
// An execution stream ("xstream" / ES): the simulated hardware resource that
// runs ULTs. An ES consumes ULTs from its attached pools in order; while a
// ULT holds the ES (running or computing) no other ULT can be dispatched on
// it. This occupancy model is what makes the paper's "target ULT handler
// time" (t4 -> t5 wait in the handler pool) emerge when a service is
// configured with too few ESs (HEPnOS configuration C1, Fig. 9).
//
// A compute occupies the ES until a resume event `d` later, and a ULT
// switch costs a dispatch event kDispatchOverheadNs later. When either
// event would be the lane's very next one, the ES runs it in place
// (Engine::continue_in_place): same virtual times and accounting, but no
// heap event and no fiber switch. A push that wakes several idle ESs of a
// shared pool raises one dispatch event for all of them (a wake-up herd,
// see wake()): its steps run the members' dispatches in order, each
// accounted as the event that ES would have scheduled.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "argolite/pool.hpp"
#include "argolite/types.hpp"
#include "simkit/time.hpp"

namespace sym::sim {
class Engine;
class Process;
}  // namespace sym::sim

namespace sym::abt {

class Xstream {
 public:
  Xstream(Runtime& runtime, std::uint32_t rank, std::vector<Pool*> pools);
  Xstream(const Xstream&) = delete;
  Xstream& operator=(const Xstream&) = delete;

  [[nodiscard]] std::uint32_t rank() const noexcept { return rank_; }
  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }

  /// Dynamically park / unpark this ES (pool autoscaling). A disabled ES
  /// stops pulling new ULTs from its pools; a ULT it is currently running
  /// finishes in place (stacks cannot migrate). Re-enabling immediately
  /// re-checks the pools for queued work.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Called by pools when work arrives: schedule one dispatch
  /// kDispatchOverheadNs from now for every ES of `candidates` that has one
  /// due (enabled, idle, none scheduled, work queued), in order. All of
  /// them share one lane event (Engine::at_steps_on) whose k steps run the
  /// members' dispatches in that order: the same times, sequence numbers
  /// and event count as k separately scheduled dispatch events.
  static void wake(std::span<Xstream* const> candidates);

  /// Occupy this ES for `d` of virtual time on behalf of the running ULT.
  /// Must be called while `ult` is the ULT currently running here. Returns
  /// true when the compute completed in place: nothing else on the lane is
  /// due before now + d, so the clock has advanced past it and the ULT
  /// simply carries on. Otherwise the ES is held, the resume event is
  /// scheduled, and the caller must suspend the ULT.
  [[nodiscard]] bool begin_compute(sim::DurationNs d, Ult& ult);

  [[nodiscard]] std::uint64_t ults_dispatched() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] sim::DurationNs busy_time() const noexcept {
    return busy_time_;
  }

  /// The xstream currently executing a ULT on this thread, if any.
  static Xstream* current() noexcept;
  /// The ULT currently executing on this thread, if any.
  static Ult* current_ult() noexcept;

 private:
  friend class Runtime;

  /// True when a dispatch is due: enabled, idle, none scheduled, and some
  /// pool holds a ready ULT.
  [[nodiscard]] bool dispatch_due() const noexcept {
    if (!enabled_ || busy_ || dispatch_scheduled_) return false;
    for (const Pool* p : pools_) {
      if (p->ready_count() > 0) return true;
    }
    return false;
  }
  /// Schedule a dispatch kDispatchOverheadNs from now if one is due: a
  /// wake() of this ES alone.
  void try_dispatch();
  /// try_dispatch() as the last action of an event callback. Returns true
  /// when the dispatch event would be the lane's very next one and was
  /// accounted in place: the caller then runs dispatch_one() itself.
  [[nodiscard]] bool tail_dispatch();
  /// The dispatch event's body: run the next ready ULT, and the ones after
  /// it for as long as tail_dispatch() accepts their dispatch in place.
  void dispatch_one();
  /// The compute-resume event's body: re-enter the ULT, then tail-dispatch.
  void resume_here(Ult& ult);
  [[nodiscard]] Ult* pop_ready();
  void run_ult(Ult& ult);
  void postprocess(Ult& ult);

  Runtime& runtime_;
  std::uint32_t rank_;
  std::vector<Pool*> pools_;
  bool busy_ = false;
  bool enabled_ = true;
  bool dispatch_scheduled_ = false;
  /// While dispatch_scheduled_: the next member of this ES's wake-up herd.
  Xstream* herd_next_ = nullptr;
  std::uint64_t dispatched_ = 0;
  sim::DurationNs busy_time_ = 0;
};

}  // namespace sym::abt
