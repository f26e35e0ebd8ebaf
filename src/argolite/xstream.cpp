#include "argolite/xstream.hpp"

#include <cassert>

#include "argolite/pool.hpp"
#include "argolite/runtime.hpp"
#include "argolite/ult.hpp"
#include "simkit/engine.hpp"

namespace sym::abt {
namespace {

// symlint: allow(shared-state-escape) reason=per-OS-thread scheduler cursor; written only by the owning worker thread, never shared across workers
thread_local Xstream* g_current_xstream = nullptr;
// symlint: allow(shared-state-escape) reason=per-OS-thread ULT cursor; same single-writer discipline as g_current_xstream
thread_local Ult* g_current_ult = nullptr;

}  // namespace

Xstream::Xstream(Runtime& runtime, std::uint32_t rank, std::vector<Pool*> pools)
    : runtime_(runtime), rank_(rank), pools_(std::move(pools)) {}

Xstream* Xstream::current() noexcept { return g_current_xstream; }
Ult* Xstream::current_ult() noexcept { return g_current_ult; }

void Xstream::set_enabled(bool on) {
  if (enabled_ == on) return;
  enabled_ = on;
  if (on) try_dispatch();
}

void Xstream::wake(std::span<Xstream* const> candidates) {
  // Link, in candidate order, every ES that would schedule its own dispatch
  // event now. Nothing is scheduled between those k events, so their
  // sequence numbers would be consecutive: one k-step entry reproduces
  // them. A member stays dispatch_scheduled_ until its own step, so a push
  // in the meantime skips it and its link stays valid.
  Xstream* head = nullptr;
  Xstream** link = &head;
  std::uint32_t k = 0;
  for (Xstream* xs : candidates) {
    if (!xs->dispatch_due()) continue;
    assert(k == 0 || &xs->runtime_ == &head->runtime_);
    xs->dispatch_scheduled_ = true;
    *link = xs;
    link = &xs->herd_next_;
    ++k;
  }
  if (k == 0) return;
  *link = nullptr;
  // The dispatch overhead both models scheduler cost and guarantees virtual
  // time cannot stand still across an unbounded chain of dispatches. The
  // event is pinned to the lane owning this runtime's node so that ULTs
  // always execute on their home lane — in particular when the dispatch is
  // triggered from setup code running outside any lane.
  Runtime& rt = head->runtime_;
  auto& engine = rt.engine();
  engine.after_steps_on(engine.lane_for_node(rt.process().node()),
                        kDispatchOverheadNs, k, [next = head]() mutable {
                          Xstream* xs = next;
                          next = xs->herd_next_;
                          xs->dispatch_scheduled_ = false;
                          xs->dispatch_one();
                        });
}

void Xstream::try_dispatch() {
  Xstream* self = this;
  wake({&self, 1});
}

bool Xstream::tail_dispatch() {
  // Only dispatch_one() and resume_here() call this, as the last action of
  // an event callback running on this ES's home lane. Nothing follows it
  // there, so the dispatch event try_dispatch() would schedule is the next
  // step of this callback; when the engine can prove it is also the lane's
  // next event, the caller runs it here.
  if (!dispatch_due()) return false;
  if (runtime_.engine().continue_in_place(kDispatchOverheadNs)) return true;
  try_dispatch();
  return false;
}

Ult* Xstream::pop_ready() {
  for (Pool* p : pools_) {
    if (Ult* u = p->pop(); u != nullptr) return u;
  }
  return nullptr;
}

void Xstream::dispatch_one() {
  if (!enabled_ || busy_) return;  // parked or grabbed meanwhile
  // One pass per dispatch: the first is this event's, every further one a
  // dispatch tail_dispatch() accepted in place (so a ULT is ready).
  do {
    Ult* u = pop_ready();
    if (u == nullptr) return;
    ++dispatched_;
    run_ult(*u);
  } while (tail_dispatch());
}

void Xstream::run_ult(Ult& ult) {
  assert(!busy_);
  assert(ult.state_ == UltState::kReady);
  ult.state_ = UltState::kRunning;
  if (!ult.ever_ran_) {
    ult.ever_ran_ = true;
    ult.first_run_at_ = runtime_.engine().now();
  }
  ult.pool().on_run_begin();

  Xstream* prev_xs = g_current_xstream;
  Ult* prev_ult = g_current_ult;
  g_current_xstream = this;
  g_current_ult = &ult;
  ult.fiber_.switch_in();
  g_current_xstream = prev_xs;
  g_current_ult = prev_ult;

  ult.pool().on_run_end();
  if (ult.fiber_.finished()) ult.state_ = UltState::kFinished;
  postprocess(ult);
}

void Xstream::postprocess(Ult& ult) {
  switch (ult.state_) {
    case UltState::kFinished:
      runtime_.destroy_ult(ult);
      break;
    case UltState::kReady:
      // yield(): requeue at the back of its pool.
      ult.pool().push(ult);
      break;
    case UltState::kComputing:
      // begin_compute() left this ES busy and scheduled the resume event
      // (a compute that completed in place never suspends).
      break;
    case UltState::kBlocked:
      // A sync object / the network owns the wakeup.
      break;
    case UltState::kRunning:
      assert(false && "ULT suspended while still marked running");
      break;
  }
}

bool Xstream::begin_compute(sim::DurationNs d, Ult& ult) {
  assert(g_current_ult == &ult && g_current_xstream == this);
  assert(!busy_);
  busy_time_ += d;
  runtime_.process().add_cpu_time(d);
  // Suspending now would leave only bookkeeping that schedules nothing
  // (postprocess, and a tail_dispatch() that sees this ES busy) before the
  // resume event. If that event would be the lane's very next one, the ULT
  // keeps running instead: no event, no fiber switch.
  if (runtime_.engine().continue_in_place(d)) return true;
  busy_ = true;
  ult.state_ = UltState::kComputing;
  runtime_.engine().after(d, [this, &ult] {
    busy_ = false;
    resume_here(ult);
  });
  return false;
}

void Xstream::resume_here(Ult& ult) {
  assert(ult.state_ == UltState::kComputing);
  assert(!busy_);
  ult.state_ = UltState::kReady;  // run_ult() expects kReady
  run_ult(ult);
  if (tail_dispatch()) dispatch_one();
}

}  // namespace sym::abt
