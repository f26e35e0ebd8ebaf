#include "argolite/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace sym::abt {

// ---------------------------------------------------------------------------
// Ult
// ---------------------------------------------------------------------------

Ult::Ult(Id id, Pool& pool, sim::SmallFn body)
    : id_(id),
      pool_(&pool),
      fiber_(std::move(body)) {}

void Ult::local_set(KeyId key, std::uint64_t value) {
  if (locals_.size() <= key) {
    // Room for every key created so far: a ULT that sets several locals
    // allocates once, not once per new key.
    locals_.resize(std::max<std::size_t>(key + 1, Runtime::key_count()), 0);
  }
  locals_[key] = value;
}

std::uint64_t Ult::local_get(KeyId key) const noexcept {
  return key < locals_.size() ? locals_[key] : 0;
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

void Pool::push(Ult& ult) {
  assert(ult.state_ == UltState::kReady);
  ready_.push_back(&ult);
  if (ready_.size() > ready_hwm_) ready_hwm_ = ready_.size();
  ++total_pushed_;
  // Every idle consumer without a pending dispatch gets one, all of them
  // from a single herd event; an occupied ES re-checks its pools after the
  // current ULT releases it.
  Xstream::wake(consumers_);
}

void Pool::attach(Xstream& xs) {
  // A herd holds at most one step per consumer.
  assert(consumers_.size() < sim::LaneArena::kMaxSteps);
  consumers_.push_back(&xs);
}

Ult* Pool::pop() {
  if (ready_.empty()) return nullptr;
  Ult* u = ready_.front();
  ready_.pop_front();
  return u;
}

void Pool::wake_blocked(Ult& ult) {
  assert(ult.state_ == UltState::kBlocked);
  on_unblocked();
  ult.state_ = UltState::kReady;
  push(ult);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(sim::Engine& engine, sim::Process& process)
    : engine_(engine), process_(process) {}

Runtime::~Runtime() = default;

Pool& Runtime::create_pool(std::string name) {
  pools_.push_back(std::make_unique<Pool>(*this, std::move(name)));
  return *pools_.back();
}

Xstream& Runtime::create_xstream(std::vector<Pool*> pools) {
  const auto rank = static_cast<std::uint32_t>(xstreams_.size());
  xstreams_.push_back(std::make_unique<Xstream>(*this, rank, pools));
  Xstream& xs = *xstreams_.back();
  for (Pool* p : pools) p->attach(xs);
  // Work may already be queued.
  xs.try_dispatch();
  return xs;
}

Ult& Runtime::create_ult(Pool& pool, sim::SmallFn body) {
  ++ults_created_;
  // symlint: allow(may-allocate) reason=ULT construction is control-plane
  // work counted in ults_created_; dispatch loops reuse live ULTs
  auto* ult = new Ult(next_ult_id_++, pool, std::move(body));
  ult->set_created_at(engine_.now());
  pool.push(*ult);
  return *ult;
}

void Runtime::destroy_ult(Ult& ult) {
  assert(ult.finished());
  ++ults_finished_;
  delete &ult;
}

namespace {

std::atomic<KeyId>& key_counter() {
  // symlint: allow(shared-state-escape) reason=monotonic atomic key counter; ids are opaque handles and never ordered on, so allocation order cannot leak into results
  static std::atomic<KeyId> next{0};
  return next;
}

}  // namespace

KeyId Runtime::key_create() { return key_counter()++; }

KeyId Runtime::key_count() { return key_counter().load(); }

std::uint64_t Runtime::total_blocked() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->blocked_count();
  return n;
}

std::uint64_t Runtime::total_runnable() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->ready_count();
  return n;
}

// ---------------------------------------------------------------------------
// this-ULT operations
// ---------------------------------------------------------------------------

Ult* self() noexcept { return Xstream::current_ult(); }

void yield() {
  Ult* u = self();
  assert(u != nullptr && "yield() outside ULT context");
  u->state_ = UltState::kReady;  // postprocess() requeues it
  sim::Fiber::switch_out();
}

void compute(sim::DurationNs d) {
  Ult* u = self();
  Xstream* xs = Xstream::current();
  assert(u != nullptr && xs != nullptr && "compute() outside ULT context");
  if (!xs->begin_compute(d, *u)) sim::Fiber::switch_out();
}

void sleep_for(sim::DurationNs d) {
  Ult* u = self();
  Xstream* xs = Xstream::current();
  assert(u != nullptr && xs != nullptr && "sleep_for() outside ULT context");
  Pool& pool = u->pool();
  u->state_ = UltState::kBlocked;
  pool.on_blocked();
  xs->runtime().engine().after(d, [&pool, u] { pool.wake_blocked(*u); });
  sim::Fiber::switch_out();
}

void self_set(KeyId key, std::uint64_t value) {
  Ult* u = self();
  assert(u != nullptr);
  u->local_set(key, value);
}

std::uint64_t self_get(KeyId key) noexcept {
  Ult* u = self();
  return u != nullptr ? u->local_get(key) : 0;
}

void block_self() {
  Ult* u = self();
  assert(u != nullptr && "block_self() outside ULT context");
  u->state_ = UltState::kBlocked;
  u->pool().on_blocked();
  sim::Fiber::switch_out();
}

}  // namespace sym::abt
