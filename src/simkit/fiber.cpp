#include "simkit/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#ifndef SYM_FIBER_FAST_SWITCH
#include <ucontext.h>
#endif

// AddressSanitizer tracks one stack per thread; ucontext switches move
// execution to heap-allocated fiber stacks behind its back, which produces
// false "stack-buffer-overflow" reports deep in fiber frames. The
// __sanitizer_{start,finish}_switch_fiber handshake tells ASan about every
// switch: start_switch announces the destination stack before jumping,
// finish_switch runs first thing on the destination. Plain builds compile
// the helpers to nothing.
#if defined(__SANITIZE_ADDRESS__)
#define SYM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SYM_ASAN_FIBERS 1
#endif
#endif
#ifdef SYM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer models one execution context per thread; ucontext
// switches would otherwise make it see torn stacks and bogus races between
// a fiber and its scheduler. The __tsan_*_fiber API declares each fiber as
// its own context and announces every switch (the default flags establish
// happens-before across the switch). Plain builds compile the helpers to
// nothing.
#if defined(__SANITIZE_THREAD__)
#define SYM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SYM_TSAN_FIBERS 1
#endif
#endif
#ifdef SYM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace sym::sim {
namespace {

// symlint: allow(shared-state-escape) reason=thread_local current-fiber cursor; lanes are pinned to one worker so a fiber never observes another thread's cursor
thread_local Fiber* g_current_fiber = nullptr;

inline void asan_start_switch(void** fake_stack_save, const void* bottom,
                              std::size_t size) {
#ifdef SYM_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

inline void asan_finish_switch(void* fake_stack_save, const void** bottom_old,
                               std::size_t* size_old) {
#ifdef SYM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

inline void* tsan_current_fiber() {
#ifdef SYM_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void tsan_switch_to(void* fiber) {
#ifdef SYM_TSAN_FIBERS
  if (fiber != nullptr) __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

inline void* tsan_create_fiber() {
#ifdef SYM_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_destroy_fiber(void* fiber) {
#ifdef SYM_TSAN_FIBERS
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

}  // namespace

#ifdef SYM_FIBER_FAST_SWITCH

// Save the System V x86-64 callee-saved registers on the current stack,
// park the stack pointer in *save_sp, adopt target_sp and restore its saved
// registers; `ret` then resumes wherever the target context last saved (or,
// on first entry, the trampoline address planted by switch_in). Caller-saved
// state needs no handling: from the compiler's view this is an ordinary
// opaque call. The signal mask is deliberately NOT switched — that is the
// entire speedup over swapcontext (no rt_sigprocmask round trips) and is
// sound because fibers never alter it.
extern "C" void sym_fiber_asm_switch(void** save_sp, void* target_sp);
asm(R"(
.text
.align 16
.globl sym_fiber_asm_switch
.type sym_fiber_asm_switch, @function
sym_fiber_asm_switch:
    .cfi_startproc
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .cfi_endproc
.size sym_fiber_asm_switch, .-sym_fiber_asm_switch
)");

#else  // !SYM_FIBER_FAST_SWITCH

namespace {

// The portable path's register save areas: the fiber's own context and the
// scheduler context it returns to. They sit at the top of the fiber's stack
// block rather than in the Fiber, which stays the same size in every build.
struct SaveAreas {
  ucontext_t fiber;
  ucontext_t sched;
};

SaveAreas& save_areas(const FiberStack& stack) noexcept {
  auto top = reinterpret_cast<std::uintptr_t>(stack.base()) + stack.size();
  top = (top - sizeof(SaveAreas)) & ~(std::uintptr_t{alignof(SaveAreas)} - 1);
  return *reinterpret_cast<SaveAreas*>(top);
}

}  // namespace

#endif  // SYM_FIBER_FAST_SWITCH

namespace {

// The stack bytes a fiber's frames may use: the whole block under the fast
// switch, the block below the save areas on the ucontext path.
std::size_t stack_span(const FiberStack& stack) noexcept {
#ifdef SYM_FIBER_FAST_SWITCH
  return stack.size();
#else
  return static_cast<std::size_t>(
      reinterpret_cast<std::uintptr_t>(&save_areas(stack)) -
      reinterpret_cast<std::uintptr_t>(stack.base()));
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// FiberStack / StackPool
// ---------------------------------------------------------------------------

FiberStack::FiberStack(std::size_t size) {
  // A page-aligned anonymous mapping of its own, committed lazily: the top
  // slot and the first frames share the last page, and no allocator header
  // or neighbouring block touches the others, so a shallow fiber's stack
  // costs one resident page. MAP_STACK also keeps transparent huge pages
  // off (on kernels that honour it) when neighbouring stacks merge into
  // one area.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  size_ = (size + page - 1) / page * page;
  base_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base_ == MAP_FAILED) throw std::bad_alloc();
}

FiberStack::~FiberStack() { ::munmap(base_, size_); }

StackPool& StackPool::instance() {
  // One pool per thread: each engine lane is pinned to a single worker, so
  // a lane's fibers always acquire and release on the same pool with no
  // synchronization. Single-threaded runs see exactly the old process-wide
  // behavior.
  // symlint: allow(shared-state-escape) reason=per-thread stack pool; lane pinning guarantees acquire and release happen on the same thread (see comment above)
  static thread_local StackPool pool;
  return pool;
}

std::unique_ptr<FiberStack> StackPool::acquire(std::size_t size) {
  if (!pool_.empty() && pool_.back()->size() >= size) {
    auto stack = std::move(pool_.back());
    pool_.pop_back();
    return stack;
  }
  ++allocated_;
  // symlint: allow(may-allocate) reason=pool-miss growth path, counted in
  // allocated_; steady state recycles stacks and never reaches this line
  return std::make_unique<FiberStack>(size);
}

void StackPool::release(std::unique_ptr<FiberStack> stack) {
  constexpr std::size_t kMaxPooled = 4096;
  if (pool_.size() < kMaxPooled) pool_.push_back(std::move(stack));
}

void StackPool::drain() { pool_.clear(); }

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::Fiber(SmallFn entry, std::size_t stack_size)
    : entry_(std::move(entry)),
      stack_(StackPool::instance().acquire(stack_size)) {
  assert(entry_ && "fiber requires an entry function");
}

Fiber::~Fiber() {
  assert(g_current_fiber != this && "a fiber cannot destroy itself");
  // Returning a live (suspended, unfinished) fiber's stack to the pool would
  // corrupt it on reuse; only recycle stacks of never-started or finished
  // fibers. Abandoning a suspended fiber simply frees the stack.
  if (!started_ || finished_) {
    StackPool::instance().release(std::move(stack_));
  }
  tsan_destroy_fiber(tsan_fiber_);
}

Fiber* Fiber::current() noexcept { return g_current_fiber; }

void Fiber::run_entry() { entry_(); }

#ifdef SYM_FIBER_FAST_SWITCH

// First instructions ever executed on a fiber stack: switch_in() plants this
// function's address as the `ret` target of sym_fiber_asm_switch, with six
// zeroed register slots below it. g_current_fiber is set by switch_in()
// before the switch, so no argument registers need to survive the swap.
void Fiber::fast_trampoline() {
  Fiber* self = g_current_fiber;
  asan_finish_switch(nullptr, &self->asan_sched_bottom_,
                     &self->asan_sched_size_);
  self->run_entry();
  // Mark finished *before* the final switch back to the scheduler.
  self->finished_ = true;
  asan_start_switch(nullptr, self->asan_sched_bottom_,
                    self->asan_sched_size_);
  tsan_switch_to(self->tsan_sched_);
  sym_fiber_asm_switch(&self->fast_sp_, self->fast_return_sp_);
  std::abort();  // unreachable: a finished fiber is never resumed
}

void Fiber::switch_in() {
  assert(!finished_ && "cannot resume a finished fiber");
  assert(g_current_fiber == nullptr && "nested fibers are not supported");
  if (!started_) {
    started_ = true;
    // Lay out the initial context by hand: the trampoline address sits at a
    // 16-byte-aligned slot (so rsp ≡ 8 mod 16 at function entry, as after a
    // call), with the six callee-saved register slots zeroed below it.
    auto top = reinterpret_cast<std::uintptr_t>(stack_->base()) +
               stack_->size();
    top &= ~static_cast<std::uintptr_t>(15);
    top -= 16;  // headroom; keeps the ret-target slot 16-aligned
    *reinterpret_cast<std::uintptr_t*>(top) =
        reinterpret_cast<std::uintptr_t>(&Fiber::fast_trampoline);
    fast_sp_ = reinterpret_cast<void*>(top - 6 * 8);
    std::memset(fast_sp_, 0, 6 * 8);
  }
  ++switches_;
  Fiber* prev = g_current_fiber;
  g_current_fiber = this;
  void* sched_fake_stack = nullptr;
  asan_start_switch(&sched_fake_stack, stack_->base(), stack_span(*stack_));
#ifdef SYM_TSAN_FIBERS
  if (tsan_fiber_ == nullptr) tsan_fiber_ = tsan_create_fiber();
  tsan_sched_ = tsan_current_fiber();
  tsan_switch_to(tsan_fiber_);
#endif
  sym_fiber_asm_switch(&fast_return_sp_, fast_sp_);
  // Back on the scheduler stack (fiber suspended or finished).
  asan_finish_switch(sched_fake_stack, nullptr, nullptr);
  g_current_fiber = prev;
}

void Fiber::switch_out() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "switch_out() called outside any fiber");
  asan_start_switch(&self->asan_fake_stack_, self->asan_sched_bottom_,
                    self->asan_sched_size_);
  tsan_switch_to(self->tsan_sched_);
  sym_fiber_asm_switch(&self->fast_sp_, self->fast_return_sp_);
  // Resumed by a later switch_in(); refresh the scheduler-stack bounds in
  // case the resume came from a different frame.
  asan_finish_switch(self->asan_fake_stack_, &self->asan_sched_bottom_,
                     &self->asan_sched_size_);
}

#else  // !SYM_FIBER_FAST_SWITCH — portable ucontext implementation

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  // First instruction on the fiber stack: complete the switch ASan was told
  // about in switch_in(), remembering the scheduler stack for the way back.
  asan_finish_switch(nullptr, &self->asan_sched_bottom_,
                     &self->asan_sched_size_);
  self->run_entry();
  // Mark finished *before* the implicit uc_link switch back to the scheduler.
  self->finished_ = true;
  // The fiber is dying: a null fake-stack-save releases its ASan fake stack.
  asan_start_switch(nullptr, self->asan_sched_bottom_,
                    self->asan_sched_size_);
  tsan_switch_to(self->tsan_sched_);
  // Leave through an explicit swapcontext rather than falling off into the
  // uc_link fallback: returning from this function would run its
  // instrumented epilogue (__tsan_func_exit) *after* the context-switch
  // announcement above, popping the scheduler's shadow call stack for an
  // entry that was pushed on the fiber's — ~100 fiber deaths later the
  // scheduler's shadow stack underflows and libtsan crashes walking it.
  // Jumping away keeps entry/exit balanced per context; uc_link remains as
  // a safety net but is never reached.
  SaveAreas& areas = save_areas(*self->stack_);
  swapcontext(&areas.fiber, &areas.sched);
  std::abort();  // unreachable: a finished fiber is never resumed
}

void Fiber::switch_in() {
  assert(!finished_ && "cannot resume a finished fiber");
  assert(g_current_fiber == nullptr && "nested fibers are not supported");
  SaveAreas* areas = &save_areas(*stack_);
  if (!started_) {
    started_ = true;
    areas = new (areas) SaveAreas{};
    ucontext_t& ctx = areas->fiber;
    if (getcontext(&ctx) != 0) throw std::runtime_error("getcontext failed");
    // The stack runs from the block's base up to the save areas.
    ctx.uc_stack.ss_sp = stack_->base();
    ctx.uc_stack.ss_size = stack_span(*stack_);
    ctx.uc_link = &areas->sched;
    const auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xFFFFFFFFu));
  }
  ++switches_;
  Fiber* prev = g_current_fiber;
  g_current_fiber = this;
  void* sched_fake_stack = nullptr;
  asan_start_switch(&sched_fake_stack, stack_->base(), stack_span(*stack_));
#ifdef SYM_TSAN_FIBERS
  if (tsan_fiber_ == nullptr) tsan_fiber_ = tsan_create_fiber();
  // Remember the scheduler's TSan context on every entry: a resume may come
  // from a different scheduler frame (or, across runs, a different thread).
  tsan_sched_ = tsan_current_fiber();
  tsan_switch_to(tsan_fiber_);
#endif
  if (swapcontext(&areas->sched, &areas->fiber) != 0) {
    g_current_fiber = prev;
    throw std::runtime_error("swapcontext into fiber failed");
  }
  // Back on the scheduler stack (fiber suspended or finished).
  asan_finish_switch(sched_fake_stack, nullptr, nullptr);
  g_current_fiber = prev;
}

void Fiber::switch_out() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "switch_out() called outside any fiber");
  asan_start_switch(&self->asan_fake_stack_, self->asan_sched_bottom_,
                    self->asan_sched_size_);
  tsan_switch_to(self->tsan_sched_);
  SaveAreas& areas = save_areas(*self->stack_);
  if (swapcontext(&areas.fiber, &areas.sched) != 0) {
    throw std::runtime_error("swapcontext out of fiber failed");
  }
  // Resumed by a later switch_in(); refresh the scheduler-stack bounds in
  // case the resume came from a different frame.
  asan_finish_switch(self->asan_fake_stack_, &self->asan_sched_bottom_,
                     &self->asan_sched_size_);
}

#endif  // SYM_FIBER_FAST_SWITCH

}  // namespace sym::sim
