// simkit/fiber.hpp
//
// Cooperative user-level execution contexts ("fibers"). These are the
// mechanism behind argolite ULTs: service handler code runs as real C++ on
// a fiber stack and cooperatively switches back to the scheduler (the
// simulation engine's main context) whenever it performs a simulated
// blocking operation. Unsanitized x86-64 builds switch with a register
// swap; sanitized and other builds use ucontext (see below).
//
// Each stack is its own page-aligned anonymous mapping, committed lazily
// by the kernel. The first frames grow down from the top slot within the
// mapping's last page and nothing else touches the block, so a shallow
// handler's 128 KiB stack costs one resident page. A HEPnOS deployment
// keeps thousands of handler ULTs blocked at once, which makes that page
// count the bulk of the run's fiber memory.
//
// Stacks are recycled through a per-thread free list because the services
// spawn one ULT per RPC request; a mapping per spawn would otherwise
// dominate host-side run time at scale. The pool is thread-local (one
// instance per worker thread of the sharded engine) so lanes recycle stacks
// without locking; each lane is pinned to one worker, so a fiber's stack is
// acquired and released on the same thread's pool.
//
// A Fiber is 192 bytes on LP64 (pinned below), and argolite embeds it in
// each ULT: one allocation per spawn. Its entry function is a SmallFn, so a
// body's capture (a handler ULT's request handle, handler and t4, say)
// lives inline and costs no allocation of its own. It holds no register
// save area. The fast switch parks the stack pointer of each side in two
// words; the portable ucontext path keeps its two ucontext_t save areas
// (~1 KiB each) at the top of the fiber's own stack block, below which the
// usable stack begins. The layout is the same in every build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "simkit/smallfn.hpp"

// Fast userspace context switch: on x86-64, glibc's swapcontext issues a
// rt_sigprocmask syscall on every switch to save/restore the signal mask —
// two syscalls per ULT suspend/resume pair, which dominates switch cost at
// millions of events. Simulated handlers never touch signal masks, so
// unsanitized builds switch via a ~20-instruction callee-saved register swap
// (sym_fiber_asm_switch in fiber.cpp). Sanitized builds keep the ucontext
// path: ASan/TSan fiber support is exercised against it, and switch cost is
// noise under instrumentation.
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define SYM_FIBER_FAST_SWITCH 1
#endif
#else
#define SYM_FIBER_FAST_SWITCH 1
#endif
#endif

namespace sym::sim {

/// A reusable fiber stack: a private anonymous mapping of whole pages.
/// Obtained from and returned to StackPool.
class FiberStack {
 public:
  /// Maps `size` rounded up to a whole number of pages; throws
  /// std::bad_alloc when the kernel refuses.
  explicit FiberStack(std::size_t size);
  ~FiberStack();
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  [[nodiscard]] void* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Per-thread recycling pool for fiber stacks of a single size class.
class StackPool {
 public:
  /// The calling thread's pool.
  static StackPool& instance();

  std::unique_ptr<FiberStack> acquire(std::size_t size);
  void release(std::unique_ptr<FiberStack> stack);

  [[nodiscard]] std::size_t pooled() const noexcept { return pool_.size(); }
  [[nodiscard]] std::uint64_t total_allocated() const noexcept {
    return allocated_;
  }

  /// Drop all pooled stacks (used by tests to check for leaks).
  void drain();

 private:
  StackPool() = default;
  std::vector<std::unique_ptr<FiberStack>> pool_;
  std::uint64_t allocated_ = 0;
};

/// A cooperative execution context. switch_in() transfers control from the
/// scheduler into the fiber; Fiber::switch_out() (called from fiber code)
/// transfers control back. When the entry function returns, the fiber is
/// `finished` and control lands back in the scheduler automatically.
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackSize = 128 * 1024;

  explicit Fiber(SmallFn entry, std::size_t stack_size = kDefaultStackSize);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Enter (or resume) the fiber. Must be called from scheduler context.
  void switch_in();

  /// Suspend the currently running fiber and return to scheduler context.
  /// Must be called from within a fiber.
  static void switch_out();

  /// The fiber currently executing, or nullptr when in scheduler context.
  static Fiber* current() noexcept;

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Number of times this fiber has been entered (diagnostics).
  [[nodiscard]] std::uint64_t switch_count() const noexcept {
    return switches_;
  }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  static void fast_trampoline();
  void run_entry();

  SmallFn entry_;
  std::unique_ptr<FiberStack> stack_;
  // Fast-switch stack pointers (x86-64 unsanitized builds; kept in the
  // layout unconditionally like the sanitizer fields below): where the fiber
  // last suspended, and where the scheduler waits for it to yield.
  void* fast_sp_ = nullptr;
  void* fast_return_sp_ = nullptr;
  bool started_ = false;
  bool finished_ = false;
  std::uint64_t switches_ = 0;

  // AddressSanitizer fiber-switch bookkeeping (unused in plain builds, kept
  // unconditional so the layout does not depend on build flags): the
  // fiber's fake stack while suspended, and the scheduler stack to restore
  // on the way out. See __sanitizer_{start,finish}_switch_fiber.
  void* asan_fake_stack_ = nullptr;
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;

  // ThreadSanitizer fiber handles (same layout rule): this fiber's TSan
  // context, created lazily on first entry, and the scheduler context to
  // switch back to. See __tsan_{create,switch_to,destroy}_fiber.
  void* tsan_fiber_ = nullptr;
  void* tsan_sched_ = nullptr;
};

// Every ULT embeds a Fiber, so its size is the per-spawn allocation: the
// entry function plus ten pointer-sized words, with no register save area.
static_assert(sizeof(Fiber) == sizeof(SmallFn) + 10 * 8,
              "sim::Fiber grew: it is embedded in every argolite ULT");

}  // namespace sym::sim
