// simkit/smallfn.hpp
//
// SmallFn — the event-callback representation of the lane hot path. A
// std::function<void()> built from a capturing lambda heap-allocates as soon
// as the capture outgrows the library's small-object buffer (two pointers on
// libstdc++), which on the post/deliver/merge path means one malloc and one
// free per simulated event. SmallFn replaces it with a move-only callable
// whose inline buffer (kInlineBytes) is sized for the engine's real
// callbacks: a capture of `this` plus a handful of ids/timestamps stays
// inline, so a steady-state event loop performs zero allocator traffic.
//
// Oversized or throwing-move captures spill to the heap; the spill is a
// correctness-preserving slow path that Lane counts into its ArenaStats
// (fn_heap_spills) so the allocations-per-event bench column and the
// bench_scale_smoke gate keep the no-spill invariant observable.
//
// The class is a template over its call signature (SmallFunction<R(Args...)>)
// so that other move-only continuations, such as merclite's per-operation
// callbacks, use the same inline storage; SmallFn is the void() form.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sym::sim {

namespace smallfn_detail {

template <typename R, typename... Args>
struct VTable {
  R (*invoke)(void*, Args...);
  void (*destroy)(void*) noexcept;
  /// Move-construct the callable into `dst` storage and destroy `src`.
  void (*relocate)(void* src, void* dst) noexcept;
  bool heap;
};

template <typename Fn, typename R, typename... Args>
R call(Fn& fn, Args... args) {
  if constexpr (std::is_void_v<R>) {
    fn(std::forward<Args>(args)...);
  } else {
    return fn(std::forward<Args>(args)...);
  }
}

template <typename Fn, typename R, typename... Args>
struct InlineOps {
  static R invoke(void* p, Args... args) {
    return call<Fn, R, Args...>(*static_cast<Fn*>(p),
                                std::forward<Args>(args)...);
  }
  static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
  static void relocate(void* src, void* dst) noexcept {
    Fn* s = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
};

template <typename Fn, typename R, typename... Args>
struct HeapOps {
  static Fn*& slot(void* p) noexcept { return *static_cast<Fn**>(p); }
  static R invoke(void* p, Args... args) {
    return call<Fn, R, Args...>(*slot(p), std::forward<Args>(args)...);
  }
  static void destroy(void* p) noexcept { delete slot(p); }
  static void relocate(void* src, void* dst) noexcept {
    ::new (dst) Fn*(slot(src));
  }
};

template <typename Fn, typename R, typename... Args>
inline constexpr VTable<R, Args...> kInlineVt{
    &InlineOps<Fn, R, Args...>::invoke, &InlineOps<Fn, R, Args...>::destroy,
    &InlineOps<Fn, R, Args...>::relocate, false};

template <typename Fn, typename R, typename... Args>
inline constexpr VTable<R, Args...> kHeapVt{
    &HeapOps<Fn, R, Args...>::invoke, &HeapOps<Fn, R, Args...>::destroy,
    &HeapOps<Fn, R, Args...>::relocate, true};

}  // namespace smallfn_detail

template <typename Signature>
class SmallFunction;

/// A move-only callable with signature `R(Args...)` stored inline.
template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  /// Inline capture budget. 96 bytes holds the fattest hot-path callback in
  /// the tree — sofi's receive-delivery lambda, which move-captures the
  /// payload vector, an attachment shared_ptr and five ids — with room for
  /// `this` plus ten 64-bit ids/timestamps in the common case. Every
  /// callback the engine, sofi, argolite and the services schedule today
  /// stays inline (asserted by the arena bench gate).
  static constexpr std::size_t kInlineBytes = 96;

  SmallFunction() noexcept = default;
  SmallFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &smallfn_detail::kInlineVt<Fn, R, Args...>;
    } else {
      // Spill path for captures beyond the inline budget. The scheduling
      // lane counts every spill into ArenaStats::fn_heap_spills, and the
      // B2 may-allocate lint keeps this the only sanctioned `new` here.
      // symlint: allow(may-allocate) reason=counted slow-path spill for oversized captures; steady-state gate asserts it never fires
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &smallfn_detail::kHeapVt<Fn, R, Args...>;
    }
  }

  SmallFunction(SmallFunction&& o) noexcept { move_from(o); }
  SmallFunction& operator=(SmallFunction&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;
  ~SmallFunction() { reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// True when the callable's capture spilled past the inline buffer.
  [[nodiscard]] bool on_heap() const noexcept {
    return vt_ != nullptr && vt_->heap;
  }

  R operator()(Args... args) {
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }
  void move_from(SmallFunction& o) noexcept {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(o.buf_, buf_);
      o.vt_ = nullptr;
    }
  }

  const smallfn_detail::VTable<R, Args...>* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/// The event-callback and ULT-body form.
using SmallFn = SmallFunction<void()>;

}  // namespace sym::sim
