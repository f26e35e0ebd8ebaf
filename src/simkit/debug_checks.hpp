// simkit/debug_checks.hpp
//
// Runtime half of the project's determinism tooling (the static half is
// tools/symlint, see docs/STATIC_ANALYSIS.md). Compiled to no-ops unless
// the tree is configured with -DSYM_DEBUG_CHECKS=ON.
//
// Shadow-ownership tracking: lane-owned objects (each Lane's slot table and
// Rng, per-node NIC state, per-endpoint completion queues) register their
// home lane here; every touch then asserts that the calling thread is
// either executing that lane (ActiveLaneScope) or is the coordinating /
// setup thread with no lane active. A cross-lane touch — the bug class the
// safe-window protocol exists to prevent — fails loudly through the
// violation handler instead of silently skewing figures. The same handler
// receives merged cross-lane events that arrive below their destination's
// clock, the protocol's other invariant.
//
// The default handler prints the violation and aborts; tests install a
// recording handler to assert that planted violations are caught.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace sym::sim::debug {

/// Sentinel: the calling thread is not executing any lane (main/setup
/// context or the window coordinator between windows).
inline constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;

#if SYM_DEBUG_CHECKS

struct Violation {
  const void* object;      ///< the lane-owned object that was touched
  std::string what;        ///< site description, e.g. "Lane::schedule"
  std::uint32_t home_lane;
  std::uint32_t actual_lane;
};

using ViolationHandler = std::function<void(const Violation&)>;

/// Replace the violation handler (default: print + abort). Returns the
/// previous handler so tests can restore it.
ViolationHandler set_violation_handler(ViolationHandler handler);

/// Register `obj` as owned by `lane`. Re-binding an address overwrites.
void bind_home_lane(const void* obj, std::uint32_t lane);

/// Remove `obj` from the registry (call from destructors: addresses are
/// recycled and a stale binding would poison the next object there).
void unbind_home_lane(const void* obj);

/// Assert that the calling thread may touch `obj`: it is executing the
/// object's home lane, or no lane at all. Unregistered objects pass.
void assert_home_lane(const void* obj, const char* what);

/// Report a merged cross-lane event from `src_lane` that arrived below the
/// clock of its destination `lane` (index `dst_lane`): the window protocol's
/// causality invariant, broken only by a post with less than the lookahead.
void report_late_merge(const void* lane, std::uint32_t dst_lane,
                       std::uint32_t src_lane);

/// Thread-local lane marker, maintained by ActiveLaneScope.
void set_current_lane(std::uint32_t lane) noexcept;
[[nodiscard]] std::uint32_t current_lane() noexcept;

/// Count of violations reported since process start (any handler).
[[nodiscard]] std::uint64_t violation_count() noexcept;

#else  // !SYM_DEBUG_CHECKS — every hook compiles away.

inline void bind_home_lane(const void*, std::uint32_t) {}
inline void unbind_home_lane(const void*) {}
inline void assert_home_lane(const void*, const char*) {}
inline void report_late_merge(const void*, std::uint32_t, std::uint32_t) {}
inline void set_current_lane(std::uint32_t) noexcept {}
inline std::uint32_t current_lane() noexcept { return kNoLane; }
inline std::uint64_t violation_count() noexcept { return 0; }

#endif

}  // namespace sym::sim::debug
