#include "simkit/debug_checks.hpp"

#if SYM_DEBUG_CHECKS

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace sym::sim::debug {
namespace {

// The registry is touched from lane worker threads concurrently; this is
// real-thread debug infrastructure (like the window coordinator itself), so
// std::mutex — not abt sync — is correct here, and simkit is outside the
// symlint fiber-blocking scope for exactly this reason.
std::mutex g_mu;
std::unordered_map<const void*, std::uint32_t>& registry() {
  static std::unordered_map<const void*, std::uint32_t> map;
  return map;
}

ViolationHandler& handler_slot() {
  static ViolationHandler handler = [](const Violation& v) {
    std::fprintf(stderr,
                 "SYM_DEBUG_CHECKS: violation at %s: object %p owned by "
                 "lane %u touched from lane %u\n",
                 v.what.c_str(), v.object, v.home_lane, v.actual_lane);
    std::abort();
  };
  return handler;
}

// symlint: allow(shared-state-escape) reason=atomic diagnostics counter read only by tests after the run; never feeds simulation state
std::atomic<std::uint64_t> g_violations{0};

// symlint: allow(shared-state-escape) reason=thread_local shadow of the lane a worker is executing; set by ActiveLaneScope on the owning thread only
thread_local std::uint32_t t_current_lane = kNoLane;

void report(const Violation& v) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  ViolationHandler handler;
  {
    // symlint: allow(may-block) reason=reached only on a detected violation
    // in a debug_checks build; copies the handler under a tiny lock
    const std::lock_guard<std::mutex> lock(g_mu);
    handler = handler_slot();
  }
  handler(v);
}

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler handler) {
  const std::lock_guard<std::mutex> lock(g_mu);
  ViolationHandler prev = std::move(handler_slot());
  handler_slot() = std::move(handler);
  return prev;
}

void bind_home_lane(const void* obj, std::uint32_t lane) {
  // symlint: allow(may-block) reason=debug-registry update at object bind
  // time; tiny non-yielding critical section off the steady-state event path
  const std::lock_guard<std::mutex> lock(g_mu);
  registry()[obj] = lane;
}

void unbind_home_lane(const void* obj) {
  const std::lock_guard<std::mutex> lock(g_mu);
  registry().erase(obj);
}

void assert_home_lane(const void* obj, const char* what) {
  const std::uint32_t actual = t_current_lane;
  if (actual == kNoLane) return;  // setup / coordinator context
  Violation v;
  {
    // symlint: allow(may-block) reason=debug-check registry probe; tiny
    // non-yielding critical section guarded by the debug_checks build flag
    const std::lock_guard<std::mutex> lock(g_mu);
    const auto it = registry().find(obj);
    if (it == registry().end() || it->second == actual) return;
    v = Violation{obj, what, it->second, actual};
  }
  report(v);
}

void report_late_merge(const void* lane, std::uint32_t dst_lane,
                       std::uint32_t src_lane) {
  report(Violation{lane, "Lane::absorb_outbox_from (merged event below the "
                         "destination clock)",
                   dst_lane, src_lane});
}

void set_current_lane(std::uint32_t lane) noexcept { t_current_lane = lane; }

std::uint32_t current_lane() noexcept { return t_current_lane; }

std::uint64_t violation_count() noexcept {
  return g_violations.load(std::memory_order_relaxed);
}

}  // namespace sym::sim::debug

#endif  // SYM_DEBUG_CHECKS
