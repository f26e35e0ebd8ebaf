// tools/symlint/tables.hpp
//
// Shared identifier tables. The per-TU rules (lint.cpp) and the cross-TU
// indexer (index.cpp) must agree on what counts as a nondeterminism source
// or a lock-guard type, so the tables live in one place.
#pragma once

#include <cstddef>
#include <set>
#include <string_view>

namespace symlint::tables {

// D1 / T1: identifiers that are nondeterministic wherever they appear.
inline const std::set<std::string_view> kD1TypeIdents = {
    "steady_clock",  "system_clock", "high_resolution_clock",
    "random_device", "mt19937",      "mt19937_64",
    "minstd_rand",   "minstd_rand0", "default_random_engine",
};
// D1 / T1: libc functions — nondeterministic when *called* (next token "(").
inline const std::set<std::string_view> kD1CallIdents = {
    "time",      "clock",        "rand",     "srand",   "rand_r",
    "drand48",   "lrand48",      "random",   "srandom", "getenv",
    "secure_getenv", "gettimeofday", "clock_gettime", "localtime",
    "gmtime",    "ctime",        "mktime",
};

// D3: std:: entities that block or spawn real OS threads.
inline const std::set<std::string_view> kD3StdIdents = {
    "mutex",          "recursive_mutex",        "timed_mutex",
    "shared_mutex",   "condition_variable",     "condition_variable_any",
    "thread",         "jthread",                "this_thread",
    "counting_semaphore", "binary_semaphore",   "latch",
    "future",         "promise",
};
// D3: blocking syscalls / libc calls.
inline const std::set<std::string_view> kD3CallIdents = {
    "sleep",      "usleep", "nanosleep", "sched_yield", "pthread_create",
    "poll",       "select", "epoll_wait", "fsync",      "fdatasync",
    "flock",
};

// B2: libc allocators — allocating when *called* as free functions.
inline const std::set<std::string_view> kAllocCallIdents = {
    "malloc", "calloc", "realloc", "aligned_alloc", "posix_memalign",
    "strdup",
};
// B2: std:: entities that heap-allocate on construction or call.
// std::function is here for its capture spill; the project's SmallFn is the
// sanctioned inline-storage replacement.
inline const std::set<std::string_view> kAllocStdIdents = {
    "make_unique", "make_shared", "function",
};

// B1/B2: the lane-executed hot-path files. Every function defined in one of
// these is presumed lane-executed, so a blocking/allocating seed inside them
// is reported directly (no call chain needed). The first kLaneFileCount
// entries are the Lane-internal files D4 exempts.
inline const char* const kHotPathFiles[] = {
    "simkit/lane.hpp",   "simkit/lane.cpp",    "simkit/window.hpp",
    "simkit/window.cpp", "simkit/engine.hpp",  "simkit/engine.cpp",
    "simkit/arena.hpp",  "simkit/smallfn.hpp", "simkit/dheap.hpp",
};
inline constexpr std::size_t kLaneFileCount = 6;

// B1/B2 reachability roots: the named lane-/fiber-/ULT-executed entry
// points (the dispatch loops and pumps the E1 BFS also starts from, but
// pinned to functions so the coordinator's *own* sanctioned thread plumbing
// — spawn/join in ctor/dtor — is not a root). A root matches when the TU's
// repo-relative path contains `path_frag` and the function's qualified name
// equals `fn`.
struct HotRoot {
  std::string_view path_frag;
  std::string_view fn;
};
inline const HotRoot kHotPathRoots[] = {
    {"simkit/lane.", "Lane::pop_and_run"},
    {"simkit/lane.", "Lane::run_window"},
    {"simkit/lane.", "Lane::post_remote"},
    {"simkit/lane.", "Lane::absorb_outbox_from"},
    {"simkit/lane.", "Lane::peek_next"},
    {"simkit/window.", "WindowCoordinator::worker_main"},
    {"simkit/window.", "WindowCoordinator::run_lanes_of"},
    {"simkit/window.", "WindowCoordinator::execute_window"},
    {"simkit/window.", "WindowCoordinator::merge"},
    {"simkit/engine.", "Engine::run_windows"},
    {"simkit/engine.", "Engine::run_classic"},
    {"simkit/engine.", "Engine::run_until_classic"},
    {"simkit/fiber.", "Fiber::trampoline"},
    {"simkit/fiber.", "Fiber::fast_trampoline"},
    {"simkit/fiber.", "Fiber::run_entry"},
    {"argolite/", "Xstream::try_dispatch"},
    {"argolite/", "Xstream::dispatch_one"},
    {"argolite/", "Xstream::run_ult"},
    {"workloads/loadgen", "LoadgenWorld::pump_tick"},
    {"workloads/loadgen", "LoadgenWorld::emit_arrival"},
    {"services/blockcache", "Provider::dispatch_loop"},
    {"services/blockcache", "Provider::flusher_loop"},
};

// D4: Lane types and Lane-only member functions.
inline const std::set<std::string_view> kD4TypeIdents = {"Lane",
                                                         "ActiveLaneScope",
                                                         "WindowCoordinator"};
inline const std::set<std::string_view> kD4MemberCalls = {
    "post_remote", "absorb_outbox_from", "run_window", "pop_and_run",
    "peek_next",
};

// L1: RAII guard types whose construction acquires the first argument and
// holds it to end of scope. Covers both std:: guards and abt::LockGuard.
inline const std::set<std::string_view> kGuardTypes = {
    "LockGuard", "lock_guard", "scoped_lock", "unique_lock", "shared_lock",
};

// L1 / E1: mutex-ish type name fragments. A declaration whose type mentions
// one of these registers a mutex object (L1) instead of a mutable static
// (E1) — a global mutex is synchronization, not escaping state.
inline const std::set<std::string_view> kMutexTypeIdents = {
    "Mutex", "mutex", "recursive_mutex", "timed_mutex", "shared_mutex",
};

// T1 sinks: virtual-time scheduling entry points. A tainted value flowing
// into one of these becomes an event timestamp (and thus a heap key and an
// export ordering input). "at" is only a sink with >= 2 arguments so that
// std::map::at(key) does not match.
inline const std::set<std::string_view> kSinkCalls = {
    "at", "after", "at_on", "after_on",
};

// E1: calls that bind an object (and by extension the state it guards) to a
// home lane; a referencing function that also binds is considered owned.
inline const std::set<std::string_view> kLaneBindCalls = {
    "bind_home_lane", "assert_home_lane",
};

// Cross-TU call resolution is by unqualified name, so ubiquitous std
// container/utility method names must never resolve to project functions:
// "m.size()" held under one backend's lock would otherwise alias every
// class that happens to define size() and weld their mutexes into phantom
// lock-order cycles. A project call routed through one of these names is
// invisible to L1/E1/T1 propagation — an accepted, documented trade.
inline const std::set<std::string_view> kOpaqueCallees = {
    "size",      "empty",     "clear",      "find",       "erase",
    "insert",    "count",     "at",         "begin",      "end",
    "push_back", "pop_back",  "emplace",    "emplace_back", "front",
    "back",      "reserve",   "resize",     "data",       "get",
    "reset",     "release",   "load",       "store",      "exchange",
    "c_str",     "str",       "substr",     "append",     "compare",
    "swap",      "contains",  "lower_bound", "upper_bound", "push",
    "pop",       "top",       "length",     "assign",     "fetch_add",
    "fetch_sub", "wait",      "notify_one", "notify_all", "value",
    "has_value", "insert_or_assign", "try_emplace", "first", "second",
};

// Keywords that never name a function / callee in the index.
inline const std::set<std::string_view> kNonCalleeKeywords = {
    "if",       "for",      "while",    "switch",   "catch",   "return",
    "sizeof",   "alignof",  "decltype", "new",      "delete",  "operator",
    "constexpr", "const",   "static_cast", "reinterpret_cast",
    "dynamic_cast", "const_cast", "co_return", "co_await", "co_yield",
    "throw",    "assert",   "defined",  "alignas",  "noexcept",
};

}  // namespace symlint::tables
