// tools/symlint/lint.hpp
//
// symlint — SYMBIOSYS-specific static analysis. The project's determinism
// and fiber-safety guarantees (DESIGN.md, docs/ARCHITECTURE.md) are
// invariants of the *source*, not of any one test run — a stray wall-clock
// read or an unordered-map walk in an export path produces subtly different
// figures without failing a single assertion. symlint encodes those
// invariants as machine-checked rules over src/ and runs as a ctest gate.
//
// The analyzer has two passes (see docs/STATIC_ANALYSIS.md):
//
//   pass 0 — per-TU lexical rules, this header:
//   D1 nondeterminism   no wall-clock / libc randomness / environment reads
//                       outside simkit/time.hpp and simkit/rng.hpp
//   D2 unordered-iter   no range-for over std::unordered_{map,set} variables
//                       in analysis/export code (src/symbiosys)
//   D3 fiber-blocking   no std::mutex / std::thread / blocking syscalls in
//                       fiber-executed code — blocking goes through
//                       argolite's sync primitives (src/simkit is exempt:
//                       the engine substrate owns the real threads)
//   D4 lane-affinity    no direct access to Lane internals outside
//                       simkit/{lane,window,engine}.* — cross-lane work goes
//                       through the Engine::at_on mailbox API
//
//   pass 1+2 — cross-TU index (index.hpp) and interprocedural rules
//   (rules.hpp):
//   L1 lock-order            cycle in the project-wide mutex-acquisition
//                            graph (potential deadlock), with witness path
//   E1 shared-state-escape   mutable global/static/class-static reachable
//                            from worker-executed code without a lane bind
//   T1 determinism-taint     clock/rng-derived value flowing through calls
//                            into an event timestamp
//   B1 may-block             lane/fiber-executed root reaches an OS-blocking
//                            leaf (std::mutex, condition_variable, blocking
//                            syscall) through the call graph; the finding
//                            carries the witness chain with file:line hops
//   B2 may-allocate          same propagation for heap allocation leaves
//                            (raw new, malloc family, make_unique/shared,
//                            std::function spill)
//   P1 pvar-contract         PVAR registrations and action-span names in
//                            code cross-checked against docs/PVARS.md;
//                            drift in either direction is a finding
//
// Escape hatch: a finding is suppressed by an annotation on the same line
// or on the line directly above — a comment carrying the symlint marker
// followed by allow(<rule>) reason=<non-empty explanation>.
// An allow() without a reason is itself reported (rule A0).
//
// The analyzer is deliberately lexical, not AST-based: it must build
// dependency-free on a bare toolchain and run in milliseconds over the
// whole tree. The matching is conservative and the fixture suite
// (tests/lint_fixtures) pins its exact diagnostics.
#pragma once

#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace symlint {

struct Lexed;

enum class Rule {
  kAnnotation, kNondeterminism, kUnorderedIter, kFiberBlocking, kLaneAffinity,
  kLockOrder,  kSharedEscape,   kTaint,         kMayBlock,      kMayAlloc,
  kPvarContract,
};

/// Every rule's short id ("D1") and annotation name ("nondeterminism"), in
/// enum order.
struct RuleInfo {
  Rule rule;
  std::string_view id;
  std::string_view name;
};
inline constexpr RuleInfo kRules[] = {
    {Rule::kAnnotation, "A0", "annotation"},  // malformed allow()
    {Rule::kNondeterminism, "D1", "nondeterminism"},
    {Rule::kUnorderedIter, "D2", "unordered-iter"},
    {Rule::kFiberBlocking, "D3", "fiber-blocking"},
    {Rule::kLaneAffinity, "D4", "lane-affinity"},
    {Rule::kLockOrder, "L1", "lock-order"},  // cross-TU from here on
    {Rule::kSharedEscape, "E1", "shared-state-escape"},
    {Rule::kTaint, "T1", "determinism-taint"},
    {Rule::kMayBlock, "B1", "may-block"},
    {Rule::kMayAlloc, "B2", "may-allocate"},
    {Rule::kPvarContract, "P1", "pvar-contract"},  // registry vs PVARS.md
};

static_assert([] {
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    if (static_cast<std::size_t>(kRules[i].rule) != i) return false;
  }
  return true;
}(), "kRules must list every Rule in enum order");

[[nodiscard]] constexpr std::string_view rule_id(Rule r) noexcept {
  return kRules[static_cast<std::size_t>(r)].id;
}
[[nodiscard]] constexpr std::string_view rule_name(Rule r) noexcept {
  return kRules[static_cast<std::size_t>(r)].name;
}

struct Finding {
  Rule rule;
  std::string file;  ///< path as given to lint_source()
  int line = 0;      ///< 1-based
  std::string message;

  /// "file:line: [D1/nondeterminism] message" — the stable CLI format the
  /// fixture tests pin.
  [[nodiscard]] std::string format() const;
};

/// Which rule families apply to a path. Per-TU rules are path-scoped (see
/// the table in docs/STATIC_ANALYSIS.md); the cross-TU passes index every
/// scanned file. tools/symlint itself is scanned (the selfcheck gate) under
/// the determinism rules that make sense for a host-side tool: its *output*
/// must be deterministic (D1, D2), but it runs no fibers (no D3) and has
/// no lanes (no D4).
struct Scope {
  bool scan = false;  ///< file participates in analysis at all
  bool d1 = false;
  bool d2 = false;
  bool d3 = false;
  bool d4 = false;
};

[[nodiscard]] Scope classify(std::string_view path);

/// Lint one translation unit with the per-TU rules. `path` determines which
/// rules apply; `content` is the file text. The path is matched on its
/// normalized form, so callers may pass either a repo-relative path
/// ("src/simkit/lane.cpp") or an absolute one.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               std::string_view content);

/// lint_source over a TU that is already lexed (the indexer's token stream).
[[nodiscard]] std::vector<Finding> lint_lexed(std::string_view path,
                                              const Lexed& lx);

/// Stable ordering used everywhere findings are emitted.
void sort_findings(std::vector<Finding>& findings);

}  // namespace symlint
