// tools/symlint/rules.hpp
//
// Pass 2 of symlint v2: interprocedural rules over the cross-TU index.
//
//   L1 lock-order          Build the project-wide mutex-acquisition graph
//                          (edge m1 -> m2 when m2 is acquired — directly or
//                          through any resolvable call chain — while m1 is
//                          held). Any cycle is a potential deadlock; the
//                          finding carries a concrete witness path naming
//                          the acquisition sites.
//   E1 shared-state-escape Mutable globals / function-local statics /
//                          class-statics referenced from function code
//                          without a lane-ownership bind
//                          (sim::debug::bind_home_lane) or an
//                          allow(shared-state-escape) annotation. When the
//                          referencing function is reachable from the
//                          fiber-/worker-execution roots by name-resolvable
//                          calls, the witness names the path; otherwise the
//                          finding notes the conservative treatment forced
//                          by type-erased fiber dispatch.
//   T1 determinism-taint   A clock/rng-derived value (D1 primitive outside
//                          simkit/time.hpp + rng.hpp) propagating through at
//                          least one call or local assignment into a
//                          virtual-time scheduling sink (Engine::at/after/
//                          at_on/after_on). allow(nondeterminism) silences
//                          D1 at the source but does NOT stop taint
//                          propagation — that is the point of T1;
//                          allow(determinism-taint) at the sink does.
//   B1 may-block           A blocking leaf (std::mutex lock, condition
//   B2 may-allocate        variable, sleep/blocking syscall) or allocating
//                          leaf (raw new / malloc family, std::make_unique/
//                          make_shared, std::function heap spill) either
//                          sits directly in a hot-path file or is reached
//                          from a named lane-/fiber-executed root through
//                          name-resolved calls and &function references.
//                          Reach findings carry the full witness chain with
//                          file:line at every hop.
//   P1 pvar-contract       Code-registered PVAR names and action-span names
//                          (run separately, needs the doc text) must match
//                          docs/PVARS.md exactly; drift in either direction
//                          is a finding.
//
// Mutex identity: member mutexes are qualified by their owning class
// ("Backend::write_lock_") so same-named members of unrelated classes never
// merge; namespace-scope mutexes merge project-wide by bare name (extern
// globals must alias across TUs); unresolvable tokens fall back to a
// file-local identity.
#pragma once

#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace symlint {

/// Run L1/E1/T1/B1/B2 over the indexed project. `tus` must be in
/// deterministic (sorted-path) order; findings come out sorted.
[[nodiscard]] std::vector<Finding> analyze_project(
    const std::vector<TuIndex>& tus);

/// P1: diff code-registered PVAR / action-span names (literal registrations
/// in src/ TUs, dynamic "prefix:" spans expanded against registered policy
/// rules) against the catalogue tables in `doc_text` (docs/PVARS.md).
/// `doc_path` is what doc-side findings report as their file.
[[nodiscard]] std::vector<Finding> check_pvar_contract(
    const std::vector<TuIndex>& tus, std::string_view doc_text,
    const std::string& doc_path);

}  // namespace symlint
