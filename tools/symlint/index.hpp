// tools/symlint/index.hpp
//
// Pass 1 of symlint v2: the in-memory cross-TU index.
//
// For every translation unit the indexer extracts, with one lexical
// forward scan over the token stream:
//   - the function definitions (qualified name, line span), each with its
//     call sites, mutex acquisitions (RAII guards and manual lock()/
//     unlock()) annotated with the set of mutexes already held, references
//     to this TU's mutable statics, nondeterminism-source calls, virtual-
//     time scheduling sinks, and local taint assignments;
//   - mutable namespace-scope / function-local-static / class-static
//     variable declarations (E1 subjects);
//   - mutex object declarations (L1 nodes);
//   - the allow() annotation map and the per-TU D-rule findings.
//
// Everything here is deterministic: containers iterated for output are
// ordered, and run_index returns the TUs in sorted file order.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace symlint {

struct CallSite {
  std::string callee;  ///< unqualified callee name
  int line = 0;
  std::vector<std::string> held;  ///< mutex tokens held at the call
};

struct AcquireSite {
  std::string mutex;  ///< mutex token as written ("mu_", "g_a")
  int line = 0;
  std::vector<std::string> held;  ///< mutexes already held when acquiring
};

struct SinkCall {
  std::string name;  ///< "after", "at_on", ...
  int line = 0;
  int args = 0;  ///< argument count ("at" is a sink only with >= 2)
  std::vector<std::string> arg_idents;  ///< plain identifiers in the args
  std::vector<std::string> arg_calls;   ///< identifiers called in the args
};

struct TaintAssign {
  std::string var;
  int line = 0;
  std::vector<std::string> from_calls;  ///< callees on the right-hand side
  bool direct_source = false;  ///< rhs contains a D1 primitive directly
};

struct SourceCall {
  std::string primitive;  ///< "time", "steady_clock", ...
  int line = 0;
};

struct StaticRef {
  std::string name;
  int line = 0;  ///< first reference line within the function
};

struct FunctionInfo {
  std::string name;  ///< possibly qualified ("Backend::put")
  std::string cls;   ///< enclosing class, "" for free functions
  int line = 0;
  std::vector<CallSite> calls;
  std::vector<AcquireSite> acquires;
  std::vector<StaticRef> static_refs;
  std::vector<SourceCall> sources;
  std::vector<SinkCall> sinks;
  std::vector<TaintAssign> taints;
  /// B1 seeds: OS-blocking leaf sites in this body ("std::mutex",
  /// "usleep()"), and B2 seeds: heap-allocating leaf sites ("new",
  /// "malloc()", "std::make_unique").
  std::vector<SourceCall> blocking;
  std::vector<SourceCall> allocating;
  /// `&ident` references: deferred call edges (function pointers handed to
  /// SmallFn / callbacks). Resolved by name like ordinary calls.
  std::vector<StaticRef> fn_refs;
  bool binds_lane = false;  ///< calls bind_home_lane / assert_home_lane
};

/// P1: a name registered with a string literal in code — a PVAR
/// registration (`reg.add({"name", ...})`), an action span
/// (`record_action_span("name", ...)`), or a policy rule
/// (`add_rule("name", ...)`).
struct NameReg {
  std::string name;
  int line = 0;
  /// The literal is only a prefix completed at run time
  /// ("policy:" + rule_name); expanded against the registered rule names.
  bool dynamic = false;
};

struct MutableStatic {
  std::string name;
  int line = 0;
  bool is_thread_local = false;
  bool is_function_local = false;
  std::string type_hint;  ///< first type identifier, for the message
};

struct MutexDecl {
  std::string name;
  std::string cls;  ///< owning class for members, "" for globals
  int line = 0;
  bool is_member = false;
};

struct TuIndex {
  std::string path;  ///< as given (what findings report)
  std::string norm;  ///< normalized, '/'-separated
  std::vector<FunctionInfo> functions;
  std::vector<MutableStatic> statics;
  std::vector<MutexDecl> mutexes;
  /// Effective allow coverage: (line, rule-name), already expanded so an
  /// annotation covers its own line plus the code line beneath it.
  std::vector<std::pair<int, std::string>> allows;
  std::vector<NameReg> pvar_regs;  ///< P1: PVAR registrations
  std::vector<NameReg> span_regs;  ///< P1: action-span names
  std::vector<NameReg> rule_regs;  ///< P1: policy-rule names (span prefixes)
  std::vector<Finding> tu_findings;  ///< per-TU D-rule findings
};

/// Index one TU from memory. The fixture tests feed virtual paths through
/// this.
[[nodiscard]] TuIndex build_tu_index(std::string_view path,
                                     std::string_view content);

/// Read and index `files` (disk paths), in sorted, deduplicated path order.
/// Unreadable files get an A0 finding in their tu_findings.
[[nodiscard]] std::vector<TuIndex> run_index(std::vector<std::string> files);

}  // namespace symlint
