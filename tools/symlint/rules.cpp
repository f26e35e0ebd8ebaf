#include "rules.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "tables.hpp"

namespace symlint {
namespace {

/// Repo-relative tail of a normalized path ("src/...", "tools/...",
/// "tests/..."): stable across absolute/relative invocation forms.
std::string repo_rel(const std::string& norm) {
  for (const std::string_view prefix : {"src/", "tools/", "tests/"}) {
    std::size_t pos = 0;
    while ((pos = norm.find(prefix, pos)) != std::string::npos) {
      if (pos == 0 || norm[pos - 1] == '/') return norm.substr(pos);
      ++pos;
    }
  }
  return norm;
}

std::string unqualified(const std::string& name) {
  const auto pos = name.rfind("::");
  return pos == std::string::npos ? name : name.substr(pos + 2);
}

bool allowed(const TuIndex& tu, int line, std::string_view rule) {
  for (const auto& [l, r] : tu.allows) {
    if (l == line && r == rule) return true;
    if (l > line) break;
  }
  return false;
}

struct FnRef {
  std::size_t tu;
  std::size_t fn;
};

class Project {
 public:
  explicit Project(const std::vector<TuIndex>& tus) : tus_(tus) {
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      for (std::size_t fi = 0; fi < tus[ti].functions.size(); ++fi) {
        by_name_[unqualified(tus[ti].functions[fi].name)].push_back({ti, fi});
      }
      for (const auto& m : tus[ti].mutexes) {
        if (m.is_member) {
          member_mutexes_[m.name].insert(m.cls);
        } else {
          global_mutexes_.insert(m.name);
        }
      }
    }
  }

  const std::vector<TuIndex>& tus() const { return tus_; }

  const FunctionInfo& fn(FnRef r) const {
    return tus_[r.tu].functions[r.fn];
  }

  const std::vector<FnRef>* candidates(const std::string& callee) const {
    if (tables::kOpaqueCallees.count(callee) != 0) return nullptr;
    const auto it = by_name_.find(callee);
    return it == by_name_.end() ? nullptr : &it->second;
  }

  /// Project-wide identity of a mutex token acquired inside `owner`.
  std::string mutex_id(const std::string& token, const FunctionInfo& owner,
                       const TuIndex& tu) const {
    const auto mem = member_mutexes_.find(token);
    if (mem != member_mutexes_.end()) {
      const std::string cls = unqualified(owner.cls);
      if (!cls.empty() && mem->second.count(cls) != 0) {
        return cls + "::" + token;
      }
      if (mem->second.size() == 1 && global_mutexes_.count(token) == 0) {
        return *mem->second.begin() + "::" + token;
      }
    }
    if (global_mutexes_.count(token) != 0) return token;
    if (mem != member_mutexes_.end()) {
      return repo_rel(tu.norm) + ":" + token;
    }
    // Unknown declaration (e.g. local mutex): file-local identity.
    return repo_rel(tu.norm) + ":" + token;
  }

 private:
  const std::vector<TuIndex>& tus_;
  std::map<std::string, std::vector<FnRef>> by_name_;
  /// member mutex name -> owning classes; global mutex names merge by name.
  std::map<std::string, std::set<std::string>> member_mutexes_;
  std::set<std::string> global_mutexes_;
};

// ---------------------------------------------------------------------------
// L1: lock-order cycles
// ---------------------------------------------------------------------------

struct LockEdge {
  std::size_t tu = 0;
  std::string file;
  int line = 0;
  std::string fn;
  std::string via;  ///< "" for direct acquisition, else the callee chain note
};

class LockOrder {
 public:
  explicit LockOrder(const Project& p) : p_(p) {}

  std::vector<Finding> run() {
    build_edges();
    return report_cycles();
  }

 private:
  /// Mutex ids a function acquires transitively (memoized; cycles in the
  /// call graph are cut by the in-progress marker).
  const std::set<std::string>& trans_acq(FnRef r) {
    const auto key = std::make_pair(r.tu, r.fn);
    const auto it = trans_.find(key);
    if (it != trans_.end()) return it->second;
    auto [slot, inserted] = trans_.emplace(key, std::set<std::string>{});
    if (!in_progress_.insert(key).second) return slot->second;
    const FunctionInfo& f = p_.fn(r);
    const TuIndex& tu = p_.tus()[r.tu];
    std::set<std::string> acc;
    for (const auto& a : f.acquires) acc.insert(p_.mutex_id(a.mutex, f, tu));
    for (const auto& c : f.calls) {
      const auto* cands = p_.candidates(c.callee);
      if (cands == nullptr) continue;
      for (const auto& cand : *cands) {
        const auto& sub = trans_acq(cand);
        acc.insert(sub.begin(), sub.end());
      }
    }
    in_progress_.erase(key);
    auto& out = trans_[key];  // re-find: recursion may have rehashed
    out = std::move(acc);
    return out;
  }

  void add_edge(const std::string& from, const std::string& to,
                LockEdge edge) {
    edges_[from].emplace(to, std::move(edge));
  }

  void build_edges() {
    const auto& tus = p_.tus();
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const TuIndex& tu = tus[ti];
      for (const auto& f : tu.functions) {
        for (const auto& a : f.acquires) {
          if (a.held.empty()) continue;
          const std::string to = p_.mutex_id(a.mutex, f, tu);
          for (const auto& h : a.held) {
            add_edge(p_.mutex_id(h, f, tu), to,
                     {ti, tu.path, a.line, f.name, ""});
          }
        }
        for (const auto& c : f.calls) {
          if (c.held.empty()) continue;
          const auto* cands = p_.candidates(c.callee);
          if (cands == nullptr) continue;
          std::set<std::string> acquired;
          for (const auto& cand : *cands) {
            const auto& sub = trans_acq(cand);
            acquired.insert(sub.begin(), sub.end());
          }
          for (const auto& h : c.held) {
            const std::string from = p_.mutex_id(h, f, tu);
            for (const auto& to : acquired) {
              if (to == from) continue;  // recursive re-entry: too noisy
              add_edge(from, to,
                       {ti, tu.path, c.line, f.name,
                        " via call to " + c.callee + "()"});
            }
          }
        }
      }
    }
  }

  std::vector<Finding> report_cycles() {
    // Nodes in deterministic order.
    std::set<std::string> nodes;
    for (const auto& [from, tos] : edges_) {
      nodes.insert(from);
      for (const auto& [to, e] : tos) nodes.insert(to);
    }

    std::vector<Finding> out;
    std::set<std::string> reported;  // canonical rings already emitted
    for (const auto& start : nodes) {
      // Shortest path start -> ... -> start via BFS (self-edges included).
      std::map<std::string, std::string> parent;
      std::vector<std::string> frontier;
      const auto succ_it = edges_.find(start);
      if (succ_it == edges_.end()) continue;
      bool closed = false;
      for (const auto& [to, e] : succ_it->second) {
        if (to == start) {  // direct self-cycle
          emit_cycle({start, start}, reported, out);
          closed = true;
          break;
        }
        if (parent.emplace(to, start).second) frontier.push_back(to);
      }
      if (closed) continue;
      while (!frontier.empty() && !closed) {
        std::vector<std::string> next_frontier;
        for (const auto& node : frontier) {
          const auto it = edges_.find(node);
          if (it == edges_.end()) continue;
          for (const auto& [to, e] : it->second) {
            if (to == start) {
              std::vector<std::string> path{start};
              for (std::string cur = node; cur != start;
                   cur = parent.at(cur)) {
                path.push_back(cur);
              }
              std::reverse(path.begin() + 1, path.end());
              path.push_back(start);
              emit_cycle(path, reported, out);
              closed = true;
              break;
            }
            if (parent.emplace(to, node).second) next_frontier.push_back(to);
          }
          if (closed) break;
        }
        frontier = std::move(next_frontier);
      }
    }
    return out;
  }

  void emit_cycle(const std::vector<std::string>& path,
                  std::set<std::string>& reported, std::vector<Finding>& out) {
    // Canonicalize: rotate so the lexicographically smallest node leads.
    std::vector<std::string> ring(path.begin(), path.end() - 1);
    const auto min_it = std::min_element(ring.begin(), ring.end());
    std::rotate(ring.begin(), min_it, ring.end());
    std::string ring_id;
    for (const auto& m : ring) ring_id += m + "->";
    ring_id += ring.front();
    if (!reported.insert(ring_id).second) return;

    std::vector<const LockEdge*> witness;
    bool suppressed = false;
    std::ostringstream steps;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const std::string& a = ring[i];
      const std::string& b = ring[(i + 1) % ring.size()];
      const LockEdge& e = edges_.at(a).at(b);
      witness.push_back(&e);
      if (allowed(p_.tus()[e.tu], e.line, "lock-order")) suppressed = true;
      if (i != 0) steps << "; ";
      steps << a << " -> " << b << " at "
            << repo_rel(p_.tus()[e.tu].norm) << ":" << e.line << " in "
            << e.fn << e.via;
    }
    if (suppressed || witness.empty()) return;

    std::ostringstream msg;
    msg << "lock-order cycle (potential deadlock): ";
    for (const auto& m : ring) msg << m << " -> ";
    msg << ring.front() << ". Witness: " << steps.str()
        << ". Establish a global acquisition order or annotate "
           "allow(lock-order) at an acquisition site.";
    Finding f;
    f.rule = Rule::kLockOrder;
    f.file = witness.front()->file;
    f.line = witness.front()->line;
    f.message = msg.str();
    out.push_back(std::move(f));
  }

  const Project& p_;
  /// from-mutex -> (to-mutex -> first witness edge), all ordered.
  std::map<std::string, std::map<std::string, LockEdge>> edges_;
  std::map<std::pair<std::size_t, std::size_t>, std::set<std::string>> trans_;
  std::set<std::pair<std::size_t, std::size_t>> in_progress_;
};

// ---------------------------------------------------------------------------
// E1: shared-state escape
// ---------------------------------------------------------------------------

class SharedEscape {
 public:
  explicit SharedEscape(const Project& p) : p_(p) { build_reachability(); }

  std::vector<Finding> run() {
    std::vector<Finding> out;
    const auto& tus = p_.tus();
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const TuIndex& tu = tus[ti];
      for (const auto& s : tu.statics) {
        std::vector<std::pair<FnRef, int>> refs;
        bool lane_bound = false;
        for (std::size_t fi = 0; fi < tu.functions.size(); ++fi) {
          const FunctionInfo& f = tu.functions[fi];
          for (const auto& r : f.static_refs) {
            if (r.name != s.name) continue;
            refs.push_back({{ti, fi}, r.line});
            if (f.binds_lane) lane_bound = true;
            break;
          }
        }
        if (refs.empty() || lane_bound) continue;
        if (allowed(tu, s.line, "shared-state-escape")) continue;
        out.push_back(make_finding(tu, s, refs));
      }
    }
    return out;
  }

 private:
  /// BFS from the worker-execution roots (window/lane/fiber machinery and
  /// the argolite runtime shims) over name-resolvable calls.
  void build_reachability() {
    const auto& tus = p_.tus();
    std::vector<FnRef> frontier;
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const std::string rel = repo_rel(tus[ti].norm);
      const bool is_root_tu = rel.find("simkit/window.") != std::string::npos ||
                              rel.find("simkit/lane.") != std::string::npos ||
                              rel.find("simkit/fiber.") != std::string::npos ||
                              rel.find("argolite/") != std::string::npos;
      if (!is_root_tu) continue;
      for (std::size_t fi = 0; fi < tus[ti].functions.size(); ++fi) {
        const auto key = std::make_pair(ti, fi);
        if (chain_.emplace(key, std::vector<std::string>{
                                    tus[ti].functions[fi].name})
                .second) {
          frontier.push_back({ti, fi});
        }
      }
    }
    while (!frontier.empty()) {
      std::vector<FnRef> next_frontier;
      for (const auto& r : frontier) {
        const auto& here = chain_.at(std::make_pair(r.tu, r.fn));
        if (here.size() >= 8) continue;  // witness depth cap
        for (const auto& c : p_.fn(r).calls) {
          const auto* cands = p_.candidates(c.callee);
          if (cands == nullptr) continue;
          for (const auto& cand : *cands) {
            const auto key = std::make_pair(cand.tu, cand.fn);
            if (chain_.count(key) != 0) continue;
            std::vector<std::string> path = here;
            path.push_back(p_.fn(cand).name);
            chain_.emplace(key, std::move(path));
            next_frontier.push_back(cand);
          }
        }
      }
      frontier = std::move(next_frontier);
    }
  }

  Finding make_finding(const TuIndex& tu, const MutableStatic& s,
                       const std::vector<std::pair<FnRef, int>>& refs) {
    const std::string rel = repo_rel(tu.norm);
    std::ostringstream msg;
    msg << "mutable ";
    if (s.is_thread_local) msg << "thread_local ";
    msg << (s.is_function_local ? "function-local static" : "static") << " '"
        << s.name << "'";
    if (!s.type_hint.empty()) msg << " (" << s.type_hint << ")";
    msg << " is shared state escaping into worker-executed code: referenced"
           " by ";
    const auto& [first_ref, first_line] = refs.front();
    msg << "'" << p_.fn(first_ref).name << "' at " << rel << ":" << first_line;
    if (refs.size() > 1) msg << " (+" << refs.size() - 1 << " more)";

    const std::vector<std::string>* witness = nullptr;
    for (const auto& [r, line] : refs) {
      const auto it = chain_.find(std::make_pair(r.tu, r.fn));
      if (it != chain_.end()) {
        witness = &it->second;
        break;
      }
    }
    if (witness != nullptr) {
      msg << ". Worker path: ";
      for (std::size_t i = 0; i < witness->size(); ++i) {
        if (i != 0) msg << " -> ";
        msg << (*witness)[i];
      }
    } else {
      msg << ". No static call path from the worker roots was resolved, but"
             " fiber entry points are type-erased, so reachability is"
             " assumed conservatively";
    }
    msg << ". Bind an owner with sim::debug::bind_home_lane or annotate"
           " allow(shared-state-escape) with a reason.";

    Finding f;
    f.rule = Rule::kSharedEscape;
    f.file = tu.path;
    f.line = s.line;
    f.message = msg.str();
    return f;
  }

  const Project& p_;
  /// (tu, fn) -> witness chain from a worker root down to the function.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::string>>
      chain_;
};

// ---------------------------------------------------------------------------
// T1: determinism taint
// ---------------------------------------------------------------------------

struct TaintOrigin {
  std::string primitive;
  std::string site;  ///< "src/foo.cpp:42"
  std::vector<std::string> chain;  ///< fn names, caller-first
};

class Taint {
 public:
  explicit Taint(const Project& p) : p_(p) {}

  std::vector<Finding> run() {
    std::vector<Finding> out;
    const auto& tus = p_.tus();
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const TuIndex& tu = tus[ti];
      for (std::size_t fi = 0; fi < tu.functions.size(); ++fi) {
        const FunctionInfo& f = tu.functions[fi];
        for (const auto& sink : f.sinks) {
          if (sink.name == "at" && sink.args < 2) continue;  // std::map::at
          if (allowed(tu, sink.line, "determinism-taint")) continue;
          std::optional<Finding> found = check_sink(ti, fi, sink);
          if (found.has_value()) out.push_back(std::move(*found));
        }
      }
    }
    return out;
  }

 private:
  /// A function is tainted if its body reads a D1 primitive (in a TU where
  /// D1 applies — simkit/time.hpp and rng.hpp are the sanctioned wrappers)
  /// or calls a tainted function. allow(nondeterminism) silences the D1
  /// diagnostic but does not launder the value.
  const std::optional<TaintOrigin>& tainted(FnRef r) {
    const auto key = std::make_pair(r.tu, r.fn);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    memo_.emplace(key, std::nullopt);
    if (!in_progress_.insert(key).second) return memo_.at(key);

    const TuIndex& tu = p_.tus()[r.tu];
    const FunctionInfo& f = p_.fn(r);
    std::optional<TaintOrigin> result;
    if (classify(tu.norm).d1 && !f.sources.empty()) {
      const SourceCall& src = f.sources.front();
      std::ostringstream site;
      site << repo_rel(tu.norm) << ":" << src.line;
      result = TaintOrigin{src.primitive, site.str(), {f.name}};
    } else {
      for (const auto& c : f.calls) {
        const auto* cands = p_.candidates(c.callee);
        if (cands == nullptr) continue;
        for (const auto& cand : *cands) {
          const auto& sub = tainted(cand);
          if (sub.has_value()) {
            result = *sub;
            result->chain.insert(result->chain.begin(), f.name);
            break;
          }
        }
        if (result.has_value()) break;
      }
    }
    in_progress_.erase(key);
    auto& slot = memo_.at(key);
    slot = std::move(result);
    return slot;
  }

  std::optional<Finding> check_sink(std::size_t ti, std::size_t fi,
                                    const SinkCall& sink) {
    const TuIndex& tu = p_.tus()[ti];
    const FunctionInfo& f = tu.functions[fi];

    const TaintOrigin* origin = nullptr;
    TaintOrigin local;
    std::string via;

    for (const auto& callee : sink.arg_calls) {
      const auto* cands = p_.candidates(callee);
      if (cands == nullptr) continue;
      for (const auto& cand : *cands) {
        const auto& sub = tainted(cand);
        if (sub.has_value()) {
          origin = &*sub;
          via = "the result of '" + callee + "()'";
          break;
        }
      }
      if (origin != nullptr) break;
    }
    if (origin == nullptr) {
      for (const auto& ident : sink.arg_idents) {
        for (const auto& ta : f.taints) {
          if (ta.var != ident || ta.line > sink.line) continue;
          if (ta.direct_source) {
            std::ostringstream site;
            site << repo_rel(tu.norm) << ":" << ta.line;
            local = TaintOrigin{"a clock/rng primitive", site.str(), {f.name}};
            origin = &local;
            via = "local '" + ident + "'";
            break;
          }
          for (const auto& callee : ta.from_calls) {
            const auto* cands = p_.candidates(callee);
            if (cands == nullptr) continue;
            for (const auto& cand : *cands) {
              const auto& sub = tainted(cand);
              if (sub.has_value()) {
                local = *sub;
                origin = &local;
                via = "local '" + ident + "' assigned from '" + callee +
                      "()'";
                break;
              }
            }
            if (origin != nullptr) break;
          }
          if (origin != nullptr) break;
        }
        if (origin != nullptr) break;
      }
    }
    if (origin == nullptr) return std::nullopt;

    std::ostringstream msg;
    msg << "clock/rng-derived value flows into virtual-time sink '"
        << sink.name << "' in '" << f.name << "' through " << via
        << "; taint originates from '" << origin->primitive << "' at "
        << origin->site;
    if (origin->chain.size() > 1) {
      msg << " via ";
      for (std::size_t i = 0; i < origin->chain.size(); ++i) {
        if (i != 0) msg << " -> ";
        msg << origin->chain[i];
      }
    }
    msg << ". Event timestamps must derive from sim::now()/SimRng; annotate"
           " allow(determinism-taint) only with a recorded reason.";

    Finding out;
    out.rule = Rule::kTaint;
    out.file = tu.path;
    out.line = sink.line;
    out.message = msg.str();
    return out;
  }

  const Project& p_;
  std::map<std::pair<std::size_t, std::size_t>, std::optional<TaintOrigin>>
      memo_;
  std::set<std::pair<std::size_t, std::size_t>> in_progress_;
};

// ---------------------------------------------------------------------------
// B1/B2: may-block / may-allocate hot-path cost
// ---------------------------------------------------------------------------

/// Two faces of one analysis over the same seed sets:
///
///   direct  Any blocking/allocating leaf site inside a hot-path *file*
///           (tables::kHotPathFiles — the per-event lane/window/engine/
///           fiber machinery) is reported at the seed line. This subsumes
///           the retired per-TU D3 allocation face and, unlike call-graph
///           reachability, also catches seeds only reachable through
///           type-erased dispatch (SmallFn::emplace's heap spill).
///
///   reach   A named hot-path *root* (tables::kHotPathRoots — lane pumps,
///           window workers, fiber trampolines, argolite dispatch, loadgen
///           pumps, blockcache service ULTs) BFS-reaches a seeded function
///           through name-resolved calls or &function references. The
///           finding carries the full witness chain with a file:line at
///           every hop plus the seed site. Seeds inside hot-path files are
///           skipped here (already direct-reported); one finding per
///           (root, attribute), shortest chain wins (BFS order).
class HotPathCost {
 public:
  explicit HotPathCost(const Project& p) : p_(p) {}

  std::vector<Finding> run() {
    std::vector<Finding> out;
    direct(out);
    reach(out);
    return out;
  }

 private:
  static bool hot_file(const std::string& rel) {
    for (const char* const entry : tables::kHotPathFiles) {
      const std::string_view sv(entry);
      if (rel.size() < sv.size()) continue;
      if (rel.compare(rel.size() - sv.size(), sv.size(), sv) != 0) continue;
      if (rel.size() == sv.size() || rel[rel.size() - sv.size() - 1] == '/') {
        return true;
      }
    }
    return false;
  }

  void direct(std::vector<Finding>& out) {
    const auto& tus = p_.tus();
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const TuIndex& tu = tus[ti];
      const std::string rel = repo_rel(tu.norm);
      if (!hot_file(rel)) continue;
      for (const auto& f : tu.functions) {
        emit_direct(tu, rel, f, f.blocking, true, out);
        emit_direct(tu, rel, f, f.allocating, false, out);
      }
    }
  }

  void emit_direct(const TuIndex& tu, const std::string& rel,
                   const FunctionInfo& f, const std::vector<SourceCall>& seeds,
                   bool block, std::vector<Finding>& out) {
    const char* const rule_name = block ? "may-block" : "may-allocate";
    for (const auto& s : seeds) {
      if (allowed(tu, s.line, rule_name)) continue;
      std::ostringstream msg;
      if (block) {
        msg << "blocking call '" << s.primitive << "' in '" << f.name
            << "' on hot-path file " << rel << ": lane-/fiber-executed code"
            << " must not block the OS thread. Annotate allow(may-block)"
            << " with a reason if intentional.";
      } else {
        msg << "allocating call '" << s.primitive << "' in '" << f.name
            << "' on hot-path file " << rel << ": per-event work must stay"
            << " allocation-free (lane arena, preallocated rings). Annotate"
            << " allow(may-allocate) with a reason if intentional.";
      }
      Finding fd;
      fd.rule = block ? Rule::kMayBlock : Rule::kMayAlloc;
      fd.file = tu.path;
      fd.line = s.line;
      fd.message = msg.str();
      out.push_back(std::move(fd));
    }
  }

  void reach(std::vector<Finding>& out) {
    const auto& tus = p_.tus();
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const std::string rel = repo_rel(tus[ti].norm);
      for (const auto& root : tables::kHotPathRoots) {
        if (rel.find(root.path_frag) == std::string::npos) continue;
        for (std::size_t fi = 0; fi < tus[ti].functions.size(); ++fi) {
          if (tus[ti].functions[fi].name != root.fn) continue;
          reach_from({ti, fi}, rel, out);
        }
      }
    }
  }

  struct Hop {
    FnRef fn;
    std::string chain;  ///< rendered "Root -> callee [rel:line] -> ..."
    std::size_t depth = 0;
  };

  void reach_from(FnRef root, const std::string& root_rel,
                  std::vector<Finding>& out) {
    const auto& tus = p_.tus();
    const FunctionInfo& root_fn = p_.fn(root);
    bool found_block = false;
    bool found_alloc = false;

    std::set<std::pair<std::size_t, std::size_t>> visited;
    std::vector<Hop> frontier{{root, root_fn.name, 0}};
    visited.insert({root.tu, root.fn});

    while (!frontier.empty() && !(found_block && found_alloc)) {
      std::vector<Hop> next_frontier;
      for (const auto& hop : frontier) {
        const TuIndex& tu = tus[hop.fn.tu];
        const FunctionInfo& f = p_.fn(hop.fn);
        const std::string rel = repo_rel(tu.norm);
        // Seeds inside hot-path files are reported by the direct face.
        if (!hot_file(rel)) {
          if (!found_block && !f.blocking.empty()) {
            found_block = try_emit(root, root_rel, hop, tu, rel,
                                   f.blocking.front(), true, out);
          }
          if (!found_alloc && !f.allocating.empty()) {
            found_alloc = try_emit(root, root_rel, hop, tu, rel,
                                   f.allocating.front(), false, out);
          }
          if (found_block && found_alloc) return;
        }
        if (hop.depth >= 8) continue;  // witness depth cap
        auto push = [&](const std::string& name, int line, bool is_ref) {
          const auto* cands = p_.candidates(name);
          if (cands == nullptr) return;
          for (const auto& cand : *cands) {
            if (!visited.insert({cand.tu, cand.fn}).second) continue;
            std::ostringstream step;
            step << hop.chain << " -> " << (is_ref ? "&" : "")
                 << p_.fn(cand).name << " [" << rel << ":" << line << "]";
            next_frontier.push_back({cand, step.str(), hop.depth + 1});
          }
        };
        for (const auto& c : f.calls) push(c.callee, c.line, false);
        for (const auto& r : f.fn_refs) push(r.name, r.line, true);
      }
      frontier = std::move(next_frontier);
    }
  }

  bool try_emit(FnRef root, const std::string& root_rel, const Hop& hop,
                const TuIndex& seed_tu, const std::string& seed_rel,
                const SourceCall& seed, bool block, std::vector<Finding>& out) {
    const FunctionInfo& root_fn = p_.fn(root);
    const TuIndex& root_tu = p_.tus()[root.tu];
    const char* const rule_name = block ? "may-block" : "may-allocate";
    if (allowed(root_tu, root_fn.line, rule_name)) return true;
    if (allowed(seed_tu, seed.line, rule_name)) return true;

    std::ostringstream msg;
    msg << "hot-path root '" << root_fn.name << "' (" << root_rel << ":"
        << root_fn.line << ") may " << (block ? "block" : "allocate") << ": "
        << hop.chain << "; " << (block ? "blocking" : "allocating")
        << " site '" << seed.primitive << "' at " << seed_rel << ":"
        << seed.line << ". "
        << (block ? "Hand blocking work to a coordinator thread"
                  : "Hoist the allocation out of the per-event path")
        << " or annotate allow(" << rule_name
        << ") with a reason at the root or the site.";

    Finding fd;
    fd.rule = block ? Rule::kMayBlock : Rule::kMayAlloc;
    fd.file = root_tu.path;
    fd.line = root_fn.line;
    fd.message = msg.str();
    out.push_back(std::move(fd));
    return true;
  }

  const Project& p_;
};

}  // namespace

// ---------------------------------------------------------------------------
// P1: PVAR / action-span contract
// ---------------------------------------------------------------------------

namespace {

struct DocName {
  int line = 0;
};

/// Parse docs/PVARS.md: '|'-delimited table rows, first cell only, every
/// backticked name in the cell (shared rows document two counters). Cells
/// containing '<' are pattern rows (`bc_t<k>_...`) and never match literal
/// registrations — skipped. Section routing by "## " headings: a heading
/// containing "Action span" collects into the span set, everything else
/// into the PVAR set.
void parse_pvars_doc(std::string_view doc, std::map<std::string, DocName>& pvars,
                     std::map<std::string, DocName>& spans) {
  bool in_spans = false;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= doc.size()) {
    auto eol = doc.find('\n', pos);
    if (eol == std::string_view::npos) eol = doc.size();
    const std::string_view ln = doc.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;

    if (ln.substr(0, 3) == "## ") {
      in_spans = ln.find("Action span") != std::string_view::npos;
      continue;
    }
    std::size_t bar = ln.find('|');
    if (bar == std::string_view::npos) continue;
    const auto close = ln.find('|', bar + 1);
    if (close == std::string_view::npos) continue;
    const std::string_view cell = ln.substr(bar + 1, close - bar - 1);
    if (cell.find('<') != std::string_view::npos) continue;  // pattern row
    auto& into = in_spans ? spans : pvars;
    std::size_t tick = 0;
    while ((tick = cell.find('`', tick)) != std::string_view::npos) {
      const auto end = cell.find('`', tick + 1);
      if (end == std::string_view::npos) break;
      const std::string name(cell.substr(tick + 1, end - tick - 1));
      if (!name.empty()) into.emplace(name, DocName{line_no});
      tick = end + 1;
    }
  }
}

struct RegSite {
  std::size_t tu = 0;
  int line = 0;
};

}  // namespace

std::vector<Finding> check_pvar_contract(const std::vector<TuIndex>& tus,
                                         std::string_view doc_text,
                                         const std::string& doc_path) {
  std::map<std::string, DocName> doc_pvars;
  std::map<std::string, DocName> doc_spans;
  parse_pvars_doc(doc_text, doc_pvars, doc_spans);

  // Code-side registrations: literal names only, src/ TUs only (tests and
  // benches register throwaway PVARs). Dynamic spans ("policy:" + name)
  // expand against the literal policy-rule names registered under src/.
  std::map<std::string, RegSite> code_pvars;
  std::map<std::string, RegSite> code_spans;
  std::vector<std::string> rule_names;
  auto in_src = [](const TuIndex& tu) {
    return tu.norm.find("src/") != std::string::npos;
  };
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    if (!in_src(tus[ti])) continue;
    for (const auto& r : tus[ti].rule_regs) {
      if (!r.dynamic) rule_names.push_back(r.name);
    }
  }
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    if (!in_src(tus[ti])) continue;
    for (const auto& r : tus[ti].pvar_regs) {
      if (!r.dynamic) code_pvars.emplace(r.name, RegSite{ti, r.line});
    }
    for (const auto& r : tus[ti].span_regs) {
      if (r.dynamic) {
        for (const auto& rule : rule_names) {
          code_spans.emplace(r.name + rule, RegSite{ti, r.line});
        }
      } else {
        code_spans.emplace(r.name, RegSite{ti, r.line});
      }
    }
  }

  std::vector<Finding> out;
  auto code_side = [&](const std::map<std::string, RegSite>& code,
                       const std::map<std::string, DocName>& doc,
                       const char* what) {
    for (const auto& [name, site] : code) {
      if (doc.count(name) != 0) continue;
      const TuIndex& tu = tus[site.tu];
      if (allowed(tu, site.line, "pvar-contract")) continue;
      Finding f;
      f.rule = Rule::kPvarContract;
      f.file = tu.path;
      f.line = site.line;
      f.message = std::string(what) + " '" + name + "' is registered at " +
                  repo_rel(tu.norm) + ":" + std::to_string(site.line) +
                  " but not documented in " + doc_path +
                  " — add a row (or annotate allow(pvar-contract) with a"
                  " reason).";
      out.push_back(std::move(f));
    }
  };
  auto doc_side = [&](const std::map<std::string, DocName>& doc,
                      const std::map<std::string, RegSite>& code,
                      const char* what) {
    for (const auto& [name, dn] : doc) {
      if (code.count(name) != 0) continue;
      Finding f;
      f.rule = Rule::kPvarContract;
      f.file = doc_path;
      f.line = dn.line;
      f.message = std::string(what) + " '" + name + "' is documented in " +
                  doc_path + ":" + std::to_string(dn.line) +
                  " but never registered in src/ — stale doc row or a"
                  " registration that was removed.";
      out.push_back(std::move(f));
    }
  };
  code_side(code_pvars, doc_pvars, "PVAR");
  code_side(code_spans, doc_spans, "action span");
  doc_side(doc_pvars, code_pvars, "PVAR");
  doc_side(doc_spans, code_spans, "action span");
  sort_findings(out);
  return out;
}

std::vector<Finding> analyze_project(const std::vector<TuIndex>& tus) {
  const Project project(tus);
  std::vector<Finding> out;
  for (auto& f : LockOrder(project).run()) out.push_back(std::move(f));
  for (auto& f : SharedEscape(project).run()) out.push_back(std::move(f));
  for (auto& f : Taint(project).run()) out.push_back(std::move(f));
  for (auto& f : HotPathCost(project).run()) out.push_back(std::move(f));
  sort_findings(out);
  // Report identical findings (same rule, site and message) once.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.rule == b.rule && a.file == b.file &&
                                 a.line == b.line && a.message == b.message;
                        }),
            out.end());
  return out;
}

}  // namespace symlint
