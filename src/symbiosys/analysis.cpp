#include "symbiosys/analysis.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "symbiosys/flat_hash.hpp"

namespace sym::prof {
namespace {

std::string format_ns(double ns) {
  char buf[64];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  }
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfileSummary
// ---------------------------------------------------------------------------

double CallpathBreakdown::unaccounted_ns() const noexcept {
  // Everything measured on the wire path except the origin execution time
  // itself. kOriginExec (t1->t14) is the envelope; the measured components
  // are the Table III intervals.
  double measured = 0;
  for (int i = 0; i < static_cast<int>(Interval::kCount); ++i) {
    if (i == static_cast<int>(Interval::kOriginExec)) continue;
    measured += interval_sum_ns[i];
  }
  const double gap = cumulative_ns - measured;
  return gap > 0 ? gap : 0;
}

ProfileSummary ProfileSummary::build(
    const std::vector<const ProfileStore*>& stores) {
  // Global analysis: merge every entity's records per breadcrumb.
  std::unordered_map<Breadcrumb, CallpathBreakdown> merged;
  std::unordered_map<Breadcrumb, std::map<std::uint32_t, double>> per_origin;
  std::unordered_map<Breadcrumb, std::map<std::uint32_t, double>> per_target;

  for (const ProfileStore* store : stores) {
    for (const auto& [key, stats] : store->entries()) {
      auto& cb = merged[key.breadcrumb];
      cb.breadcrumb = key.breadcrumb;
      for (int i = 0; i < static_cast<int>(Interval::kCount); ++i) {
        const auto& iv = stats.intervals[i];
        cb.interval_sum_ns[i] += iv.sum_ns;
        cb.interval_count[i] += iv.count;
      }
      const auto& origin_exec =
          stats.at(Interval::kOriginExec);
      if (key.side == Side::kOrigin) {
        cb.call_count += origin_exec.count;
        cb.cumulative_ns += origin_exec.sum_ns;
        per_origin[key.breadcrumb][key.self_ep] += origin_exec.sum_ns;
      } else {
        per_target[key.breadcrumb][key.self_ep] +=
            stats.at(Interval::kTargetExec).sum_ns;
      }
    }
  }

  // Emit in sorted-breadcrumb order: the report ordering and the
  // floating-point accumulation order of total_ns must not depend on the
  // hash layout of `merged` (or on the order the stores were passed in).
  ProfileSummary out;
  out.callpaths.reserve(merged.size());
  for (const Breadcrumb bc : sorted_keys(merged)) {
    CallpathBreakdown& cb = merged[bc];
    cb.name = NameRegistry::global().format(bc);
    const std::map<std::uint32_t, double>& origin_ns = per_origin[bc];
    for (const auto& [ep, ns] : origin_ns) {
      cb.per_origin_ns.emplace_back(ep, ns);
    }
    const std::map<std::uint32_t, double>& target_ns = per_target[bc];
    for (const auto& [ep, ns] : target_ns) {
      cb.per_target_ns.emplace_back(ep, ns);
    }
    out.total_ns += cb.cumulative_ns;
    out.callpaths.push_back(std::move(cb));
  }
  std::sort(out.callpaths.begin(), out.callpaths.end(),
            [](const CallpathBreakdown& a, const CallpathBreakdown& b) {
              if (a.cumulative_ns != b.cumulative_ns) {
                return a.cumulative_ns > b.cumulative_ns;
              }
              return a.breadcrumb < b.breadcrumb;  // deterministic tie-break
            });
  return out;
}

const CallpathBreakdown* ProfileSummary::find_by_leaf(
    const std::string& leaf_name) const {
  const auto leaf = hash16(leaf_name);
  for (const auto& cb : callpaths) {
    if (leaf_of(cb.breadcrumb) == leaf) return &cb;
  }
  return nullptr;
}

std::string ProfileSummary::format(std::size_t top_n) const {
  std::string out;
  // ~1 header + count line + one line per interval per shown callpath.
  out.reserve(128 + std::min(top_n, callpaths.size()) *
                        (static_cast<std::size_t>(Interval::kCount) + 3) * 96);
  out += "=== SYMBIOSYS profile summary: dominant callpaths by cumulative "
         "end-to-end request latency ===\n";
  char line[256];
  std::size_t shown = 0;
  for (const auto& cb : callpaths) {
    if (shown++ >= top_n) break;
    std::snprintf(line, sizeof(line), "[%zu] %s\n", shown, cb.name.c_str());
    out += line;
    std::snprintf(line, sizeof(line),
                  "     calls=%llu  cumulative=%s  origins=%zu  targets=%zu\n",
                  static_cast<unsigned long long>(cb.call_count),
                  format_ns(cb.cumulative_ns).c_str(), cb.per_origin_ns.size(),
                  cb.per_target_ns.size());
    out += line;
    for (int i = 0; i < static_cast<int>(Interval::kCount); ++i) {
      if (i == static_cast<int>(Interval::kOriginExec)) continue;
      if (cb.interval_count[i] == 0) continue;
      std::snprintf(line, sizeof(line), "       %-36s %12s (%5.1f%%)\n",
                    to_string(static_cast<Interval>(i)),
                    format_ns(cb.interval_sum_ns[i]).c_str(),
                    cb.cumulative_ns > 0
                        ? 100.0 * cb.interval_sum_ns[i] / cb.cumulative_ns
                        : 0.0);
      out += line;
    }
    std::snprintf(line, sizeof(line), "       %-36s %12s (%5.1f%%)\n",
                  "unaccounted", format_ns(cb.unaccounted_ns()).c_str(),
                  cb.cumulative_ns > 0
                      ? 100.0 * cb.unaccounted_ns() / cb.cumulative_ns
                      : 0.0);
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceSummary
// ---------------------------------------------------------------------------
//
// The stitcher keeps every per-span structure flat: one slot vector indexed
// by a FlatHashMap while collecting, put in SpanKey order once through a
// sort of compact keys, then walked in that order for the skew estimate and
// the per-request assembly.

namespace {

/// Key pairing the four events of one span. The emitting side reserves four
/// consecutive order slots per call: origin start = n, target start = n+1,
/// target end = n+2, origin end = n+3.
struct SpanKey {
  std::uint64_t request_id = 0;
  Breadcrumb bc = 0;
  std::uint32_t base_order = 0;
  bool operator==(const SpanKey&) const = default;
};

struct SpanKeyHash {
  std::size_t operator()(const SpanKey& k) const noexcept {
    std::uint64_t h = k.request_id * 0x9E3779B97F4A7C15ULL;
    h ^= k.bc * 0xC2B2AE3D27D4EB4FULL;
    h ^= static_cast<std::uint64_t>(k.base_order) * 0x165667B19E3779F9ULL;
    h ^= h >> 32;
    h *= 0xBF58476D1CE4E5B9ULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

struct U64Hash {
  std::size_t operator()(std::uint64_t v) const noexcept {
    v *= 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(v ^ (v >> 32));
  }
};

std::uint32_t base_order_of(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kOriginStart: return ev.order;
    case TraceEventKind::kTargetStart: return ev.order - 1;
    case TraceEventKind::kTargetEnd: return ev.order - 2;
    case TraceEventKind::kOriginEnd: return ev.order - 3;
  }
  return ev.order;
}

/// One span under assembly: the span itself, its raw node-local t1, t5,
/// t8, t14 (0 = event missing) and the endpoint pair it belongs to.
struct SpanSlot {
  Span sp;
  std::array<sim::TimeNs, 4> ts{};
  std::uint32_t pair = 0;
};

/// One (origin, target) endpoint pair: its skew-estimate accumulator and,
/// once the offsets are known, the two offsets to subtract.
struct EndpointPair {
  std::uint32_t origin_ep = 0;
  std::uint32_t target_ep = 0;
  double theta_sum = 0;
  int theta_count = 0;
  double origin_off = 0;
  double target_off = 0;
};

/// Pass 1: one pass over the stores into a flat slot vector. A later event
/// of the same kind overwrites an earlier one, in store-argument order.
std::vector<SpanSlot> collect_spans(
    const std::vector<const TraceStore*>& stores, std::size_t total_events) {
  std::vector<SpanSlot> slots;
  slots.reserve(total_events / 4 + 1);
  FlatHashMap<SpanKey, std::uint32_t, SpanKeyHash> index;  // slot + 1
  index.reserve(total_events / 4 + 1);
  for (const TraceStore* store : stores) {
    for (const TraceEvent& ev : store->events()) {
      const SpanKey key{ev.request_id, ev.breadcrumb, base_order_of(ev)};
      std::uint32_t& pos = index.find_or_insert(key);
      if (pos == 0) {
        SpanSlot& fresh = slots.emplace_back();
        fresh.sp.request_id = key.request_id;
        fresh.sp.breadcrumb = key.bc;
        fresh.sp.base_order = key.base_order;
        pos = static_cast<std::uint32_t>(slots.size());
      }
      SpanSlot& slot = slots[pos - 1];
      switch (ev.kind) {
        case TraceEventKind::kOriginStart:
          slot.sp.origin_ep = ev.self_ep;
          slot.sp.target_ep = ev.peer_ep;
          slot.ts[0] = ev.local_ts;
          break;
        case TraceEventKind::kTargetStart:
          slot.sp.target_ep = ev.self_ep;
          slot.sp.target_blocked_ults = ev.blocked_ults;
          slot.ts[1] = ev.local_ts;
          break;
        case TraceEventKind::kTargetEnd:
          slot.ts[2] = ev.local_ts;
          break;
        case TraceEventKind::kOriginEnd:
          slot.sp.origin_ofi_events_read = ev.num_ofi_events_read;
          slot.ts[3] = ev.local_ts;
          break;
      }
    }
  }
  return slots;
}

/// The slots' indices in SpanKey order. Sorts 24-byte (key, slot) entries
/// rather than the 120-byte slots themselves.
std::vector<std::uint32_t> key_order(const std::vector<SpanSlot>& slots) {
  struct Key {
    std::uint64_t request_id;
    Breadcrumb bc;
    std::uint32_t base_order;
    std::uint32_t slot;
  };
  std::vector<Key> keys;
  keys.reserve(slots.size());
  for (const SpanSlot& s : slots) {
    keys.push_back({s.sp.request_id, s.sp.breadcrumb, s.sp.base_order,
                    static_cast<std::uint32_t>(keys.size())});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.request_id, a.bc, a.base_order) <
           std::tie(b.request_id, b.bc, b.base_order);
  });
  std::vector<std::uint32_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].slot;
  return order;
}

/// Pass 2: clock-skew estimation. For every (origin, target) endpoint pair
/// with complete spans, the NTP-style symmetric-delay estimate of the
/// target's offset relative to the origin is
///     theta = ((t5 - t1) - (t14 - t8)) / 2
/// Averaging over spans cancels queueing noise; a BFS over the pair graph
/// anchors every endpoint to the smallest endpoint id (the reference).
/// Thetas accumulate in SpanKey order and the graph is walked from
/// endpoints in ascending order, so the offsets do not depend on the order
/// the stores were recorded in. Fills `offsets` and the per-pair offsets.
std::vector<EndpointPair> estimate_offsets(
    const std::vector<std::uint32_t>& order, std::vector<SpanSlot>& slots,
    std::map<std::uint32_t, double>& offsets) {
  std::vector<EndpointPair> pairs;
  FlatHashMap<std::uint64_t, std::uint32_t, U64Hash> pair_index;  // pair + 1
  for (const std::uint32_t i : order) {
    SpanSlot& slot = slots[i];
    const Span& sp = slot.sp;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(sp.origin_ep) << 32) | sp.target_ep;
    std::uint32_t& pos = pair_index.find_or_insert(key);
    if (pos == 0) {
      pairs.push_back({sp.origin_ep, sp.target_ep});
      pos = static_cast<std::uint32_t>(pairs.size());
    }
    slot.pair = pos - 1;
    const auto& ts = slot.ts;
    if (ts[0] == 0 || ts[1] == 0 || ts[2] == 0 || ts[3] == 0) continue;
    if (sp.origin_ep == sp.target_ep) continue;
    const double fwd = static_cast<double>(ts[1]) - static_cast<double>(ts[0]);
    const double bwd = static_cast<double>(ts[3]) - static_cast<double>(ts[2]);
    EndpointPair& acc = pairs[slot.pair];
    acc.theta_sum += (fwd - bwd) / 2.0;
    acc.theta_count += 1;
  }

  std::vector<std::uint32_t> eps;
  eps.reserve(2 * pairs.size());
  for (const EndpointPair& p : pairs) {
    eps.push_back(p.origin_ep);
    eps.push_back(p.target_ep);
  }
  std::sort(eps.begin(), eps.end());
  eps.erase(std::unique(eps.begin(), eps.end()), eps.end());
  const auto pos_of = [&eps](std::uint32_t ep) {
    return static_cast<std::size_t>(
        std::lower_bound(eps.begin(), eps.end(), ep) - eps.begin());
  };

  // Adjacency with averaged thetas in both directions, built in ascending
  // (origin, target) order.
  std::vector<EndpointPair> sorted = pairs;
  std::sort(sorted.begin(), sorted.end(),
            [](const EndpointPair& a, const EndpointPair& b) {
              return std::tie(a.origin_ep, a.target_ep) <
                     std::tie(b.origin_ep, b.target_ep);
            });
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(eps.size());
  for (const EndpointPair& p : sorted) {
    if (p.theta_count == 0) continue;
    const double theta = p.theta_sum / p.theta_count;
    adj[pos_of(p.origin_ep)].emplace_back(pos_of(p.target_ep), theta);
    adj[pos_of(p.target_ep)].emplace_back(pos_of(p.origin_ep), -theta);
  }

  // BFS from each yet-unvisited endpoint (reference offset 0).
  std::vector<double> off(eps.size(), 0.0);
  std::vector<std::uint8_t> seen(eps.size(), 0);
  std::vector<std::size_t> queue;
  for (std::size_t ref = 0; ref < eps.size(); ++ref) {
    if (seen[ref] != 0) continue;
    seen[ref] = 1;
    queue.assign(1, ref);
    while (!queue.empty()) {
      const std::size_t u = queue.back();
      queue.pop_back();
      for (const auto& [v, theta] : adj[u]) {
        if (seen[v] != 0) continue;
        seen[v] = 1;
        off[v] = off[u] + theta;
        queue.push_back(v);
      }
    }
  }
  for (std::size_t i = 0; i < eps.size(); ++i) {
    offsets.emplace_hint(offsets.end(), eps[i], off[i]);
  }
  for (EndpointPair& p : pairs) {
    p.origin_off = off[pos_of(p.origin_ep)];
    p.target_off = off[pos_of(p.target_ep)];
  }
  return pairs;
}

sim::TimeNs corrected(sim::TimeNs local, double off) {
  if (local == 0) return 0;
  const double t = static_cast<double>(local) - off;
  return t < 0 ? 0 : static_cast<sim::TimeNs>(t);
}

/// Parent links of one request. A parent is a span whose breadcrumb is the
/// child's breadcrumb with the leaf popped, that started no later than the
/// child, and whose interval covers the child's start; the latest-starting
/// such span wins. `by_bc` is caller-owned scratch reused across requests.
void resolve_parents(std::vector<Span>& spans,
                     std::vector<std::pair<Breadcrumb, std::uint32_t>>& by_bc) {
  by_bc.clear();
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    by_bc.emplace_back(spans[i].breadcrumb, i);
  }
  std::sort(by_bc.begin(), by_bc.end());
  for (Span& sp : spans) {
    const Breadcrumb parent_bc = sp.breadcrumb >> 16;
    if (parent_bc == 0) continue;
    // Candidates of one breadcrumb are ascending in index, hence in
    // origin_start (spans are sorted): the last candidate not starting
    // after the child wins.
    auto it = std::lower_bound(by_bc.begin(), by_bc.end(),
                               std::make_pair(parent_bc, std::uint32_t{0}));
    for (; it != by_bc.end() && it->first == parent_bc; ++it) {
      const Span& cand = spans[it->second];
      if (cand.origin_start > sp.origin_start) break;
      if (cand.origin_end != 0 && cand.origin_end < sp.origin_start) {
        continue;
      }
      sp.parent = static_cast<std::int32_t>(it->second);
    }
  }
}

}  // namespace

TraceSummary TraceSummary::build(
    const std::vector<const TraceStore*>& stores) {
  TraceSummary out;
  for (const TraceStore* store : stores) out.total_events += store->size();

  std::vector<SpanSlot> slots = collect_spans(stores, out.total_events);
  out.total_spans = slots.size();
  const std::vector<std::uint32_t> in_order = key_order(slots);
  const std::vector<EndpointPair> pairs =
      estimate_offsets(in_order, slots, out.clock_offset_ns);

  // Pass 3: apply corrections, assemble per-request traces and link
  // parents. Request ids are contiguous in SpanKey order, so each request
  // is one run of slots, and `requests` comes out ascending by id.
  // `requests` is reserved exactly: letting it grow cost more end to end
  // than this extra walk (EXPERIMENTS.md, "Ordering the keys").
  std::size_t n_requests = 0;
  for (std::size_t i = 0; i < in_order.size(); ++i) {
    if (i == 0 || slots[in_order[i]].sp.request_id !=
                      slots[in_order[i - 1]].sp.request_id) {
      ++n_requests;
    }
  }
  out.requests.reserve(n_requests);
  std::vector<std::pair<Breadcrumb, std::uint32_t>> by_bc;
  for (std::size_t begin = 0, end = 0; begin < in_order.size(); begin = end) {
    const std::uint64_t rid = slots[in_order[begin]].sp.request_id;
    end = begin + 1;
    while (end < in_order.size() && slots[in_order[end]].sp.request_id == rid) {
      ++end;
    }
    RequestTrace& rt = out.requests.emplace_back();
    rt.request_id = rid;
    rt.spans.reserve(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
      const SpanSlot& slot = slots[in_order[k]];
      const EndpointPair& p = pairs[slot.pair];
      Span& sp = rt.spans.emplace_back(slot.sp);
      sp.origin_start = corrected(slot.ts[0], p.origin_off);
      sp.target_start = corrected(slot.ts[1], p.target_off);
      sp.target_end = corrected(slot.ts[2], p.target_off);
      sp.origin_end = corrected(slot.ts[3], p.origin_off);
    }
    if (rt.spans.size() == 1) continue;  // a lone span has no parent
    std::sort(rt.spans.begin(), rt.spans.end(),
              [](const Span& a, const Span& b) {
                if (a.origin_start != b.origin_start) {
                  return a.origin_start < b.origin_start;
                }
                return a.base_order < b.base_order;
              });
    resolve_parents(rt.spans, by_bc);
  }
  return out;
}

const RequestTrace* TraceSummary::find(std::uint64_t request_id) const {
  const auto it = std::lower_bound(
      requests.begin(), requests.end(), request_id,
      [](const RequestTrace& rt, std::uint64_t id) {
        return rt.request_id < id;
      });
  if (it == requests.end() || it->request_id != request_id) return nullptr;
  return &*it;
}

std::string TraceSummary::format_request(const RequestTrace& rt) const {
  std::string out;
  out.reserve(64 + rt.spans.size() * 112);  // one pre-sized line per span
  char line[256];
  std::snprintf(line, sizeof(line), "request %llx: %zu spans\n",
                static_cast<unsigned long long>(rt.request_id),
                rt.spans.size());
  out += line;
  if (rt.spans.empty()) return out;
  const sim::TimeNs t0 = rt.spans.front().origin_start;
  const auto& reg = NameRegistry::global();
  for (const auto& sp : rt.spans) {
    const int indent = 2 * (depth(sp.breadcrumb) - 1);
    std::snprintf(line, sizeof(line),
                  "  %*s%-40s [%10.2f us .. %10.2f us] ep%u -> ep%u\n", indent,
                  "", reg.format(sp.breadcrumb).c_str(),
                  (static_cast<double>(sp.origin_start) -
                   static_cast<double>(t0)) /
                      1e3,
                  (static_cast<double>(sp.origin_end) -
                   static_cast<double>(t0)) /
                      1e3,
                  sp.origin_ep, sp.target_ep);
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// SysStatsSummary
// ---------------------------------------------------------------------------

SysStatsSummary SysStatsSummary::build(
    const std::vector<std::pair<std::string, const SysStatStore*>>& stores) {
  SysStatsSummary out;
  for (const auto& [name, store] : stores) {
    SysStatsProcessSummary s;
    s.process = name;
    s.samples = store->size();
    for (const auto& row : store->samples()) {
      const double rss_mb = static_cast<double>(row.rss_bytes) / (1 << 20);
      s.mean_rss_mb += rss_mb;
      s.max_rss_mb = std::max(s.max_rss_mb, rss_mb);
      s.mean_cpu += row.cpu_util;
      s.mean_blocked += row.blocked_ults;
      s.max_blocked = std::max<double>(s.max_blocked, row.blocked_ults);
      s.max_cq_size = std::max<double>(s.max_cq_size,
                                       row.completion_queue_size);
    }
    if (s.samples > 0) {
      s.mean_rss_mb /= static_cast<double>(s.samples);
      s.mean_cpu /= static_cast<double>(s.samples);
      s.mean_blocked /= static_cast<double>(s.samples);
    }
    out.per_process.push_back(std::move(s));
  }
  return out;
}

std::string SysStatsSummary::format() const {
  std::string out =
      "=== SYMBIOSYS system statistics summary ===\n"
      "process                  samples  rss(MB) mean/max   cpu    blocked "
      "mean/max   cq max\n";
  char line[256];
  for (const auto& s : per_process) {
    std::snprintf(line, sizeof(line),
                  "%-24s %7zu  %7.1f/%-7.1f  %5.1f%%  %7.1f/%-7.0f  %6.0f\n",
                  s.process.c_str(), s.samples, s.mean_rss_mb, s.max_rss_mb,
                  100.0 * s.mean_cpu, s.mean_blocked, s.max_blocked,
                  s.max_cq_size);
    out += line;
  }
  return out;
}

}  // namespace sym::prof
