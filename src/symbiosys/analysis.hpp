// symbiosys/analysis.hpp
//
// Post-execution analysis: the C++ counterparts of the paper's analysis
// scripts (§V, §VI Table V):
//
//  * ProfileSummary  — ingests all per-process callpath profiles, performs
//    the global origin/target pairing, and ranks callpaths by cumulative
//    end-to-end request latency with per-step breakdowns (Fig. 6, 7, 9).
//  * TraceSummary    — stitches trace events from different processes into
//    per-request span trees, applying clock-skew correction anchored on the
//    propagated Lamport clocks (Fig. 5, 10, 12).
//  * SysStatsSummary — summarizes the periodic system-statistics samples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "symbiosys/records.hpp"

namespace sym::prof {

/// Sorted key vector of an associative container. Consolidation paths keep
/// unordered maps for O(1) merging but must emit in an order that does not
/// depend on the hash layout (symlint rule D2, docs/STATIC_ANALYSIS.md) —
/// collect the keys with this helper and iterate those.
template <typename Map>
[[nodiscard]] std::vector<typename Map::key_type> sorted_keys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  // symlint: allow(unordered-iter) reason=keys are sorted before any use
  for (const auto& kv : m) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------------
// Profile summary
// ---------------------------------------------------------------------------

/// Aggregated view of one callpath across all entities.
struct CallpathBreakdown {
  Breadcrumb breadcrumb = 0;
  std::string name;             ///< "a => b => c"
  std::uint64_t call_count = 0; ///< origin-side invocation count
  double cumulative_ns = 0;     ///< summed origin execution time
  /// Per-interval sums across every recording entity.
  double interval_sum_ns[static_cast<int>(Interval::kCount)] = {};
  std::uint64_t interval_count[static_cast<int>(Interval::kCount)] = {};
  /// Per-entity call-count / latency distributions.
  std::vector<std::pair<std::uint32_t, double>> per_origin_ns;
  std::vector<std::pair<std::uint32_t, double>> per_target_ns;

  [[nodiscard]] double interval_ns(Interval iv) const noexcept {
    return interval_sum_ns[static_cast<int>(iv)];
  }
  /// Origin execution time not covered by any measured component — the
  /// paper's "unaccounted" portion (Fig. 11): network flight plus the
  /// t11->t12 wait in the OFI queue before progress notices the response.
  [[nodiscard]] double unaccounted_ns() const noexcept;
};

struct ProfileSummary {
  std::vector<CallpathBreakdown> callpaths;  ///< sorted by cumulative desc
  double total_ns = 0;

  /// Global analysis over all per-process profiles.
  static ProfileSummary build(const std::vector<const ProfileStore*>& stores);

  /// Find a callpath whose formatted name leaf matches `leaf_name`.
  [[nodiscard]] const CallpathBreakdown* find_by_leaf(
      const std::string& leaf_name) const;

  /// Fig. 6-style report of the top `top_n` dominant callpaths.
  [[nodiscard]] std::string format(std::size_t top_n = 5) const;
};

// ---------------------------------------------------------------------------
// Trace summary
// ---------------------------------------------------------------------------

/// One RPC call stitched from its four trace events, clock-corrected.
struct Span {
  std::uint64_t request_id = 0;
  Breadcrumb breadcrumb = 0;
  std::uint32_t base_order = 0;
  std::uint32_t origin_ep = 0;
  std::uint32_t target_ep = 0;
  // Corrected (reference-frame) timestamps; 0 when the event is missing.
  sim::TimeNs origin_start = 0;  ///< t1
  sim::TimeNs target_start = 0;  ///< t5
  sim::TimeNs target_end = 0;    ///< t8
  sim::TimeNs origin_end = 0;    ///< t14
  // Metrics sampled at target_start (Fig. 10 plots blocked ULTs) and at
  // origin_end (Fig. 12 plots num_ofi_events_read).
  std::uint32_t target_blocked_ults = 0;
  float origin_ofi_events_read = 0;
  /// Index of the enclosing parent span in RequestTrace::spans, -1 for a
  /// root span. Resolved once in TraceSummary::build so export paths never
  /// re-scan the span list per span.
  std::int32_t parent = -1;

  [[nodiscard]] sim::DurationNs duration() const noexcept {
    return origin_end > origin_start ? origin_end - origin_start : 0;
  }
};

struct RequestTrace {
  std::uint64_t request_id = 0;
  std::vector<Span> spans;  ///< ordered by origin_start
};

struct TraceSummary {
  std::vector<RequestTrace> requests;  ///< ascending by request_id
  /// Estimated per-endpoint clock offsets (relative to the reference
  /// endpoint) recovered by the skew-correction pass.
  std::map<std::uint32_t, double> clock_offset_ns;
  std::size_t total_events = 0;
  std::size_t total_spans = 0;

  static TraceSummary build(const std::vector<const TraceStore*>& stores);

  /// Text Gantt rendering of one request (Fig. 5 equivalent).
  [[nodiscard]] std::string format_request(const RequestTrace& rt) const;

  /// Binary search of `requests`; nullptr when the id has no spans.
  [[nodiscard]] const RequestTrace* find(std::uint64_t request_id) const;
};

// ---------------------------------------------------------------------------
// System-statistics summary
// ---------------------------------------------------------------------------

struct SysStatsProcessSummary {
  std::string process;
  std::size_t samples = 0;
  double mean_rss_mb = 0;
  double max_rss_mb = 0;
  double mean_cpu = 0;
  double max_blocked = 0;
  double mean_blocked = 0;
  double max_cq_size = 0;
};

struct SysStatsSummary {
  std::vector<SysStatsProcessSummary> per_process;

  static SysStatsSummary build(
      const std::vector<std::pair<std::string, const SysStatStore*>>& stores);

  [[nodiscard]] std::string format() const;
};

}  // namespace sym::prof
