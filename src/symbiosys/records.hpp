// symbiosys/records.hpp
//
// Measurement records: callpath profiles (per-interval statistics keyed by
// breadcrumb + origin/target entity) and distributed trace events. These are
// the in-memory equivalents of the per-process profile/trace files that the
// paper's analysis scripts ingest.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "simkit/time.hpp"
#include "symbiosys/breadcrumb.hpp"
#include "symbiosys/chunked_buffer.hpp"
#include "symbiosys/flat_hash.hpp"

namespace sym::prof {

/// Instrumentation levels, matching the overhead-study stages (§VI-B):
///  kOff    — Baseline: instrumentation and measurement disabled.
///  kStage1 — metadata (breadcrumb / trace id) propagation only.
///  kStage2 — callpath profiling, tracing and system-statistic sampling,
///            but no Mercury PVAR collection.
///  kFull   — everything, PVARs integrated on the fly.
enum class Level : std::uint8_t { kOff, kStage1, kStage2, kFull };

[[nodiscard]] const char* to_string(Level l) noexcept;

/// Which end of the RPC recorded a measurement.
enum class Side : std::uint8_t { kOrigin, kTarget };

/// The intervals of the RPC execution model (paper Table III), plus the
/// origin-side response deserialization for completeness.
enum class Interval : std::uint8_t {
  kOriginExec,      ///< t1  -> t14  (ULT-local key)
  kInputSer,        ///< t2  -> t3   (Mercury PVAR)
  kInternalRdma,    ///< t3  -> t4   (Mercury PVAR)
  kHandlerWait,     ///< t4  -> t5   (ULT-local key: "target ULT handler time")
  kInputDeser,      ///< t6  -> t7   (Mercury PVAR)
  kTargetExec,      ///< t5  -> t8   (ULT-local key, exclusive)
  kOutputSer,       ///< t9  -> t10  (Mercury PVAR)
  kTargetCallback,  ///< t8  -> t13  (ULT-local key)
  kOriginCallback,  ///< t12 -> t14  (Mercury PVAR)
  kOutputDeser,     ///< origin-side response deserialization
  kCount,
};

[[nodiscard]] const char* to_string(Interval iv) noexcept;

/// Count / sum / min / max accumulator (nanosecond values).
struct IntervalStats {
  std::uint64_t count = 0;
  double sum_ns = 0;
  double min_ns = 0;
  double max_ns = 0;

  void add(double ns) noexcept {
    if (count == 0 || ns < min_ns) min_ns = ns;
    if (count == 0 || ns > max_ns) max_ns = ns;
    ++count;
    sum_ns += ns;
  }
  [[nodiscard]] double mean_ns() const noexcept {
    return count == 0 ? 0.0 : sum_ns / static_cast<double>(count);
  }
  void merge(const IntervalStats& o) noexcept {
    if (o.count == 0) return;
    if (count == 0 || o.min_ns < min_ns) min_ns = o.min_ns;
    if (count == 0 || o.max_ns > max_ns) max_ns = o.max_ns;
    count += o.count;
    sum_ns += o.sum_ns;
  }
};

/// Identifies one (callpath, side, self entity, peer entity) combination.
struct CallpathKey {
  Breadcrumb breadcrumb = 0;
  Side side = Side::kOrigin;
  std::uint32_t self_ep = 0;  ///< endpoint address of the recording entity
  std::uint32_t peer_ep = 0;  ///< endpoint address of the other end

  bool operator==(const CallpathKey&) const = default;
};

struct CallpathKeyHash {
  std::size_t operator()(const CallpathKey& k) const noexcept {
    // Each field is spread with its own odd multiplier before combining, so
    // no two fields can cancel in a shared bit range (the old scheme packed
    // `side` and shifted endpoint ids into overlapping low bits, which
    // degraded badly under power-of-two masking). One xor-shift-multiply
    // round avalanches the combined word so the low bits the table masks on
    // depend on every field; this runs on the record miss path, so it stays
    // at five multiplies total.
    std::uint64_t h = k.breadcrumb * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::uint64_t>(k.self_ep) * 0xC2B2AE3D27D4EB4FULL;
    h ^= static_cast<std::uint64_t>(k.peer_ep) * 0x165667B19E3779F9ULL;
    h ^= static_cast<std::uint64_t>(k.side) * 0x27D4EB2F165667C5ULL;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// One (interval, duration) measurement, for batched recording.
struct IntervalSample {
  Interval iv;
  double ns;
};

/// Per-callpath, per-interval statistics for one entity pair.
struct CallpathStats {
  IntervalStats intervals[static_cast<int>(Interval::kCount)];

  IntervalStats& at(Interval iv) noexcept {
    return intervals[static_cast<int>(iv)];
  }
  [[nodiscard]] const IntervalStats& at(Interval iv) const noexcept {
    return intervals[static_cast<int>(iv)];
  }
};

/// The per-process callpath profile (one per margolite instance).
///
/// The store sits on the measurement hot path — every instrumented RPC
/// records 1-6 intervals — so it is built on the open-addressing
/// FlatHashMap plus a small direct-mapped memo of recently touched
/// callpaths. A handler records up to five intervals back to back on one
/// key, clients replay the same RPC in tight loops, and a provider's
/// execution stream interleaves a handful of client callpaths — all
/// regimes the memo captures, so the common case is a cheap slot index, a
/// key compare, and an IntervalStats::add with no probe at all.
class ProfileStore {
 public:
  using Map = FlatHashMap<CallpathKey, CallpathStats, CallpathKeyHash>;

  void record(const CallpathKey& key, Interval iv, double ns) {
    stats_for(key).at(iv).add(ns);
  }

  /// Record several intervals for one key with a single lookup. This is the
  /// shape of the instrumentation hot path — a completion callback records
  /// up to five intervals back to back on one callpath — and the unrolled
  /// adds cost roughly one memo-checked record() for the whole batch.
  template <typename... Samples>
  void record_batch(const CallpathKey& key, Samples... samples) {
    CallpathStats& s = stats_for(key);
    (s.at(samples.iv).add(samples.ns), ...);
  }

  /// Merge pre-aggregated statistics (used by the CSV importer and by
  /// cross-process consolidation).
  void merge_entry(const CallpathKey& key, Interval iv,
                   const IntervalStats& stats) {
    stats_for(key).at(iv).merge(stats);
  }

  [[nodiscard]] const Map& entries() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  void clear() {
    data_.clear();
    for (auto& p : memo_vals_) p = nullptr;
  }

 private:
  /// Direct-mapped memo capacity. 32 slots cover a provider ES serving a
  /// few dozen interleaved client callpaths; a larger working set degrades
  /// gracefully to the probe path (the memo is a cache, never authoritative).
  static constexpr std::size_t kMemoBits = 5;
  static constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;

  static std::size_t memo_slot(const CallpathKey& key) noexcept {
    // One multiply over the xor-folded key; top bits index the memo.
    const std::uint64_t w =
        key.breadcrumb ^ (static_cast<std::uint64_t>(key.self_ep) << 32) ^
        key.peer_ep ^ (static_cast<std::uint64_t>(key.side) << 16);
    return static_cast<std::size_t>((w * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - kMemoBits));
  }

  CallpathStats& stats_for(const CallpathKey& key) {
    // Hit path: slot index, null check, key compare — no probe, no full
    // hash. The miss path lives out of line (records.cpp) so this stays
    // small enough to inline into every record()/record_batch() call site.
    const std::size_t i = memo_slot(key);
    if (memo_vals_[i] != nullptr && memo_keys_[i] == key) {
      return *memo_vals_[i];
    }
    return stats_for_slow(key, i);
  }

  /// Probe/insert plus memo re-publication. Memo entries can dangle only
  /// across a rehash, and a rehash can only happen inside the
  /// find_or_insert here, which flushes the whole memo (generation test)
  /// before re-publishing the slot it returned. clear() nulls every slot.
  CallpathStats& stats_for_slow(const CallpathKey& key, std::size_t slot);

  Map data_;
  CallpathKey memo_keys_[kMemoSlots]{};
  CallpathStats* memo_vals_[kMemoSlots]{};
  std::uint64_t memo_generation_ = 0;
};

/// Trace event kinds: t1/t14 on the origin, t5/t8 on the target (§IV-A2).
enum class TraceEventKind : std::uint8_t {
  kOriginStart,  ///< t1
  kOriginEnd,    ///< t14
  kTargetStart,  ///< t5
  kTargetEnd,    ///< t8
};

[[nodiscard]] const char* to_string(TraceEventKind k) noexcept;

/// One trace record. Every event carries the request metadata plus sampled
/// performance data from the RPC library (PVARs), the tasking layer
/// (blocked/runnable ULTs), and the OS (memory, CPU).
struct TraceEvent {
  std::uint64_t request_id = 0;
  std::uint32_t order = 0;
  TraceEventKind kind{};
  Breadcrumb breadcrumb = 0;
  std::uint32_t self_ep = 0;
  std::uint32_t peer_ep = 0;
  sim::TimeNs local_ts = 0;  ///< node-local wall clock (skewed!)
  std::uint64_t lamport = 0;

  // Sampled metrics (Stage 2).
  std::uint32_t blocked_ults = 0;
  std::uint32_t runnable_ults = 0;
  std::uint64_t rss_bytes = 0;
  float cpu_util = 0;

  // Sampled PVARs (Full only).
  float completion_queue_size = 0;
  float num_ofi_events_read = 0;
  float num_posted_handles = 0;
};

/// Synthesize the four trace events of a self-contained **action span** —
/// the record of one adaptation action taken by the in-stack controller
/// (margolite's PolicyEngine). The span's origin and target are the acting
/// process itself; it stitches through TraceSummary, renders in
/// format_request, and exports to Zipkin exactly like an RPC span, so
/// adaptation is observable in the same traces it reacts to. The action
/// name must be registered with NameRegistry (breadcrumb = hash16(name)).
///
/// `start_ts`/`end_ts` are node-local timestamps of detection and
/// application; `lamport_base` numbers the four events `+1..+4`.
[[nodiscard]] std::array<TraceEvent, 4> make_action_span(
    std::uint64_t request_id, Breadcrumb breadcrumb, std::uint32_t self_ep,
    sim::TimeNs start_ts, sim::TimeNs end_ts, std::uint64_t lamport_base);

/// The per-process trace buffer: a chunked arena, so appending an event in
/// the middle of a measured workload never triggers a full-buffer
/// reallocation spike. set_ring_chunks() bounds memory for always-on runs
/// (flight-recorder mode: oldest events are dropped, dropped() counts them).
class TraceStore {
 public:
  using Buffer = ChunkedBuffer<TraceEvent, 1024>;

  void append(const TraceEvent& ev) { events_.push_back(ev); }
  [[nodiscard]] const Buffer& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return events_.dropped();
  }
  /// Bound the buffer to `max_chunks` chunks of 1024 events (0 = unbounded).
  void set_ring_chunks(std::size_t max_chunks) noexcept {
    events_.set_ring_chunks(max_chunks);
  }
  void clear() { events_.clear(); }

 private:
  Buffer events_;
};

/// Periodic system-statistics sample (one row per sampling tick): OS-level
/// and tasking-level gauges decoupled from any particular request.
struct SysStat {
  sim::TimeNs local_ts = 0;
  std::uint64_t rss_bytes = 0;
  float cpu_util = 0;
  std::uint32_t blocked_ults = 0;
  std::uint32_t runnable_ults = 0;
  float completion_queue_size = 0;
  float num_posted_handles = 0;
};

/// Per-process system-statistics buffer, filled by margolite's sampler ULT.
/// Chunked like TraceStore: the sampler appends one row per tick forever,
/// so the buffer must neither reallocate nor grow unbounded in ring mode.
class SysStatStore {
 public:
  using Buffer = ChunkedBuffer<SysStat, 512>;

  void append(const SysStat& s) { samples_.push_back(s); }
  [[nodiscard]] const Buffer& samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return samples_.dropped();
  }
  /// Bound the buffer to `max_chunks` chunks of 512 samples (0 = unbounded).
  void set_ring_chunks(std::size_t max_chunks) noexcept {
    samples_.set_ring_chunks(max_chunks);
  }
  void clear() { samples_.clear(); }

 private:
  Buffer samples_;
};

}  // namespace sym::prof
