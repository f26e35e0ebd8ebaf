// cache_fairness_study: placement A/B and multi-tenant fairness study of
// the blockcache tier (src/services/blockcache), the bbThemis/ThemisIO
// scenario pair the cache exists to reproduce.
//
// Scenario 1 "seq-readers" — placement A/B. Streaming readers run against
// hash vs. locality-aligned placement. Aligned placement keeps stripe-long
// runs of consecutive blocks on one server, so the server's sequential-miss
// readahead batches whole runs into single large backend reads (bbThemis's
// OST-alignment effect); hash placement scatters adjacent blocks and every
// miss pays its own backend round trip. Acceptance: aligned issues at most
// half the backend reads and finishes strictly earlier.
//
// Scenario 2 "two-tenant-contention" — fairness A/B/C. A wide job (4
// clients) and a narrow job (1 client) stream through one cache server
// whose device bandwidth is throttled so the server is the contended
// resource. Under FIFO the wide job captures a queue-proportional share and
// the delivered byte-rates gap apart; size-fair equalizes byte-rates
// regardless of width; job-fair grants width-weighted shares. Acceptance:
// the size-fair rate gap is smaller than the FIFO gap.
//
// Every cell is run at several worker counts and the full measurement
// digest (zipkin trace export + dominant-callpath table + events_processed
// + final virtual time) must be bit-identical — the study doubles as a
// determinism check over the cache tier; any divergence fails the bench.
// At the first worker count each cell runs Study::reps() times
// (bench/common.hpp): the digest and counters come from repetition 1 and
// must repeat exactly, wall time is the median with min and max.
//
// Results land in BENCH_cache.json (override with --out PATH). --smoke
// shrinks volumes and the worker sweep for CI.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/cache_world.hpp"

using namespace bench;

namespace {

namespace bc = sym::blockcache;
using sym::workloads::CachePattern;
using sym::workloads::CacheWorld;
using sym::workloads::TenantSpec;

struct Digest {
  std::string zipkin;
  std::string profile;
  std::uint64_t events_processed = 0;
  sim::TimeNs final_now = 0;

  bool operator==(const Digest&) const = default;
};

/// The deterministic outputs of one run: its digest and the cell counters.
struct Outcome {
  Digest digest;
  double virtual_ms = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t backend_read_bytes = 0;
  double hit_ratio = 0;
  std::uint64_t writeback_ops = 0;
  std::uint64_t evictions = 0;
  // Fairness cells: delivered byte-rate per tenant.
  double rate_wide = 0;
  double rate_narrow = 0;
  std::string dominant_callpath;

  bool operator==(const Outcome&) const = default;

  /// Relative gap between the two tenants' byte-rates.
  [[nodiscard]] double rate_gap() const {
    const double hi = std::max(rate_wide, rate_narrow);
    const double lo = std::min(rate_wide, rate_narrow);
    return hi > 0 ? (hi - lo) / hi : 0.0;
  }
};

struct Cell {
  Measured<Outcome> m;
  bool deterministic = true;  ///< digests identical at every worker count
};

/// Scenario 1: streaming readers, 4 cache servers, stripe-long readahead.
CacheWorld::Params seq_reader_params(bc::Placement placement, bool smoke) {
  CacheWorld::Params p;
  p.cache_servers = 4;
  p.placement = placement;
  p.stripe_blocks = 16;
  p.cache.readahead_blocks = 16;
  p.cache.policy = bc::SchedPolicy::kSizeFair;
  p.cache.flush_period = 0;  // read-only scenario: no flusher
  TenantSpec t;
  t.width = 2;
  t.blocks_per_client = smoke ? 32 : 64;
  t.passes = 2;
  t.pattern = CachePattern::kSeqRead;
  p.tenants = {t, t};
  p.exec.lane_count = 0;  // one lane per node
  return p;
}

/// Scenario 2: wide vs. narrow tenant contending for one throttled server.
CacheWorld::Params contention_params(bc::SchedPolicy policy, bool smoke) {
  CacheWorld::Params p;
  p.cache_servers = 1;
  p.cache.policy = policy;
  p.cache.capacity_blocks = 320;  // both working sets stay resident
  // Throttle the cache device so per-block service (~262 us) dominates the
  // client RPC round trip and the dispatcher's policy decides the rates.
  p.cache.service_bw_bytes_per_ns = 0.25;
  TenantSpec wide;  // 4 client processes
  wide.width = 4;
  wide.blocks_per_client = smoke ? 16 : 32;
  wide.passes = smoke ? 4 : 8;
  wide.pattern = CachePattern::kSeqRead;
  TenantSpec narrow = wide;  // same total blocks through 1 client
  narrow.width = 1;
  narrow.blocks_per_client = 4 * wide.blocks_per_client;
  p.tenants = {wide, narrow};
  p.exec.lane_count = 0;
  return p;
}

/// Run one configuration once; the stopwatch times world.run().
Outcome run_once(const CacheWorld::Params& params, std::uint32_t workers,
                 Stopwatch& sw) {
  CacheWorld::Params p = params;
  p.exec.worker_count = workers;
  CacheWorld world(p);
  sw.start();
  world.run();
  sw.stop();

  Outcome o;
  o.digest.zipkin =
      prof::to_zipkin_json(prof::TraceSummary::build(world.all_traces()));
  const auto summary = prof::ProfileSummary::build(world.all_profiles());
  o.digest.profile = summary.format(10);
  o.digest.events_processed = world.engine().events_processed();
  o.digest.final_now = world.engine().now();
  o.virtual_ms = sim::to_millis(world.makespan());
  o.backend_reads = world.total_backend_reads();
  o.backend_read_bytes = world.total_backend_read_bytes();
  const auto total = world.total_hits() + world.total_misses();
  o.hit_ratio = total == 0 ? 0.0
                           : static_cast<double>(world.total_hits()) /
                                 static_cast<double>(total);
  o.writeback_ops = world.total_writeback_ops();
  o.evictions = world.total_evictions();
  o.rate_wide = world.tenant_byte_rate(0);
  o.rate_narrow = world.tenant_byte_rate(1);
  if (!summary.callpaths.empty()) {
    o.dominant_callpath = summary.callpaths.front().name;
  }
  return o;
}

/// Measure a cell at the first worker count, then assert digest
/// bit-identity at every other worker count.
Cell run_cell(Study& study, const char* scenario,
              const CacheWorld::Params& params,
              const std::vector<std::uint32_t>& workers) {
  const char* placement = bc::to_string(params.placement);
  const char* policy = bc::to_string(params.cache.policy);
  Cell c;
  c.m = study.measure(
      [&](Stopwatch& sw) { return run_once(params, workers.front(), sw); });
  const Outcome& o = c.m.result;
  std::printf("-- dominant callpaths [%s / %s / %s] --\n%s\n", scenario,
              placement, policy, o.digest.profile.c_str());
  for (std::size_t i = 1; i < workers.size(); ++i) {
    Stopwatch unused;
    if (!(run_once(params, workers[i], unused).digest == o.digest)) {
      c.deterministic = false;
      std::printf("!! digest mismatch at workers=%u (%s/%s/%s)\n",
                  workers[i], scenario, placement, policy);
    }
  }
  std::printf("cell %-22s placement %-7s policy %-9s  virtual %9.3f ms  "
              "wall %.2f ms [%.2f-%.2f]  backend reads %5llu  hit %.3f  "
              "gap %.3f  digests[x%zu] %s\n\n",
              scenario, placement, policy, o.virtual_ms, c.m.wall.median_ms,
              c.m.wall.min_ms, c.m.wall.max_ms,
              static_cast<unsigned long long>(o.backend_reads), o.hit_ratio,
              o.rate_gap(), workers.size(),
              c.deterministic ? "PASS" : "FAIL");
  study.row("cells")
      .text("scenario", scenario)
      .text("placement", placement)
      .text("policy", policy)
      .count("workers_checked", workers.size())
      .flag("deterministic", c.deterministic)
      .real("virtual_ms", o.virtual_ms, 6)
      .measured(c.m)
      .count("backend_reads", o.backend_reads)
      .count("backend_read_bytes", o.backend_read_bytes)
      .real("hit_ratio", o.hit_ratio, 4)
      .count("writeback_ops", o.writeback_ops)
      .count("evictions", o.evictions)
      .count("events_processed", o.digest.events_processed)
      .real("rate_wide_bps", o.rate_wide, 0)
      .real("rate_narrow_bps", o.rate_narrow, 0)
      .real("rate_gap", o.rate_gap(), 4)
      .text("dominant_callpath", o.dominant_callpath);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Study study("cache_fairness_study", "BENCH_cache.json", argc, argv);
  const bool smoke = study.smoke();

  print_header("Blockcache placement & fair-share scheduling study",
               "bbThemis OST-alignment / ThemisIO fair-share scenarios");

  const std::vector<std::uint32_t> workers =
      smoke ? std::vector<std::uint32_t>{1, 2}
            : std::vector<std::uint32_t>{1, 2, 4};

  // Scenario 1: placement A/B under streaming readers.
  const Cell hash =
      run_cell(study, "seq-readers",
               seq_reader_params(bc::Placement::kHash, smoke), workers);
  const Cell aligned = run_cell(
      study, "seq-readers",
      seq_reader_params(bc::Placement::kLocalityAligned, smoke), workers);
  bool deterministic = hash.deterministic && aligned.deterministic;

  // Scenario 2: fairness policies under two-tenant contention.
  double fifo_gap = 0, size_fair_gap = 0;
  for (const auto policy : {bc::SchedPolicy::kFifo, bc::SchedPolicy::kSizeFair,
                            bc::SchedPolicy::kJobFair}) {
    const Cell c = run_cell(study, "two-tenant-contention",
                            contention_params(policy, smoke), workers);
    if (policy == bc::SchedPolicy::kFifo) fifo_gap = c.m.result.rate_gap();
    if (policy == bc::SchedPolicy::kSizeFair) {
      size_fair_gap = c.m.result.rate_gap();
    }
    deterministic = deterministic && c.deterministic;
  }

  study.gate("determinism", deterministic,
             "digests identical across worker counts at every cell");

  const Outcome& h = hash.m.result;
  const Outcome& a = aligned.m.result;
  const double read_ratio =
      a.backend_reads > 0 ? static_cast<double>(h.backend_reads) /
                                static_cast<double>(a.backend_reads)
                          : 0.0;
  study.gate("placement", read_ratio >= 2.0 && a.virtual_ms < h.virtual_ms,
             "aligned placement batches backend reads (%llu -> %llu, x%.1f "
             "fewer) and finishes earlier (%.3f ms vs %.3f ms)",
             static_cast<unsigned long long>(h.backend_reads),
             static_cast<unsigned long long>(a.backend_reads), read_ratio,
             a.virtual_ms, h.virtual_ms);
  study.gate("fairness", size_fair_gap < fifo_gap,
             "size-fair narrows the tenant byte-rate gap vs FIFO (%.3f -> "
             "%.3f)",
             fifo_gap, size_fair_gap);
  return study.finish();
}
