// Tests for the blockcache tier: placement purity, fair-share scheduler
// policies, hit/miss/eviction accounting, sequential-miss readahead,
// write-back coalescing (the backend must see few large writes and
// read-your-writes must survive eviction + refetch), the size-fair
// byte-rate property across unequal tenant jobs, the PolicyEngine
// capacity actuator, and digest bit-identity at 1/2/4/8 workers with the
// cache tier in the loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "services/blockcache/blockcache.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/cache_world.hpp"

namespace sim = sym::sim;
namespace prof = sym::prof;
namespace bc = sym::blockcache;
using sym::workloads::CachePattern;
using sym::workloads::CacheWorld;
using sym::workloads::TenantSpec;

namespace {

constexpr std::uint32_t kBs = 64 * 1024;

CacheWorld::Params base_params() {
  CacheWorld::Params p;
  p.cache_servers = 1;
  p.cache.block_bytes = kBs;
  p.cache.readahead_blocks = 1;
  p.cache.flush_period = 0;  // no periodic flusher: deterministic op counts
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Placement (pure function)
// ---------------------------------------------------------------------------

TEST(Placement, AlignedKeepsStripeRunsOnOneServer) {
  for (std::uint32_t b = 0; b < 64; ++b) {
    const auto s = bc::server_for(bc::Placement::kLocalityAligned,
                                  {7, b}, 4, 8);
    EXPECT_EQ(s, bc::server_for(bc::Placement::kLocalityAligned,
                                {7, (b / 8) * 8}, 4, 8));
    EXPECT_LT(s, 4u);
  }
  // Adjacent stripes rotate to different servers.
  EXPECT_NE(bc::server_for(bc::Placement::kLocalityAligned, {7, 0}, 4, 8),
            bc::server_for(bc::Placement::kLocalityAligned, {7, 8}, 4, 8));
}

TEST(Placement, HashScattersAdjacentBlocks) {
  std::set<std::uint32_t> servers;
  for (std::uint32_t b = 0; b < 16; ++b) {
    servers.insert(bc::server_for(bc::Placement::kHash, {7, b}, 4));
  }
  // A sequential run must not collapse onto one server under hashing.
  EXPECT_GT(servers.size(), 1u);
  // Pure function: same key, same answer.
  EXPECT_EQ(bc::server_for(bc::Placement::kHash, {7, 3}, 4),
            bc::server_for(bc::Placement::kHash, {7, 3}, 4));
}

// ---------------------------------------------------------------------------
// FairScheduler (header-only, no sim)
// ---------------------------------------------------------------------------

TEST(FairScheduler, FifoServesArrivalOrder) {
  bc::FairScheduler<int> s(bc::SchedPolicy::kFifo);
  s.enqueue(0, 1, 100, 1);
  s.enqueue(1, 1, 100, 2);
  s.enqueue(0, 1, 100, 3);
  EXPECT_EQ(s.pop_next(), 1);
  EXPECT_EQ(s.pop_next(), 2);
  EXPECT_EQ(s.pop_next(), 3);
  EXPECT_FALSE(s.pop_next().has_value());
}

TEST(FairScheduler, SizeFairServesLeastServedTenant) {
  bc::FairScheduler<int> s(bc::SchedPolicy::kSizeFair);
  // Tenant 0 floods; tenant 1 has one request. Serve 0 once, then 1 must be
  // preferred (fewer bytes served), then 0 drains.
  s.enqueue(0, 1, 100, 10);
  s.enqueue(0, 1, 100, 11);
  s.enqueue(0, 1, 100, 12);
  EXPECT_EQ(s.pop_next(), 10);
  s.enqueue(1, 1, 100, 20);
  EXPECT_EQ(s.pop_next(), 20);
  EXPECT_EQ(s.pop_next(), 11);
  EXPECT_EQ(s.bytes_served(0), 200u);
  EXPECT_EQ(s.bytes_served(1), 100u);
}

TEST(FairScheduler, JobFairWeightsByDeclaredWidth) {
  bc::FairScheduler<int> s(bc::SchedPolicy::kJobFair);
  // Tenant 0 has weight 2: after serving it twice (200 bytes, 100/weight)
  // and tenant 1 once (100 bytes, 100/weight), the normalized shares tie
  // and the older head wins.
  s.enqueue(0, 2, 100, 10);
  s.enqueue(0, 2, 100, 11);
  s.enqueue(0, 2, 100, 12);
  s.enqueue(1, 1, 100, 20);
  EXPECT_EQ(s.pop_next(), 10);   // 0: 100*1 < 1: 0*2 is false... both 0, older
  EXPECT_EQ(s.pop_next(), 20);   // 0 at 100/2, 1 at 0
  EXPECT_EQ(s.pop_next(), 11);   // 0 at 100/2 vs 1 at 100/1
  EXPECT_EQ(s.pop_next(), 12);   // 0 at 200/2 == 1 at 100/1, older head
}

TEST(FairScheduler, IdleCreditIsBoundedByWindow) {
  bc::FairScheduler<int> s(bc::SchedPolicy::kSizeFair);
  s.set_credit_window(150);
  s.enqueue(0, 1, 100, 1);
  for (int i = 0; i < 10; ++i) {
    (void)s.pop_next();
    s.enqueue(0, 1, 100, 1);
  }
  EXPECT_EQ(s.bytes_served(0), 1000u);
  // Tenant 1 arrives late: its counter is clamped to active_min - window,
  // not to zero (which would let it monopolize) and not to active_min
  // (which would erase fairness).
  s.enqueue(1, 1, 100, 2);
  EXPECT_EQ(s.bytes_served(1), 850u);
}

// ---------------------------------------------------------------------------
// Cache behavior through full deployments
// ---------------------------------------------------------------------------

TEST(Blockcache, ColdMissesThenHitsOnSecondPass) {
  auto p = base_params();
  p.cache.capacity_blocks = 32;
  p.tenants = {TenantSpec{.width = 1,
                          .blocks_per_client = 16,
                          .passes = 2,
                          .pattern = CachePattern::kSeqRead}};
  CacheWorld world(p);
  world.run();
  EXPECT_EQ(world.total_misses(), 16u);
  EXPECT_EQ(world.total_hits(), 16u);
  EXPECT_EQ(world.total_evictions(), 0u);
  EXPECT_EQ(world.cache_provider(0).occupancy_blocks(), 16u);
  EXPECT_DOUBLE_EQ(world.cache_provider(0).hit_ratio(), 0.5);
}

TEST(Blockcache, EvictionBoundsOccupancyAtCapacity) {
  auto p = base_params();
  p.cache.capacity_blocks = 8;
  p.tenants = {TenantSpec{.width = 1,
                          .blocks_per_client = 16,
                          .passes = 1,
                          .pattern = CachePattern::kSeqRead}};
  CacheWorld world(p);
  world.run();
  EXPECT_EQ(world.total_misses(), 16u);
  EXPECT_EQ(world.total_evictions(), 8u);
  EXPECT_EQ(world.cache_provider(0).occupancy_blocks(), 8u);
}

TEST(Blockcache, SequentialMissRunsTriggerReadahead) {
  auto p = base_params();
  p.cache.capacity_blocks = 64;
  p.cache.readahead_blocks = 8;
  p.tenants = {TenantSpec{.width = 1,
                          .blocks_per_client = 17,
                          .passes = 1,
                          .pattern = CachePattern::kSeqRead}};
  CacheWorld world(p);
  world.run();
  // Block 0 misses alone; block 1 starts a sequential run and fetches 8
  // (1..8); blocks 2..8 hit; block 9 fetches 9..16; blocks 10..16 hit.
  EXPECT_EQ(world.total_backend_reads(), 3u);
  EXPECT_EQ(world.total_misses(), 3u);
  EXPECT_EQ(world.total_hits(), 14u);
}

TEST(Blockcache, WritebackCoalescesSmallWritesIntoOneBackendWrite) {
  auto p = base_params();
  p.cache.capacity_blocks = 32;
  p.cache.writeback_watermark = 64;  // only the explicit flush writes back
  p.tenants = {TenantSpec{.width = 1,
                          .blocks_per_client = 16,
                          .passes = 1,
                          .pattern = CachePattern::kSeqWrite,
                          .write_op_blocks = 1}};
  CacheWorld world(p);
  world.run();
  // 16 single-block client writes; the flush coalesces the dirty run into
  // ONE backend write of 16 blocks.
  EXPECT_EQ(world.cache_provider(0).write_ops(), 16u);
  EXPECT_EQ(world.total_writeback_ops(), 1u);
  EXPECT_EQ(world.total_writeback_bytes(), 16ull * kBs);
  EXPECT_EQ(world.cache_provider(0).dirty_blocks(), 0u);

  // The backend region holds exactly what the tenant wrote.
  const auto rid = world.cache_provider(0).backend_region(0);
  ASSERT_NE(rid, 0u);
  const auto* region = world.backend_provider().region(rid);
  ASSERT_NE(region, nullptr);
  ASSERT_EQ(region->data.size(), 16ull * kBs);
  for (const auto b : region->data) {
    ASSERT_EQ(b, std::byte{1});
  }
}

TEST(Blockcache, ReadYourWritesSurvivesEvictionAndRefetch) {
  auto p = base_params();
  p.cache.capacity_blocks = 4;  // force dirty eviction + backend refetch
  p.tenants = {TenantSpec{.width = 2,
                          .blocks_per_client = 16,
                          .passes = 2,
                          .pattern = CachePattern::kWriteThenRead,
                          .write_op_blocks = 2}};
  CacheWorld world(p);
  world.run();
  EXPECT_EQ(world.data_mismatches(), 0u);
  EXPECT_GT(world.total_evictions(), 0u);
  EXPECT_GT(world.total_backend_reads(), 0u);
}

// ---------------------------------------------------------------------------
// Fair-share property (the ThemisIO size-fair claim)
// ---------------------------------------------------------------------------

namespace {

/// Two tenant jobs with equal total demand but 4x different widths, sharing
/// one cache server. Returns the relative byte-rate gap between them.
/// The cache device is slowed so per-block service time dominates each
/// client's request round-trip: the server is then the contended resource
/// and the scheduler's policy decides the delivered rates (with a fast
/// device a single narrow client is think-time-limited and cannot consume
/// the share any policy would grant it).
double rate_gap_under(bc::SchedPolicy policy) {
  auto p = base_params();
  p.cache.capacity_blocks = 320;
  p.cache.policy = policy;
  p.cache.service_bw_bytes_per_ns = 0.25;
  p.tenants = {TenantSpec{.width = 4,
                          .blocks_per_client = 32,
                          .passes = 8,
                          .pattern = CachePattern::kSeqRead},
               TenantSpec{.width = 1,
                          .blocks_per_client = 128,
                          .passes = 8,
                          .pattern = CachePattern::kSeqRead}};
  CacheWorld world(p);
  world.run();
  const double wide = world.tenant_byte_rate(0);
  const double narrow = world.tenant_byte_rate(1);
  return (wide > narrow ? wide - narrow : narrow - wide) /
         (wide > narrow ? wide : narrow);
}

}  // namespace

TEST(Blockcache, SizeFairEqualizesByteRatesAcrossUnequalWidths) {
  const double fair_gap = rate_gap_under(bc::SchedPolicy::kSizeFair);
  EXPECT_LT(fair_gap, 0.05);  // the ISSUE's 5% property
}

TEST(Blockcache, FifoFavorsTheWideJob) {
  const double fifo_gap = rate_gap_under(bc::SchedPolicy::kFifo);
  const double fair_gap = rate_gap_under(bc::SchedPolicy::kSizeFair);
  EXPECT_GT(fifo_gap, 0.15);
  EXPECT_GT(fifo_gap, fair_gap);
}

// ---------------------------------------------------------------------------
// PolicyEngine actuator surface
// ---------------------------------------------------------------------------

TEST(Blockcache, CapacityAutoscaleGrowsAThrashingCache) {
  auto p = base_params();
  p.cache.capacity_blocks = 8;
  p.autoscale = true;
  p.tenants = {TenantSpec{.width = 1,
                          .blocks_per_client = 64,
                          .passes = 3,
                          .pattern = CachePattern::kSeqRead}};
  CacheWorld world(p);
  world.run();
  // Streaming over 64 blocks with an 8-block cache thrashes; the policy
  // rule writes the bc_capacity_blocks PVAR and the dispatcher applies it.
  EXPECT_GT(world.cache_provider(0).capacity_blocks(), 8u);
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical digests for any worker count
// ---------------------------------------------------------------------------

namespace {

struct WorkloadDigest {
  std::string zipkin;
  std::string profile;
  std::uint64_t events_processed = 0;
  sim::TimeNs final_now = 0;

  bool operator==(const WorkloadDigest&) const = default;
};

WorkloadDigest run_cache_world(std::uint32_t workers) {
  auto p = base_params();
  p.cache_servers = 2;
  p.cache.capacity_blocks = 16;
  p.cache.readahead_blocks = 4;
  p.cache.policy = bc::SchedPolicy::kSizeFair;
  p.cache.flush_period = sim::msec(2);  // periodic flusher in the loop too
  p.placement = bc::Placement::kLocalityAligned;
  p.tenants = {TenantSpec{.width = 2,
                          .blocks_per_client = 12,
                          .passes = 2,
                          .pattern = CachePattern::kWriteThenRead,
                          .write_op_blocks = 2},
               TenantSpec{.width = 1,
                          .blocks_per_client = 16,
                          .passes = 1,
                          .pattern = CachePattern::kSeqRead}};
  p.exec.lane_count = 0;  // one lane per simulated node
  p.exec.worker_count = workers;
  CacheWorld world(p);
  world.run();
  EXPECT_EQ(world.data_mismatches(), 0u) << "workers=" << workers;

  WorkloadDigest d;
  d.zipkin =
      prof::to_zipkin_json(prof::TraceSummary::build(world.all_traces()));
  d.profile = prof::ProfileSummary::build(world.all_profiles()).format(10);
  d.events_processed = world.engine().events_processed();
  d.final_now = world.engine().now();
  return d;
}

}  // namespace

TEST(Blockcache, DigestBitIdenticalAtAnyWorkerCount) {
  const WorkloadDigest baseline = run_cache_world(1);
  EXPECT_GT(baseline.events_processed, 0u);
  EXPECT_FALSE(baseline.zipkin.empty());
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    const WorkloadDigest got = run_cache_world(workers);
    EXPECT_EQ(got.zipkin, baseline.zipkin) << "workers=" << workers;
    EXPECT_EQ(got.profile, baseline.profile) << "workers=" << workers;
    EXPECT_EQ(got.events_processed, baseline.events_processed)
        << "workers=" << workers;
    EXPECT_EQ(got.final_now, baseline.final_now) << "workers=" << workers;
  }
}

