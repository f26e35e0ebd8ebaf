// Determinism tests for the sharded (multi-lane) engine: the safe-window
// protocol must produce bit-identical simulations for every worker count,
// both at the raw engine level and through full workloads (Mobject and
// HEPnOS) compared via their Zipkin trace export, consolidated profile and
// event counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/mobject_world.hpp"

namespace sim = sym::sim;
namespace prof = sym::prof;
using sym::workloads::HepnosWorld;
using sym::workloads::MobjectWorld;

namespace {

const std::uint32_t kWorkerCounts[] = {1, 2, 4, 8};

/// Engine-only tests run without a Cluster, so each sets the lookahead
/// itself: kHop, the Cluster's default inter-node latency.
constexpr sim::DurationNs kHop = sim::usec(2);

sim::EngineConfig sharded(std::uint32_t lanes, std::uint32_t workers) {
  sim::EngineConfig cfg;
  cfg.lane_count = lanes;
  cfg.worker_count = workers;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine-level lane semantics
// ---------------------------------------------------------------------------

TEST(ParallelEngine, SingleLaneConfigIsClassic) {
  sim::Engine eng(7, sim::EngineConfig{});
  EXPECT_FALSE(eng.parallel());
  EXPECT_EQ(eng.lane_count(), 1u);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) eng.at(5, [&order, i] { order.push_back(i); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelEngine, WorkerCountClampsToLaneCount) {
  sim::Engine eng(7, sharded(2, 8));
  EXPECT_EQ(eng.lane_count(), 2u);
  EXPECT_EQ(eng.worker_count(), 2u);
}

TEST(ParallelEngine, EventsRunOnTheirLaneClock) {
  sim::Engine eng(7, sharded(3, 1));
  eng.set_lookahead(kHop);
  std::vector<sim::TimeNs> seen(3, 0);
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    eng.at_on(lane, 100 * (lane + 1),
              [&eng, &seen, lane] { seen[lane] = eng.now(); });
  }
  eng.run();
  EXPECT_EQ(seen, (std::vector<sim::TimeNs>{100, 200, 300}));
  EXPECT_EQ(eng.events_processed(), 3u);
}

TEST(ParallelEngine, CrossLanePostFromInsideALaneIsNotCancellable) {
  sim::Engine eng(7, sharded(2, 1));
  eng.set_lookahead(kHop);
  sim::Engine::EventId cross = 1;
  bool ran = false;
  eng.at_on(0, 10, [&] {
    cross = eng.at_on(1, 10 + eng.lookahead(), [&ran] { ran = true; });
  });
  eng.run();
  EXPECT_EQ(cross, 0u);  // mailbox route: no cancellable id
  EXPECT_TRUE(ran);
}

TEST(ParallelEngine, CancelWorksOnOwnLane) {
  sim::Engine eng(7, sharded(2, 1));
  eng.set_lookahead(kHop);
  bool ran = false;
  const auto id = eng.at_on(1, 50, [&ran] { ran = true; });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(eng.cancel(id));
}

// Cross-lane selection: step() runs the earliest live event of any lane,
// ties going to the lowest lane index and cancelled heads skipped, and the
// window loop opens each window at the earliest pending event.
TEST(ParallelEngine, StepPicksEarliestLaneAndWindowsStartThere) {
  const auto schedule = [](sim::Engine& eng, std::vector<std::uint32_t>& ran) {
    const auto on = [&eng, &ran](std::uint32_t lane, sim::TimeNs t) {
      return eng.at_on(lane, t, [&ran, lane] { ran.push_back(lane); });
    };
    on(2, 100);
    on(3, 200);
    on(1, 200);
    on(0, 300);
    EXPECT_TRUE(eng.cancel(on(1, 50)));
  };

  sim::Engine stepped(7, sharded(4, 1));
  stepped.set_lookahead(100);
  std::vector<std::uint32_t> ran;
  schedule(stepped, ran);
  while (stepped.step()) {
  }
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{2, 1, 3, 0}));
  EXPECT_FALSE(stepped.step());

  sim::Engine windowed(7, sharded(4, 1));
  windowed.set_lookahead(100);
  std::vector<std::uint32_t> ran_windowed;
  schedule(windowed, ran_windowed);
  windowed.run();
  EXPECT_EQ(windowed.windows_executed(), 3u);
  EXPECT_EQ(ran_windowed.size(), 4u);
}

// Ping-pong across two lanes: per-lane execution logs must be identical for
// every worker count. Each lane only appends to its own log, so the logs
// are race-free even when lanes execute on different worker threads.
TEST(ParallelEngine, MailboxMergeIsWorkerCountInvariant) {
  auto run_with = [](std::uint32_t workers) {
    sim::Engine eng(99, sharded(2, workers));
    eng.set_lookahead(kHop);
    const auto hop = eng.lookahead();
    std::vector<std::vector<std::uint64_t>> log(2);
    // Two independent ping-pong chains plus same-window local noise.
    std::function<void(std::uint32_t, std::uint32_t, int)> bounce =
        [&](std::uint32_t lane, std::uint32_t chain, int hops) {
          log[lane].push_back((std::uint64_t{chain} << 32) |
                              static_cast<std::uint32_t>(eng.now()));
          eng.after(1, [&log, lane, &eng] {
            log[lane].push_back(0xFFFF0000ull | eng.now());
          });
          if (hops > 0) {
            eng.after_on(1 - lane, hop, [&bounce, lane, chain, hops] {
              bounce(1 - lane, chain, hops - 1);
            });
          }
        };
    eng.at_on(0, 1, [&bounce] { bounce(0, 1, 12); });
    eng.at_on(1, 1, [&bounce] { bounce(1, 2, 12); });
    eng.run();
    return std::make_pair(log, eng.events_processed());
  };

  const auto baseline = run_with(1);
  EXPECT_GT(baseline.second, 40u);
  for (const auto workers : {2u, 4u}) {
    const auto got = run_with(workers);
    EXPECT_EQ(got.first, baseline.first) << "workers=" << workers;
    EXPECT_EQ(got.second, baseline.second) << "workers=" << workers;
  }
}

TEST(ParallelEngine, LaneRngStreamsAreIndependentAndStable) {
  sim::Engine a(1234, sharded(4, 1));
  sim::Engine b(1234, sharded(4, 1));
  a.set_lookahead(kHop);
  b.set_lookahead(kHop);
  std::vector<std::uint64_t> da, db;
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    a.at_on(lane, 1, [&a, &da] { da.push_back(a.rng().next()); });
    b.at_on(lane, 1, [&b, &db] { db.push_back(b.rng().next()); });
  }
  a.run();
  b.run();
  EXPECT_EQ(da, db);
  // All four lane streams differ from each other.
  for (std::size_t i = 0; i < da.size(); ++i) {
    for (std::size_t j = i + 1; j < da.size(); ++j) {
      EXPECT_NE(da[i], da[j]) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Workload-level bit-identity across worker counts
// ---------------------------------------------------------------------------

namespace {

struct WorkloadDigest {
  std::string zipkin;
  std::string profile;
  std::uint64_t events_processed = 0;
  sim::TimeNs final_now = 0;
  std::uint64_t clamps = 0;

  bool operator==(const WorkloadDigest&) const = default;
};

template <typename World>
WorkloadDigest digest_of(World& world) {
  WorkloadDigest d;
  d.zipkin = prof::to_zipkin_json(prof::TraceSummary::build(world.all_traces()));
  d.profile = prof::ProfileSummary::build(world.all_profiles()).format(10);
  d.events_processed = world.engine().events_processed();
  d.final_now = world.engine().now();
  d.clamps = world.engine().causality_clamps();
  return d;
}

WorkloadDigest run_mobject(std::uint32_t workers) {
  MobjectWorld::Params p;
  p.ior.clients = 4;
  p.ior.ops_per_client = 6;
  p.ior.object_bytes = 16 * 1024;
  p.exec.lane_count = 0;  // auto: one lane per node
  p.exec.worker_count = workers;
  MobjectWorld world(p);
  world.run();
  return digest_of(world);
}

WorkloadDigest run_hepnos(std::uint32_t workers) {
  HepnosWorld::Params p;  // default config: 2 server nodes + 2 client nodes
  p.config.total_clients = 4;
  p.config.clients_per_node = 2;
  p.file_model.events_per_file = 64;
  p.file_model.payload_bytes = 128;
  p.files_per_client = 1;
  p.exec.lane_count = 0;  // auto: one lane per node
  p.exec.worker_count = workers;
  HepnosWorld world(p);
  world.run();
  return digest_of(world);
}

}  // namespace

TEST(ParallelWorkloads, MobjectBitIdenticalAcrossWorkerCounts) {
  const WorkloadDigest baseline = run_mobject(1);
  EXPECT_FALSE(baseline.zipkin.empty());
  EXPECT_GT(baseline.events_processed, 0u);
  for (const auto workers : kWorkerCounts) {
    if (workers == 1) continue;
    const WorkloadDigest got = run_mobject(workers);
    EXPECT_EQ(got.zipkin, baseline.zipkin) << "workers=" << workers;
    EXPECT_EQ(got.profile, baseline.profile) << "workers=" << workers;
    EXPECT_EQ(got.events_processed, baseline.events_processed)
        << "workers=" << workers;
    EXPECT_EQ(got.final_now, baseline.final_now) << "workers=" << workers;
  }
}

TEST(ParallelWorkloads, HepnosBitIdenticalAcrossWorkerCounts) {
  const WorkloadDigest baseline = run_hepnos(1);
  EXPECT_FALSE(baseline.zipkin.empty());
  EXPECT_GT(baseline.events_processed, 0u);
  for (const auto workers : kWorkerCounts) {
    if (workers == 1) continue;
    const WorkloadDigest got = run_hepnos(workers);
    EXPECT_EQ(got.zipkin, baseline.zipkin) << "workers=" << workers;
    EXPECT_EQ(got.profile, baseline.profile) << "workers=" << workers;
    EXPECT_EQ(got.events_processed, baseline.events_processed)
        << "workers=" << workers;
    EXPECT_EQ(got.final_now, baseline.final_now) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Window protocol: lockstep windows of one lookahead
// ---------------------------------------------------------------------------

namespace {

/// 16-node HEPnOS deployment (4 server nodes + 12 client nodes, one lane
/// per node).
WorkloadDigest run_hepnos16(std::uint32_t workers) {
  HepnosWorld::Params p;
  p.config.total_clients = 12;
  p.config.clients_per_node = 1;
  p.config.total_servers = 8;
  p.config.servers_per_node = 2;
  p.file_model.events_per_file = 24;
  p.file_model.payload_bytes = 96;
  p.files_per_client = 1;
  p.exec.lane_count = 0;  // auto: one lane per node
  p.exec.worker_count = workers;
  HepnosWorld world(p);
  world.run();
  return digest_of(world);
}

}  // namespace

// Bit-identical for any worker count, up to one worker per lane, and no
// merged event ever arrives below its destination clock.
TEST(WindowProtocol, HepnosBitIdenticalAcrossWorkersWithoutClamps) {
  const WorkloadDigest baseline = run_hepnos16(1);
  EXPECT_FALSE(baseline.zipkin.empty());
  EXPECT_GT(baseline.events_processed, 0u);
  EXPECT_EQ(baseline.clamps, 0u);
  for (const auto workers : {2u, 4u, 8u, 16u}) {
    const WorkloadDigest got = run_hepnos16(workers);
    EXPECT_EQ(got.zipkin, baseline.zipkin) << "workers=" << workers;
    EXPECT_EQ(got.profile, baseline.profile) << "workers=" << workers;
    EXPECT_EQ(got.events_processed, baseline.events_processed)
        << "workers=" << workers;
    EXPECT_EQ(got.final_now, baseline.final_now) << "workers=" << workers;
    EXPECT_EQ(got.clamps, 0u) << "workers=" << workers;
  }
}

TEST(WindowProtocol, ClusterSetsLookaheadToInterNodeLatency) {
  sim::EngineConfig cfg;
  cfg.lane_count = 0;
  sim::Engine eng(7, cfg);
  sim::ClusterParams cp;
  cp.node_count = 3;
  cp.max_clock_skew = 0;
  cp.inter_node_latency = sim::usec(5);
  sim::Cluster cluster(eng, cp);
  EXPECT_EQ(eng.lookahead(), sim::usec(5));
}

// Each lockstep window starts at the earliest pending event, which is at or
// beyond the previous window's end, so a run that ends at virtual time T
// executes at most T / lookahead + 1 windows, whatever the traffic. Four
// lanes tick locally every `tick` and post to their neighbor one lookahead
// ahead; with a tick below the lookahead every window is busy and the bound
// is met exactly.
TEST(WindowProtocol, WindowCountIsBoundedByVirtualTime) {
  for (const sim::DurationNs tick :
       {sim::usec(1), sim::usec(3), sim::usec(10)}) {
    sim::EngineConfig cfg;
    cfg.lane_count = 0;  // one lane per node
    sim::Engine eng(7, cfg);
    sim::ClusterParams cp;
    cp.node_count = 4;
    cp.max_clock_skew = 0;
    sim::Cluster cluster(eng, cp);
    std::function<void()> ticks[4];
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      ticks[lane] = [&eng, &ticks, lane, tick] {
        eng.after(tick, ticks[lane]);
        eng.after_on((lane + 1) % 4, eng.lookahead(), [] {});
      };
      eng.at_on(lane, 0, ticks[lane]);
    }
    eng.run_until(sim::msec(1));
    const std::uint64_t bound = eng.now() / eng.lookahead() + 1;
    EXPECT_GT(eng.events_processed(), 4 * (sim::msec(1) / tick))
        << "tick=" << tick;
    EXPECT_LE(eng.windows_executed(), bound) << "tick=" << tick;
    if (tick < eng.lookahead()) {
      EXPECT_EQ(eng.windows_executed(), bound) << "tick=" << tick;
    }
    EXPECT_EQ(eng.causality_clamps(), 0u) << "tick=" << tick;
  }
}

TEST(ParallelWorkloads, HepnosShardedStoresAllEvents) {
  HepnosWorld::Params p;
  p.config.total_clients = 2;
  p.file_model.events_per_file = 32;
  p.file_model.payload_bytes = 64;
  p.exec.lane_count = 0;
  p.exec.worker_count = 2;
  HepnosWorld world(p);
  EXPECT_TRUE(world.engine().parallel());
  EXPECT_EQ(world.engine().lane_count(), 4u);  // 2 server + 2 client nodes
  world.run();
  EXPECT_EQ(world.events_stored(), 2u * 32u);
  EXPECT_GT(world.makespan(), 0u);
}
