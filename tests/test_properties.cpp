// Cross-stack property and fuzz tests: seeded random workloads checked
// against structural invariants rather than point values.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "argolite/runtime.hpp"
#include "argolite/sync.hpp"
#include "margolite/instance.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "sofi/fabric.hpp"
#include "symbiosys/analysis.hpp"
#include "workloads/hepnos_world.hpp"

namespace sim = sym::sim;
namespace abt = sym::abt;
namespace margo = sym::margo;
namespace prof = sym::prof;
namespace ofi = sym::ofi;

// ---------------------------------------------------------------------------
// Engine properties
// ---------------------------------------------------------------------------

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, TimeNeverGoesBackwardAndAllLiveEventsRun) {
  sim::Engine eng(GetParam());
  sim::Rng rng(GetParam() ^ 0xF00D);
  sim::TimeNs last = 0;
  bool monotonic = true;
  int executed = 0;
  int expected = 0;
  std::vector<sim::Engine::EventId> cancellable;

  std::function<void(int)> schedule_some = [&](int depth) {
    const int n = static_cast<int>(rng.uniform(4));
    for (int i = 0; i < n; ++i) {
      const auto delay = rng.uniform(10'000);
      const bool will_cancel = rng.bernoulli(0.2);
      auto id = eng.after(delay, [&, depth] {
        monotonic &= eng.now() >= last;
        last = eng.now();
        ++executed;
        if (depth < 4) schedule_some(depth + 1);
      });
      if (will_cancel) {
        cancellable.push_back(id);
      } else {
        ++expected;
      }
    }
  };

  for (int i = 0; i < 50; ++i) schedule_some(0);
  for (auto id : cancellable) eng.cancel(id);
  eng.run();
  EXPECT_TRUE(monotonic);
  EXPECT_GE(executed, expected);  // nested events add to the executed count
  EXPECT_EQ(eng.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(3, 17, 99, 256, 1024));

// ---------------------------------------------------------------------------
// argolite properties
// ---------------------------------------------------------------------------

class ArgoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArgoFuzz, RandomWorkloadInvariants) {
  sim::Engine eng(GetParam());
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  auto& proc = cluster.spawn_process(0, "fuzz");
  abt::Runtime rt(eng, proc);
  auto& pool = rt.create_pool("p");
  const unsigned es_count = 1 + static_cast<unsigned>(eng.rng().uniform(4));
  for (unsigned i = 0; i < es_count; ++i) rt.create_xstream({&pool});

  abt::Mutex mutex;
  sim::DurationNs total_compute = 0;
  int finished = 0;
  constexpr int kUlts = 40;

  for (int u = 0; u < kUlts; ++u) {
    rt.create_ult(pool, [&] {
      for (int step = 0; step < 6; ++step) {
        switch (eng.rng().uniform(4)) {
          case 0: {
            const auto d = eng.rng().uniform_range(100, 20'000);
            total_compute += d;
            abt::compute(d);
            break;
          }
          case 1:
            abt::yield();
            break;
          case 2:
            abt::sleep_for(eng.rng().uniform_range(100, 5'000));
            break;
          case 3: {
            abt::LockGuard g(mutex);
            const auto d = eng.rng().uniform_range(100, 2'000);
            total_compute += d;
            abt::compute(d);
            break;
          }
        }
      }
      ++finished;
    });
  }
  eng.run();

  EXPECT_EQ(finished, kUlts);
  EXPECT_EQ(rt.live_ults(), 0u);
  EXPECT_EQ(rt.total_blocked(), 0u);
  EXPECT_EQ(rt.total_runnable(), 0u);
  EXPECT_FALSE(mutex.locked());
  // Every nanosecond of compute must be accounted to the process.
  EXPECT_EQ(proc.cpu_time(), total_compute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArgoFuzz,
                         ::testing::Values(7, 21, 63, 189, 567));

// ---------------------------------------------------------------------------
// Full-stack properties over random RPC workloads
// ---------------------------------------------------------------------------

class RpcFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcFuzz, IntervalAccountingInvariants) {
  sim::Engine eng(GetParam());
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 2});
  ofi::Fabric fabric(cluster);
  margo::Instance server(fabric, cluster.spawn_process(0, "s"),
                         margo::InstanceConfig{.server = true,
                                               .handler_es = 3});
  margo::Instance client(fabric, cluster.spawn_process(1, "c"),
                         margo::InstanceConfig{});
  server.register_rpc("fuzz_rpc", 1, [&](margo::Request& req) {
    abt::compute(eng.rng().uniform_range(500, 80'000));
    if (eng.rng().bernoulli(0.3)) {
      auto r = req.reader();
      std::uint32_t payload = 0;
      if (req.body().size() >= 4) sym::hg::get(r, payload);
      req.bulk_pull(1024 + payload % 4096);
    }
    req.respond_value(std::uint8_t{1});
  });
  const auto rpc = client.register_client_rpc("fuzz_rpc");

  server.start();
  client.start();
  client.spawn([&] {
    std::vector<margo::PendingOpPtr> ops;
    for (int i = 0; i < 50; ++i) {
      auto payload = std::make_shared<std::vector<std::byte>>(512);
      ops.push_back(client.forward_async(
          server.addr(), 1, rpc,
          sym::hg::encode(static_cast<std::uint32_t>(i)), payload, 512));
      if (eng.rng().bernoulli(0.4)) {
        for (auto& op : ops) op->wait();
        ops.clear();
      }
    }
    for (auto& op : ops) op->wait();
    client.finalize();
    server.finalize();
  });
  eng.run();

  // Invariant set, per callpath entry:
  //  * counts match between origin and target sides,
  //  * the origin envelope exceeds every measured component,
  //  * min <= mean <= max for every interval.
  double origin_total = 0, component_total = 0;
  std::uint64_t origin_count = 0, target_count = 0;
  auto check_stats = [](const prof::IntervalStats& s) {
    if (s.count == 0) return;
    EXPECT_LE(s.min_ns, s.mean_ns());
    EXPECT_LE(s.mean_ns(), s.max_ns + 1e-9);
    EXPECT_GE(s.min_ns, 0.0);
  };
  for (const auto& [key, stats] : client.profile().entries()) {
    for (int i = 0; i < static_cast<int>(prof::Interval::kCount); ++i) {
      check_stats(stats.intervals[i]);
    }
    origin_total += stats.at(prof::Interval::kOriginExec).sum_ns;
    origin_count += stats.at(prof::Interval::kOriginExec).count;
    component_total += stats.at(prof::Interval::kInputSer).sum_ns +
                       stats.at(prof::Interval::kOriginCallback).sum_ns;
  }
  for (const auto& [key, stats] : server.profile().entries()) {
    for (int i = 0; i < static_cast<int>(prof::Interval::kCount); ++i) {
      check_stats(stats.intervals[i]);
    }
    target_count += stats.at(prof::Interval::kTargetExec).count;
    component_total += stats.at(prof::Interval::kTargetExec).sum_ns +
                       stats.at(prof::Interval::kHandlerWait).sum_ns;
  }
  EXPECT_EQ(origin_count, 50u);
  EXPECT_EQ(target_count, 50u);
  EXPECT_GT(origin_total, 0.0);
  EXPECT_GE(origin_total, component_total * 0.999);

  // Trace invariants: 4 events per request; spans stitch completely.
  EXPECT_EQ(client.trace().size() + server.trace().size(), 200u);
  const auto summary =
      prof::TraceSummary::build({&client.trace(), &server.trace()});
  EXPECT_EQ(summary.total_spans, 50u);
  for (const auto& rt : summary.requests) {
    for (const auto& sp : rt.spans) {
      EXPECT_LE(sp.origin_start, sp.target_start);
      EXPECT_LE(sp.target_start, sp.target_end);
      EXPECT_LE(sp.target_end, sp.origin_end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcFuzz, ::testing::Values(5, 55, 555, 5555));

// ---------------------------------------------------------------------------
// Determinism property at deployment scale
// ---------------------------------------------------------------------------

class WorldDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldDeterminism, IdenticalSeedsGiveIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    sym::workloads::HepnosWorld::Params p;
    p.config = sym::workloads::table4_c3();
    p.config.total_clients = 2;
    p.file_model.events_per_file = 128;
    p.seed = seed;
    sym::workloads::HepnosWorld world(p);
    world.run();
    // Fingerprint: fold every trace event into a hash.
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto* ts : world.all_traces()) {
      for (const auto& ev : ts->events()) {
        h ^= ev.request_id + ev.local_ts + ev.lamport + ev.order;
        h *= 0x100000001B3ULL;
      }
    }
    return std::make_tuple(h, world.makespan(),
                           world.engine().events_processed());
  };
  EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldDeterminism,
                         ::testing::Values(42, 4242));
