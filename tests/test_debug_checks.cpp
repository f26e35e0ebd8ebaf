// Tests for the SYM_DEBUG_CHECKS runtime verifiers (simkit/debug_checks):
// shadow lane-ownership tracking and the rolling event-stream digest. Only
// built when the tree is configured with -DSYM_DEBUG_CHECKS=ON (see
// tests/CMakeLists.txt); runs under the `debug_checks` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "simkit/cluster.hpp"
#include "simkit/debug_checks.hpp"
#include "simkit/engine.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/mobject_world.hpp"

#if !SYM_DEBUG_CHECKS
#error "test_debug_checks.cpp must be compiled with SYM_DEBUG_CHECKS=1"
#endif

namespace sim = sym::sim;
namespace dbg = sym::sim::debug;
using sym::workloads::HepnosWorld;
using sym::workloads::MobjectWorld;

namespace {

const std::uint32_t kWorkerCounts[] = {1, 2, 4, 8};

/// RAII: record violations instead of aborting, restore on scope exit.
class RecordingHandler {
 public:
  RecordingHandler() {
    previous_ = dbg::set_violation_handler(
        [this](const dbg::Violation& v) { violations_.push_back(v); });
  }
  ~RecordingHandler() { dbg::set_violation_handler(std::move(previous_)); }
  RecordingHandler(const RecordingHandler&) = delete;
  RecordingHandler& operator=(const RecordingHandler&) = delete;

  [[nodiscard]] const std::vector<dbg::Violation>& violations() const {
    return violations_;
  }

 private:
  dbg::ViolationHandler previous_;
  std::vector<dbg::Violation> violations_;
};

sim::EngineConfig sharded(std::uint32_t lanes, std::uint32_t workers) {
  sim::EngineConfig cfg;
  cfg.lane_count = lanes;
  cfg.worker_count = workers;
  return cfg;
}

std::uint64_t mobject_digest(std::uint32_t workers) {
  MobjectWorld::Params p;
  p.ior.clients = 4;
  p.ior.ops_per_client = 6;
  p.ior.object_bytes = 16 * 1024;
  p.exec.lane_count = 0;  // auto: one lane per node
  p.exec.worker_count = workers;
  MobjectWorld world(p);
  world.run();
  return world.engine().event_digest();
}

std::uint64_t hepnos_digest(std::uint32_t workers) {
  HepnosWorld::Params p;
  p.config.total_clients = 4;
  p.config.clients_per_node = 2;
  p.file_model.events_per_file = 64;
  p.file_model.payload_bytes = 128;
  p.files_per_client = 1;
  p.exec.lane_count = 0;  // auto: one lane per node
  p.exec.worker_count = workers;
  HepnosWorld world(p);
  world.run();
  return world.engine().event_digest();
}

}  // namespace

// ---------------------------------------------------------------------------
// Ownership registry primitives
// ---------------------------------------------------------------------------

TEST(DebugChecks, MainContextTouchesAlwaysPass) {
  RecordingHandler rec;
  int obj = 0;
  dbg::bind_home_lane(&obj, 3);
  // No ActiveLaneScope on this thread: setup/coordinator context.
  ASSERT_EQ(dbg::current_lane(), dbg::kNoLane);
  dbg::assert_home_lane(&obj, "test touch");
  dbg::unbind_home_lane(&obj);
  EXPECT_TRUE(rec.violations().empty());
}

TEST(DebugChecks, UnregisteredObjectsPassFromAnyLane) {
  RecordingHandler rec;
  int obj = 0;
  dbg::set_current_lane(5);
  dbg::assert_home_lane(&obj, "test touch");
  dbg::set_current_lane(dbg::kNoLane);
  EXPECT_TRUE(rec.violations().empty());
}

TEST(DebugChecks, ForeignLaneTouchIsReported) {
  RecordingHandler rec;
  int obj = 0;
  dbg::bind_home_lane(&obj, 2);
  const auto before = dbg::violation_count();
  dbg::set_current_lane(7);
  dbg::assert_home_lane(&obj, "planted touch");
  dbg::set_current_lane(2);
  dbg::assert_home_lane(&obj, "home touch");  // home lane: fine
  dbg::set_current_lane(dbg::kNoLane);
  dbg::unbind_home_lane(&obj);

  ASSERT_EQ(rec.violations().size(), 1u);
  const auto& v = rec.violations().front();
  EXPECT_EQ(v.object, &obj);
  EXPECT_EQ(v.what, "planted touch");
  EXPECT_EQ(v.home_lane, 2u);
  EXPECT_EQ(v.actual_lane, 7u);
  EXPECT_EQ(dbg::violation_count(), before + 1);
}

TEST(DebugChecks, UnbindClearsStaleOwnership) {
  RecordingHandler rec;
  int obj = 0;
  dbg::bind_home_lane(&obj, 1);
  dbg::unbind_home_lane(&obj);
  dbg::set_current_lane(9);
  dbg::assert_home_lane(&obj, "touch after unbind");
  dbg::set_current_lane(dbg::kNoLane);
  EXPECT_TRUE(rec.violations().empty());
}

// ---------------------------------------------------------------------------
// Engine integration: the negative test the acceptance criteria require
// ---------------------------------------------------------------------------

// A deliberately planted cross-lane touch: from inside an event running on
// lane 0, reach around the Engine::at_on mailbox and mutate lane 1's heap
// directly. The ownership verifier must report it (the sanctioned mailbox
// route is exercised right next to it and must stay silent).
TEST(DebugChecks, PlantedCrossLaneScheduleIsCaught) {
  RecordingHandler rec;
  sim::Engine eng(7, sharded(2, 1));
  eng.set_lookahead(sim::usec(2));  // no Cluster to set it
  bool planted_ran = false;
  eng.at_on(0, 10, [&] {
    eng.debug_lane(1).schedule(10 + eng.lookahead(),
                               [&planted_ran] { planted_ran = true; });
  });
  eng.run();

  ASSERT_FALSE(rec.violations().empty());
  const auto& v = rec.violations().front();
  EXPECT_EQ(v.what, "Lane::schedule");
  EXPECT_EQ(v.home_lane, 1u);
  EXPECT_EQ(v.actual_lane, 0u);
  EXPECT_TRUE(planted_ran);  // reported, not blocked: the handler decides
}

TEST(DebugChecks, PlantedForeignRngDrawIsCaught) {
  RecordingHandler rec;
  sim::Engine eng(7, sharded(2, 1));
  eng.set_lookahead(sim::usec(2));  // no Cluster to set it
  eng.at_on(0, 10, [&] { (void)eng.debug_lane(1).rng().next(); });
  eng.run();

  ASSERT_FALSE(rec.violations().empty());
  EXPECT_EQ(rec.violations().front().what, "Lane::rng");
}

TEST(DebugChecks, SanctionedMailboxRouteIsSilent) {
  RecordingHandler rec;
  sim::Engine eng(7, sharded(2, 1));
  eng.set_lookahead(sim::usec(2));  // no Cluster to set it
  bool ran = false;
  eng.at_on(0, 10, [&] {
    eng.at_on(1, 10 + eng.lookahead(), [&ran] { ran = true; });
  });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(rec.violations().empty());
}

// A merged cross-lane event below its destination's clock breaks the window
// protocol's causality invariant. Plant one by writing lane 0's outbox
// directly, behind lane 1's clock, then let a window merge it.
TEST(DebugChecks, PlantedLateMergeIsCaught) {
  RecordingHandler rec;
  sim::Engine eng(7, sharded(2, 1));
  eng.set_lookahead(sim::usec(2));  // no Cluster to set it
  eng.at_on(1, sim::usec(100), [] {});
  eng.run();
  ASSERT_TRUE(rec.violations().empty());
  eng.debug_lane(0).post_remote(1, sim::usec(10), [] {});
  eng.at_on(0, sim::usec(200), [] {});
  eng.run();

  EXPECT_EQ(eng.causality_clamps(), 1u);
  ASSERT_EQ(rec.violations().size(), 1u);
  const auto& v = rec.violations().front();
  EXPECT_EQ(v.home_lane, 1u);
  EXPECT_EQ(v.actual_lane, 0u);
}

// NIC reservations route through Node objects bound to the node's lane.
TEST(DebugChecks, ForeignNicReservationIsCaught) {
  RecordingHandler rec;
  sim::Engine eng(7, sharded(2, 1));
  sim::ClusterParams params;
  params.node_count = 2;
  params.max_clock_skew = 0;
  sim::Cluster cluster(eng, params);
  // Node 1 lives on lane 1; reserve its NIC from an event on lane 0.
  eng.at_on(0, 10, [&] {
    cluster.node(1).reserve_nic(eng.now(), 4096,
                                params.nic_bw_bytes_per_ns);
  });
  eng.run();
  ASSERT_FALSE(rec.violations().empty());
  EXPECT_EQ(rec.violations().front().what, "Node::reserve_nic");
}

// ---------------------------------------------------------------------------
// Full workloads: no violations, digests invariant across worker counts
// ---------------------------------------------------------------------------

TEST(DebugChecks, MobjectDigestInvariantAcrossWorkerCounts) {
  RecordingHandler rec;
  const std::uint64_t baseline = mobject_digest(1);
  EXPECT_NE(baseline, 0u);
  for (const auto workers : kWorkerCounts) {
    if (workers == 1) continue;
    EXPECT_EQ(mobject_digest(workers), baseline) << "workers=" << workers;
  }
  for (const auto& v : rec.violations()) {
    ADD_FAILURE() << "lane-affinity violation: " << v.what
                  << " home=" << v.home_lane << " actual=" << v.actual_lane;
  }
}

TEST(DebugChecks, HepnosDigestInvariantAcrossWorkerCounts) {
  RecordingHandler rec;
  const std::uint64_t baseline = hepnos_digest(1);
  EXPECT_NE(baseline, 0u);
  for (const auto workers : kWorkerCounts) {
    if (workers == 1) continue;
    EXPECT_EQ(hepnos_digest(workers), baseline) << "workers=" << workers;
  }
  for (const auto& v : rec.violations()) {
    ADD_FAILURE() << "lane-affinity violation: " << v.what
                  << " home=" << v.home_lane << " actual=" << v.actual_lane;
  }
}

TEST(DebugChecks, DigestIsSeedAndWorkloadSensitive) {
  // Same workload, same seed: identical. Different workloads: different
  // event streams, so (with overwhelming probability) different digests.
  EXPECT_EQ(mobject_digest(2), mobject_digest(2));
  EXPECT_NE(mobject_digest(1), hepnos_digest(1));
}
