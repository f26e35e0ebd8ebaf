// Unit tests for simkit: engine ordering/cancellation, RNG determinism,
// fibers, cluster NIC/clock models.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "simkit/fiber.hpp"
#include "simkit/rng.hpp"

namespace sim = sym::sim;

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(Engine, StartsAtTimeZero) {
  sim::Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  sim::Engine eng;
  std::vector<int> order;
  eng.at(30, [&] { order.push_back(3); });
  eng.at(10, [&] { order.push_back(1); });
  eng.at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, EqualTimestampsRunFifo) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.at(5, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, AfterSchedulesRelativeToNow) {
  sim::Engine eng;
  sim::TimeNs seen = 0;
  eng.at(100, [&] { eng.after(50, [&] { seen = eng.now(); }); });
  eng.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, SchedulingIntoThePastClampsToNow) {
  sim::Engine eng;
  sim::TimeNs seen = 0;
  eng.at(100, [&] { eng.at(10, [&] { seen = eng.now(); }); });
  eng.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, CancelPreventsExecution) {
  sim::Engine eng;
  bool ran = false;
  auto id = eng.at(10, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(Engine, CancelAfterFireIsNoop) {
  sim::Engine eng;
  bool ran = false;
  auto id = eng.at(10, [&] { ran = true; });
  eng.run();
  EXPECT_TRUE(ran);
  // The event fired, so its slot generation moved on: the stale id fails
  // the generation check and must never corrupt the queue.
  EXPECT_FALSE(eng.cancel(id));
  eng.run();
}

TEST(Engine, RunUntilSkipsCancelledHead) {
  // Regression: run_until() used to duplicate the cancelled-entry skip of
  // pop_and_run(); a cancelled event at the head of the heap, inside the
  // deadline, must be dropped without executing and without losing the
  // events behind it.
  sim::Engine eng;
  bool cancelled_ran = false;
  bool late_ran = false;
  auto id = eng.at(10, [&] { cancelled_ran = true; });
  eng.at(50, [&] { late_ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  eng.run_until(30);
  EXPECT_FALSE(cancelled_ran);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(eng.pending_events(), 1u);
  eng.run();
  EXPECT_TRUE(late_ran);
}

TEST(Engine, StaleIdFailsGenerationCheckAfterSlotReuse) {
  sim::Engine eng;
  auto a = eng.at(10, [] {});
  EXPECT_TRUE(eng.cancel(a));
  // The freed slot is recycled for the next event with a fresh generation;
  // the stale id must not cancel the newcomer.
  bool b_ran = false;
  auto b = eng.at(20, [&] { b_ran = true; });
  EXPECT_FALSE(eng.cancel(a));
  eng.run();
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(eng.cancel(b));
}

TEST(Engine, ManyInterleavedCancelsKeepOrderAndCounts) {
  sim::Engine eng;
  std::vector<int> fired;
  std::vector<sim::Engine::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(eng.at(static_cast<sim::TimeNs>(10 * (i + 1)),
                         [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 2) EXPECT_TRUE(eng.cancel(ids[i]));
  EXPECT_EQ(eng.pending_events(), 32u);
  eng.run();
  ASSERT_EQ(fired.size(), 32u);
  for (std::size_t j = 0; j < fired.size(); ++j) {
    EXPECT_EQ(fired[j], static_cast<int>(2 * j + 1));
  }
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(Engine, StopHaltsTheLoop) {
  sim::Engine eng;
  int count = 0;
  eng.at(1, [&] { ++count; });
  eng.at(2, [&] {
    ++count;
    eng.stop();
  });
  eng.at(3, [&] { ++count; });
  eng.run();
  EXPECT_EQ(count, 2);
  eng.reset_stop();
  eng.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilRespectsDeadline) {
  sim::Engine eng;
  std::vector<sim::TimeNs> fired;
  for (sim::TimeNs t : {10u, 20u, 30u, 40u}) {
    eng.at(t, [&fired, &eng] { fired.push_back(eng.now()); });
  }
  eng.run_until(25);
  EXPECT_EQ(fired, (std::vector<sim::TimeNs>{10, 20}));
  eng.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, EventsProcessedCounter) {
  sim::Engine eng;
  for (int i = 0; i < 5; ++i) eng.at(i, [] {});
  eng.run();
  EXPECT_EQ(eng.events_processed(), 5u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, UniformBoundRespected) {
  sim::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
  }
  EXPECT_EQ(r.uniform(0), 0u);
}

TEST(Rng, UniformRangeInclusive) {
  sim::Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  sim::Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  sim::Rng r(13);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(40.0);
  EXPECT_NEAR(sum / kN, 40.0, 2.0);
}

TEST(Rng, Fnv1aMatchesKnownVector) {
  // FNV-1a("a") = 0xaf63dc4c8601ec8c.
  EXPECT_EQ(sim::fnv1a64("a", 1), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(sim::fnv1a64("abc", 3), sim::fnv1a64("abd", 3));
}

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

TEST(Fiber, RunsToCompletion) {
  bool ran = false;
  sim::Fiber f([&] { ran = true; });
  EXPECT_FALSE(f.started());
  f.switch_in();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, SwitchOutSuspendsAndResumes) {
  std::vector<int> order;
  sim::Fiber f([&] {
    order.push_back(1);
    sim::Fiber::switch_out();
    order.push_back(3);
  });
  f.switch_in();
  order.push_back(2);
  EXPECT_FALSE(f.finished());
  f.switch_in();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(sim::Fiber::current(), nullptr);
  sim::Fiber* observed = nullptr;
  sim::Fiber f([&] { observed = sim::Fiber::current(); });
  f.switch_in();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(sim::Fiber::current(), nullptr);
}

TEST(Fiber, ManySequentialFibersRecycleStacks) {
  sim::StackPool::instance().drain();
  const auto before = sim::StackPool::instance().total_allocated();
  for (int i = 0; i < 100; ++i) {
    sim::Fiber f([] {});
    f.switch_in();
  }
  // All 100 fibers should have shared a single recycled stack.
  EXPECT_LE(sim::StackPool::instance().total_allocated() - before, 1u);
}

TEST(Fiber, DeepStackUsage) {
  // Exercise a few KB of genuine stack usage inside the fiber.
  int result = 0;
  sim::Fiber f([&] {
    volatile char buf[8192];
    for (int i = 0; i < 8192; ++i) buf[i] = static_cast<char>(i & 0x7F);
    int sum = 0;
    for (int i = 0; i < 8192; ++i) sum += buf[i];
    result = sum;
  });
  f.switch_in();
  EXPECT_GT(result, 0);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(Cluster, NodeZeroHasNoSkew) {
  sim::Engine eng(1);
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 4});
  EXPECT_EQ(cluster.node(0).clock_skew_ns(), 0);
}

TEST(Cluster, SkewBoundedByParameter) {
  sim::Engine eng(2);
  sim::ClusterParams p;
  p.node_count = 16;
  p.max_clock_skew = sim::usec(50);
  sim::Cluster cluster(eng, p);
  for (sim::NodeId n = 0; n < 16; ++n) {
    EXPECT_LE(std::abs(cluster.node(n).clock_skew_ns()),
              static_cast<std::int64_t>(sim::usec(50)));
  }
}

TEST(Cluster, LocalClockAppliesSkew) {
  sim::Engine eng(3);
  sim::ClusterParams p;
  p.node_count = 8;
  sim::Cluster cluster(eng, p);
  for (sim::NodeId n = 0; n < 8; ++n) {
    const auto skew = cluster.node(n).clock_skew_ns();
    EXPECT_EQ(cluster.node(n).local_clock(sim::sec(1)),
              static_cast<sim::TimeNs>(static_cast<std::int64_t>(sim::sec(1)) +
                                       skew));
  }
}

TEST(Cluster, NicTransfersSerialize) {
  sim::Engine eng(4);
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  auto& node = cluster.node(0);
  // Two back-to-back 1000-byte transfers at 1 B/ns: second waits for first.
  const auto end1 = node.reserve_nic(0, 1000, 1.0);
  const auto end2 = node.reserve_nic(0, 1000, 1.0);
  EXPECT_EQ(end1, 1000u);
  EXPECT_EQ(end2, 2000u);
  // A transfer after the NIC went idle starts at `now`.
  const auto end3 = node.reserve_nic(5000, 500, 1.0);
  EXPECT_EQ(end3, 5500u);
  EXPECT_EQ(node.nic_bytes_total(), 2500u);
}

TEST(Cluster, LinkLatencyIntraVsInter) {
  sim::Engine eng(5);
  sim::ClusterParams p;
  p.node_count = 2;
  p.intra_node_latency = 300;
  p.inter_node_latency = sim::usec(2);
  sim::Cluster cluster(eng, p);
  EXPECT_EQ(cluster.link_latency(0, 0), 300u);
  EXPECT_EQ(cluster.link_latency(0, 1), sim::usec(2));
  EXPECT_GT(cluster.link_bandwidth(0, 0), cluster.link_bandwidth(0, 1));
}

TEST(Cluster, ProcessRssAndCpuAccounting) {
  sim::Engine eng(6);
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  auto& proc = cluster.spawn_process(0, "server");
  const auto base = proc.rss_bytes();
  proc.add_rss(4096);
  EXPECT_EQ(proc.rss_bytes(), base + 4096);
  proc.add_rss(-4096);
  EXPECT_EQ(proc.rss_bytes(), base);

  proc.checkpoint_cpu(0);
  proc.add_cpu_time(sim::usec(500));
  // 500us busy over a 1ms window on one core => 50%.
  EXPECT_NEAR(proc.cpu_utilization(0, sim::msec(1), 1), 0.5, 1e-9);
}

TEST(Cluster, DeterministicSkewForSameSeed) {
  sim::Engine e1(42), e2(42);
  sim::ClusterParams p;
  p.node_count = 8;
  sim::Cluster c1(e1, p), c2(e2, p);
  for (sim::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(c1.node(n).clock_skew_ns(), c2.node(n).clock_skew_ns());
  }
}

// ---------------------------------------------------------------------------
// SmallFn / d-ary heap / lane arena (the million-request hot path pieces)
// ---------------------------------------------------------------------------

TEST(SmallFn, InlineCaptureDoesNotSpill) {
  std::uint64_t a = 1, b = 2, c = 3;
  sim::SmallFn fn([a, b, c, out = &a] { *out = a + b + c; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.on_heap());
  fn();
  EXPECT_EQ(a, 6u);
}

TEST(SmallFn, OversizedCaptureSpillsToHeapAndStillRuns) {
  struct Fat {
    char pad[200] = {};
  };
  int hits = 0;
  // symlint: allow(fiber-blocking) reason=test exercises the counted spill path
  sim::SmallFn fn([fat = Fat{}, &hits] {
    ++hits;
    (void)fat;
  });
  EXPECT_TRUE(fn.on_heap());
  sim::SmallFn moved = std::move(fn);
  moved();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  sim::SmallFn fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  sim::SmallFn moved = std::move(fn);
  moved();
  EXPECT_EQ(*counter, 1);
  moved = nullptr;
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(DHeap, PopsInSortedOrder) {
  sim::Rng rng(11);
  std::vector<std::uint64_t> heap;
  std::vector<std::uint64_t> ref;
  const auto before = [](std::uint64_t x, std::uint64_t y) { return x < y; };
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.uniform(10000);
    sim::dheap_push(heap, v, before);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(heap.front(), ref[i]) << "pop " << i;
    sim::dheap_pop(heap, before);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(LaneArena, FreelistRecyclesSlotsWithFreshGenerations) {
  sim::LaneArena arena;
  const std::uint32_t a = arena.acquire();
  const std::uint32_t b = arena.acquire();
  EXPECT_EQ(arena.slot_count(), 2u);
  const std::uint32_t gen_a = arena.hot(a).generation;
  arena.cb(a) = sim::SmallFn([] {});
  arena.release(a);
  EXPECT_FALSE(static_cast<bool>(arena.cb(a))) << "release must drop the cb";

  const std::uint32_t c = arena.acquire();
  EXPECT_EQ(c, a);
  EXPECT_EQ(arena.hot(c).generation, gen_a + 1);
  EXPECT_EQ(arena.slot_count(), 2u);
  EXPECT_EQ(arena.stats.slots_recycled, 1u);
  (void)b;
}

TEST(LaneArena, ReserveMakesSteadyStateAllocationFree) {
  sim::LaneArena arena;
  arena.reserve(32);
  const std::uint64_t growths0 = arena.stats.container_growths;
  std::vector<std::uint32_t> idx;
  for (int i = 0; i < 32; ++i) idx.push_back(arena.acquire());
  for (const auto i : idx) arena.release(i);
  for (int i = 0; i < 32; ++i) arena.acquire();
  EXPECT_EQ(arena.stats.container_growths, growths0);
}

TEST(Engine, ArenaStatsAggregateAcrossLanes) {
  sim::Engine eng;
  int runs = 0;
  for (int i = 0; i < 100; ++i) {
    eng.at(static_cast<sim::TimeNs>(i), [&runs] { ++runs; });
  }
  eng.run();
  EXPECT_EQ(runs, 100);
  const sim::ArenaStats stats = eng.arena_stats();
  EXPECT_GT(eng.arena_slot_count(), 0u);
  // Inline callbacks: the event path may grow containers while warming but
  // must never spill a SmallFn.
  EXPECT_EQ(stats.fn_heap_spills, 0u);
}

TEST(Engine, ReserveEventsAvoidsContainerGrowth) {
  sim::Engine eng;
  eng.reserve_events_per_lane(256);
  int runs = 0;
  for (int i = 0; i < 200; ++i) {
    eng.at(static_cast<sim::TimeNs>(i), [&runs] { ++runs; });
  }
  eng.run();
  EXPECT_EQ(runs, 200);
  EXPECT_EQ(eng.arena_stats().container_growths, 0u);
  EXPECT_EQ(eng.arena_stats().allocations(), 0u);
}
