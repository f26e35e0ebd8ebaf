// Unit tests for argolite: ULT scheduling, ES occupancy, pools, sync
// primitives, ULT-local keys, and the queueing behaviour the HEPnOS
// experiments depend on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "abt_oracle.hpp"
#include "argolite/runtime.hpp"
#include "argolite/sync.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "simkit/fiber.hpp"

namespace sim = sym::sim;
namespace abt = sym::abt;

namespace {

/// Common fixture: one engine, one node, one process, one runtime.
struct AbtFixture {
  sim::Engine eng{42};
  sim::Cluster cluster{eng, sim::ClusterParams{.node_count = 1}};
  sim::Process& proc{cluster.spawn_process(0, "test")};
  abt::Runtime rt{eng, proc};
};

}  // namespace

TEST(Argolite, UltRunsToCompletion) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  bool ran = false;
  f.rt.create_ult(pool, [&] { ran = true; });
  f.eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(f.rt.ults_created(), 1u);
  EXPECT_EQ(f.rt.ults_finished(), 1u);
  EXPECT_EQ(f.rt.live_ults(), 0u);
}

TEST(Argolite, ComputeAdvancesVirtualTime) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  sim::TimeNs end = 0;
  f.rt.create_ult(pool, [&] {
    abt::compute(sim::usec(100));
    end = f.eng.now();
  });
  f.eng.run();
  EXPECT_GE(end, sim::usec(100));
  // Dispatch overhead is small relative to the computation.
  EXPECT_LT(end, sim::usec(101));
  EXPECT_EQ(f.proc.cpu_time(), sim::usec(100));
}

TEST(Argolite, SingleEsSerializesComputingUlts) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  std::vector<sim::TimeNs> ends;
  for (int i = 0; i < 3; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::compute(sim::usec(10));
      ends.push_back(f.eng.now());
    });
  }
  f.eng.run();
  ASSERT_EQ(ends.size(), 3u);
  // Each ULT must wait for the previous one's compute: ends are >= 10, 20,
  // 30 us apart.
  EXPECT_GE(ends[1], ends[0] + sim::usec(10));
  EXPECT_GE(ends[2], ends[1] + sim::usec(10));
}

TEST(Argolite, TwoEsRunUltsConcurrently) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  std::vector<sim::TimeNs> ends;
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::compute(sim::usec(10));
      ends.push_back(f.eng.now());
    });
  }
  f.eng.run();
  ASSERT_EQ(ends.size(), 2u);
  // Both finish at ~10us: true concurrency in virtual time.
  EXPECT_LT(ends[1], sim::usec(11));
}

TEST(Argolite, YieldInterleavesUlts) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  std::vector<int> order;
  f.rt.create_ult(pool, [&] {
    order.push_back(1);
    abt::yield();
    order.push_back(3);
  });
  f.rt.create_ult(pool, [&] { order.push_back(2); });
  f.eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Argolite, SleepForDoesNotOccupyEs) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  sim::TimeNs sleeper_end = 0, worker_end = 0;
  f.rt.create_ult(pool, [&] {
    abt::sleep_for(sim::usec(100));
    sleeper_end = f.eng.now();
  });
  f.rt.create_ult(pool, [&] {
    abt::compute(sim::usec(10));
    worker_end = f.eng.now();
  });
  f.eng.run();
  // Worker ran while the sleeper slept.
  EXPECT_LT(worker_end, sim::usec(50));
  EXPECT_GE(sleeper_end, sim::usec(100));
  // The sleeper consumed no CPU.
  EXPECT_EQ(f.proc.cpu_time(), sim::usec(10));
}

TEST(Argolite, HandlerTimeEmergesWhenEsStarved) {
  // With 1 ES and 4 compute-bound ULTs, later ULTs wait in the pool; their
  // first_run_at - created_at gap is the paper's "target ULT handler time".
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  std::vector<abt::Ult*> ults;
  for (int i = 0; i < 4; ++i) {
    auto& u = f.rt.create_ult(pool, [&] { abt::compute(sim::usec(100)); });
    ults.push_back(&u);
  }
  std::vector<sim::DurationNs> handler_times;
  // Sample the gap in a monitor ULT before destruction: easiest is to just
  // capture first_run_at via the engine after each compute slot.
  // ULTs are destroyed on finish, so record inside bodies instead.
  f.eng.run();
  // Re-run the experiment, this time recording from inside the ULTs.
  AbtFixture g;
  auto& pool2 = g.rt.create_pool("p");
  g.rt.create_xstream({&pool2});
  std::vector<sim::TimeNs> starts;
  for (int i = 0; i < 4; ++i) {
    g.rt.create_ult(pool2, [&] {
      starts.push_back(g.eng.now());
      abt::compute(sim::usec(100));
    });
  }
  g.eng.run();
  ASSERT_EQ(starts.size(), 4u);
  // ULT i starts roughly i*100us after creation (all created at t=0).
  EXPECT_LT(starts[0], sim::usec(1));
  EXPECT_GE(starts[3], sim::usec(300));
}

TEST(Argolite, UltLocalKeysIsolatedPerUlt) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  const auto key = abt::Runtime::key_create();
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    f.rt.create_ult(pool, [&, i] {
      abt::self_set(key, i * 1000);
      abt::yield();  // other ULTs run and set the same key
      seen.push_back(abt::self_get(key));
    });
  }
  f.eng.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1000, 2000, 3000}));
}

TEST(Argolite, UnsetKeyReadsZero) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  const auto key = abt::Runtime::key_create();
  std::uint64_t v = 99;
  f.rt.create_ult(pool, [&] { v = abt::self_get(key); });
  f.eng.run();
  EXPECT_EQ(v, 0u);
}

TEST(Argolite, MutexMutualExclusion) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::LockGuard g(m);
      ++in_critical;
      max_in_critical = std::max(max_in_critical, in_critical);
      abt::compute(sim::usec(10));
      --in_critical;
    });
  }
  f.eng.run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_GE(m.contended_acquires(), 1u);
  EXPECT_FALSE(m.locked());
}

TEST(Argolite, MutexBlockedCountVisibleInPool) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  std::uint64_t observed_blocked = 0;
  // Holder grabs the lock and computes; two others block on it; an observer
  // samples the runtime's blocked count, as SYMBIOSYS does for Fig. 10.
  f.rt.create_ult(pool, [&] {
    abt::LockGuard g(m);
    abt::compute(sim::usec(100));
  });
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] { abt::LockGuard g(m); });
  }
  f.eng.after(sim::usec(50), [&] { observed_blocked = f.rt.total_blocked(); });
  f.eng.run();
  EXPECT_EQ(observed_blocked, 2u);
  EXPECT_EQ(f.rt.total_blocked(), 0u);
}

TEST(Argolite, MutexFifoHandoff) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  std::vector<int> order;
  f.rt.create_ult(pool, [&] {
    m.lock();
    abt::compute(sim::usec(10));
    m.unlock();
  });
  for (int i = 0; i < 3; ++i) {
    f.rt.create_ult(pool, [&, i] {
      m.lock();
      order.push_back(i);
      m.unlock();
    });
  }
  f.eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Argolite, TryLock) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  bool first = false, second = true;
  f.rt.create_ult(pool, [&] {
    first = m.try_lock();
    second = m.try_lock();
    m.unlock();
  });
  f.eng.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(Argolite, EventualWaitBeforeSet) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Eventual ev;
  sim::TimeNs woke_at = 0;
  f.rt.create_ult(pool, [&] {
    ev.wait();
    woke_at = f.eng.now();
  });
  f.eng.after(sim::usec(500), [&] { ev.set(); });
  f.eng.run();
  EXPECT_GE(woke_at, sim::usec(500));
  EXPECT_TRUE(ev.is_set());
}

TEST(Argolite, EventualWaitAfterSetReturnsImmediately) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Eventual ev;
  ev.set();
  bool done = false;
  f.rt.create_ult(pool, [&] {
    ev.wait();
    done = true;
  });
  f.eng.run();
  EXPECT_TRUE(done);
  EXPECT_LT(f.eng.now(), sim::usec(1));
}

TEST(Argolite, EventualResetReuse) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Eventual ev;
  int wakes = 0;
  f.rt.create_ult(pool, [&] {
    ev.wait();
    ++wakes;
    ev.reset();
    ev.wait();
    ++wakes;
  });
  f.eng.after(sim::usec(10), [&] { ev.set(); });
  f.eng.after(sim::usec(20), [&] { ev.set(); });
  f.eng.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Argolite, CondVarSignalWakesOne) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  abt::CondVar cv;
  int woken = 0;
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::LockGuard g(m);
      cv.wait(m);
      ++woken;
    });
  }
  f.eng.after(sim::usec(10), [&] { cv.signal(); });
  f.eng.after(sim::usec(20), [&] { cv.broadcast(); });
  f.eng.run();
  EXPECT_EQ(woken, 2);
}

TEST(Argolite, BarrierReleasesCohortTogether) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  abt::Barrier bar(3);
  std::vector<sim::TimeNs> done;
  for (int i = 0; i < 3; ++i) {
    f.rt.create_ult(pool, [&, i] {
      abt::compute(sim::usec(10) * (i + 1));  // staggered arrivals
      bar.wait();
      done.push_back(f.eng.now());
    });
  }
  f.eng.run();
  ASSERT_EQ(done.size(), 3u);
  // No one finishes before the slowest arrival at ~30us.
  for (auto t : done) EXPECT_GE(t, sim::usec(30));
}

TEST(Argolite, PoolCountersConsistent) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  for (int i = 0; i < 5; ++i) {
    f.rt.create_ult(pool, [] { abt::compute(sim::usec(1)); });
  }
  EXPECT_EQ(pool.ready_count(), 5u);
  EXPECT_EQ(pool.total_pushed(), 5u);
  f.eng.run();
  EXPECT_EQ(pool.ready_count(), 0u);
  EXPECT_EQ(pool.blocked_count(), 0u);
  EXPECT_EQ(pool.running_count(), 0u);
}

TEST(Argolite, XstreamBusyTimeAccumulates) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  auto& xs = f.rt.create_xstream({&pool});
  f.rt.create_ult(pool, [] {
    abt::compute(sim::usec(30));
    abt::compute(sim::usec(20));
  });
  f.eng.run();
  EXPECT_EQ(xs.busy_time(), sim::usec(50));
  EXPECT_EQ(xs.ults_dispatched(), 1u);
}

TEST(Argolite, DeterministicScheduleForSameSeed) {
  auto run_once = [] {
    AbtFixture f;
    auto& pool = f.rt.create_pool("p");
    f.rt.create_xstream({&pool});
    f.rt.create_xstream({&pool});
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 10; ++i) {
      f.rt.create_ult(pool, [&, i] {
        abt::compute(f.eng.rng().uniform_range(100, 5000));
        trace.push_back(static_cast<std::uint64_t>(i) * 1'000'000 +
                        f.eng.now() % 1'000'000);
      });
    }
    f.eng.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Argolite, ManyUltsStressAndNoLeaks) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  for (int i = 0; i < 4; ++i) f.rt.create_xstream({&pool});
  int completed = 0;
  for (int i = 0; i < 500; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::compute(sim::nsec(500));
      abt::yield();
      abt::compute(sim::nsec(500));
      ++completed;
    });
  }
  f.eng.run();
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(f.rt.live_ults(), 0u);
}

// ---------------------------------------------------------------------------
// In-place continuation: compute resumes and tail dispatches
// ---------------------------------------------------------------------------

TEST(ArgoliteInPlace, IdleLaneComputeContinuesWithoutSwitching) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  auto& xs = f.rt.create_xstream({&pool});
  sim::TimeNs start = 0, end = 0;
  std::uint64_t switches_before = 0, switches_after = 0;
  f.rt.create_ult(pool, [&] {
    start = f.eng.now();
    switches_before = sim::Fiber::current()->switch_count();
    abt::compute(sim::usec(100));
    switches_after = sim::Fiber::current()->switch_count();
    end = f.eng.now();
  });
  f.eng.run();
  EXPECT_EQ(start, abt::kDispatchOverheadNs);
  EXPECT_EQ(end, start + sim::usec(100));
  EXPECT_EQ(switches_after, switches_before);
  EXPECT_EQ(xs.busy_time(), sim::usec(100));
  EXPECT_EQ(f.proc.cpu_time(), sim::usec(100));
  EXPECT_EQ(f.eng.events_continued(), 1u);
  EXPECT_EQ(f.eng.events_processed(), 2u);  // dispatch + compute resume
}

TEST(ArgoliteInPlace, ComputeFallsBackWhenAnEventIsDueFirst) {
  // A competing event strictly inside the compute, and one at exactly its
  // end (FIFO: it was scheduled first), each force the scheduled path. The
  // ULT still observes the exact end time and the ES's accounting.
  for (const sim::DurationNs at : {sim::usec(50), sim::usec(100)}) {
    AbtFixture f;
    auto& pool = f.rt.create_pool("p");
    auto& xs = f.rt.create_xstream({&pool});
    const sim::TimeNs start = abt::kDispatchOverheadNs;
    std::vector<int> order;
    f.eng.at(start + at, [&] { order.push_back(1); });
    sim::TimeNs end = 0;
    std::uint64_t switches_before = 0, switches_after = 0;
    f.rt.create_ult(pool, [&] {
      switches_before = sim::Fiber::current()->switch_count();
      abt::compute(sim::usec(100));
      switches_after = sim::Fiber::current()->switch_count();
      end = f.eng.now();
      order.push_back(2);
    });
    f.eng.run();
    EXPECT_EQ(end, start + sim::usec(100)) << "competitor at " << at;
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "competitor at " << at;
    EXPECT_EQ(switches_after, switches_before + 1) << "competitor at " << at;
    EXPECT_EQ(xs.busy_time(), sim::usec(100));
    EXPECT_EQ(f.proc.cpu_time(), sim::usec(100));
    EXPECT_EQ(f.eng.events_continued(), 0u);
  }
}

TEST(ArgoliteInPlace, TailDispatchRunsTheNextUltInPlace) {
  // One ES, two ready ULTs: when the first finishes, the dispatch of the
  // second is the lane's next event, so it runs in place, one dispatch
  // overhead later, exactly as the scheduled dispatch would.
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  auto& xs = f.rt.create_xstream({&pool});
  std::vector<sim::TimeNs> ran_at;
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] { ran_at.push_back(f.eng.now()); });
  }
  f.eng.run();
  EXPECT_EQ(ran_at, (std::vector<sim::TimeNs>{abt::kDispatchOverheadNs,
                                              2 * abt::kDispatchOverheadNs}));
  EXPECT_EQ(xs.ults_dispatched(), 2u);
  EXPECT_EQ(f.eng.events_continued(), 1u);
  EXPECT_EQ(f.eng.events_processed(), 2u);
}

TEST(ArgoliteInPlace, RunUntilStopsContinuingAtTheDeadline) {
  // The compute would end 1 ns past the deadline: it must stay pending
  // and complete only when the engine is driven again.
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  sim::TimeNs end = 0;
  f.rt.create_ult(pool, [&] {
    abt::compute(sim::usec(10));
    end = f.eng.now();
  });
  const sim::TimeNs deadline = abt::kDispatchOverheadNs + sim::usec(10) - 1;
  f.eng.run_until(deadline);
  EXPECT_EQ(end, 0u);
  EXPECT_EQ(f.eng.events_continued(), 0u);
  f.eng.run_until(deadline + 1);
  EXPECT_EQ(end, deadline + 1);
}

TEST(ArgoliteInPlace, RunMatchesTheStepByStepReference) {
  const oracle::Result ran = oracle::run(oracle::Drive::kRun);
  const oracle::Result stepped = oracle::run(oracle::Drive::kStep);
  EXPECT_EQ(ran.done, stepped.done);
  EXPECT_EQ(ran.events, stepped.events);
  // The reference never continues; the run continues some steps and
  // schedules the rest, so both paths are exercised.
  EXPECT_EQ(stepped.continued, 0u);
  EXPECT_GT(ran.continued, 0u);
  EXPECT_LT(ran.continued, ran.events);
  for (const sim::TimeNs t : ran.done) EXPECT_GT(t, 0u);
}

// ---------------------------------------------------------------------------
// Wake-up herds (one dispatch event per pool push)
// ---------------------------------------------------------------------------

TEST(ArgoliteHerd, PushWakesEveryIdleConsumerWithOneEntry) {
  // The first step takes the ULT; the other seven find the pool empty.
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  for (int i = 0; i < 8; ++i) f.rt.create_xstream({&pool});
  sim::TimeNs ran_at = 0;
  f.rt.create_ult(pool, [&] { ran_at = f.eng.now(); });
  f.eng.run();
  EXPECT_EQ(ran_at, abt::kDispatchOverheadNs);
  EXPECT_EQ(f.rt.xstream(0).ults_dispatched(), 1u);
  EXPECT_EQ(f.eng.events_processed(), 8u);
  EXPECT_EQ(f.eng.events_coalesced(), 7u);
}

TEST(ArgoliteHerd, ScheduleIsPinnedToPerConsumerDispatchEvents) {
  // Computed with one dispatch event per woken consumer, before herds
  // shared an entry.
  const std::vector<sim::TimeNs> kDone = {1450, 2500, 1900, 1280, 1550, 1650,
                                          1750, 1760, 4480, 4520, 4560, 4600,
                                          4640, 4680, 4720, 4780};
  const std::vector<std::uint32_t> kRanOn = {0, 0, 0, 3, 4, 6, 7, 3,
                                             0, 1, 2, 3, 4, 6, 7, 5};
  const oracle::Result ran = oracle::run_herd(oracle::Drive::kRun);
  const oracle::Result stepped = oracle::run_herd(oracle::Drive::kStep);
  for (const oracle::Result* r : {&ran, &stepped}) {
    EXPECT_EQ(r->done, kDone);
    EXPECT_EQ(r->ran_on, kRanOn);
    EXPECT_EQ(r->events, 63u);
  }
  EXPECT_EQ(ran.continued, 9u);
  EXPECT_EQ(stepped.continued, 0u);
}
