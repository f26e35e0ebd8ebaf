// tests/abt_oracle.hpp
//
// Sequential-reference oracle for the engine's in-place continuation. On
// every node, six ULTs on two execution streams mix abt::compute, Eventual,
// Mutex and sleep_for; the last ULT to finish on a node starts the next
// node's ULTs across the link. Engine::run() continues compute resumes and
// tail dispatches in place whenever they are the lane's next event;
// Engine::step() never does. Both must produce the same per-ULT completion
// times, the same logical event count and (under SYM_DEBUG_CHECKS) the same
// event digest.
//
// run_herd() is the wake-up herd workload: eight execution streams idle on
// one shared pool, so a single push wakes all of them as one multi-step
// dispatch event. Its pushes land at the herd's start, inside the herd's
// dispatch overhead and from inside a dispatched ULT; one member is parked
// before its step, and one ES also consumes a second pool. Its per-ULT
// completion times, executing ES ranks and event count are pinned to the
// values the per-consumer dispatch events produced.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "argolite/runtime.hpp"
#include "argolite/sync.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"

namespace oracle {

namespace sim = sym::sim;
namespace abt = sym::abt;

enum class Drive { kRun, kStep };

struct Result {
  std::vector<sim::TimeNs> done;  ///< completion time per ULT, by ULT index
  std::vector<std::uint32_t> ran_on;  ///< ES rank finishing each ULT (herd)
  std::uint64_t events = 0;
  std::uint64_t continued = 0;
  std::uint64_t digest = 0;
};

inline constexpr std::uint32_t kUltsPerNode = 6;

inline Result run(Drive drive, sim::EngineConfig cfg = {},
                  std::uint32_t nodes = 4) {
  sim::Engine eng(1009, cfg);
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = nodes});

  struct Node {
    std::unique_ptr<abt::Runtime> rt;
    abt::Eventual go;
    abt::Mutex m;
    std::uint32_t finished = 0;
  };
  std::vector<Node> node(nodes);
  Result r;
  r.done.assign(std::size_t{nodes} * kUltsPerNode, 0);

  for (std::uint32_t n = 0; n < nodes; ++n) {
    Node& me = node[n];
    me.rt = std::make_unique<abt::Runtime>(
        eng, cluster.spawn_process(n, "oracle"));
    abt::Pool& p0 = me.rt->create_pool("p0");
    abt::Pool& p1 = me.rt->create_pool("p1");
    me.rt->create_xstream({&p0, &p1});
    me.rt->create_xstream({&p1, &p0});
    for (std::uint32_t k = 0; k < kUltsPerNode; ++k) {
      me.rt->create_ult(k % 2 == 0 ? p0 : p1, [&eng, &cluster, &node, &r,
                                                nodes, n, k] {
        Node& here = node[n];
        here.go.wait();
        abt::compute(sim::usec(1 + k % 3));
        {
          abt::LockGuard hold(here.m);
          abt::compute(sim::nsec(400 * (k + 1)));
        }
        abt::sleep_for(sim::nsec(700 * k));
        abt::compute(sim::nsec(250));
        abt::compute(sim::nsec(90 * k));
        r.done[n * kUltsPerNode + k] = eng.now();
        if (++here.finished == kUltsPerNode && n + 1 < nodes) {
          Node* next = &node[n + 1];
          eng.after_on(eng.lane_for_node(n + 1),
                       cluster.link_latency(n, n + 1),
                       [next] { next->go.set(); });
        }
      });
    }
  }
  node[0].go.set();

  if (drive == Drive::kRun) {
    eng.run();
  } else {
    while (eng.step()) {
    }
  }
  r.events = eng.events_processed();
  r.continued = eng.events_continued();
  r.digest = eng.event_digest();
  return r;
}

inline constexpr std::uint32_t kHerdEs = 8;
inline constexpr std::uint32_t kHerdUlts = 16;
inline constexpr std::uint32_t kHerdTwoPoolEs = 3;  ///< consumes side+shared
inline constexpr std::uint32_t kHerdParkedEs = 5;
inline constexpr sim::TimeNs kHerdT0 = 1000;

inline Result run_herd(Drive drive) {
  sim::Engine eng(1009);
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  abt::Runtime rt(eng, cluster.spawn_process(0, "herd"));
  abt::Pool& shared = rt.create_pool("shared");
  abt::Pool& side = rt.create_pool("side");
  std::vector<abt::Xstream*> es;
  for (std::uint32_t i = 0; i < kHerdEs; ++i) {
    es.push_back(&rt.create_xstream(
        i == kHerdTwoPoolEs ? std::vector<abt::Pool*>{&side, &shared}
                            : std::vector<abt::Pool*>{&shared}));
  }
  Result r;
  r.done.assign(kHerdUlts, 0);
  r.ran_on.assign(kHerdUlts, 0);
  const auto finish = [&eng, &r](std::uint32_t u) {
    r.done[u] = eng.now();
    r.ran_on[u] = abt::Xstream::current()->rank();
  };
  // ULT u computes for a u-dependent while; the 0th pushes three more ULTs
  // into the shared pool from inside its own dispatch, the 4th one more
  // into the side pool.
  const auto worker = [&](std::uint32_t u) {
    return [&, u] {
      if (u == 0) {
        for (std::uint32_t c = 4; c < 7; ++c) {
          rt.create_ult(shared, [&, c] {
            abt::compute(sim::nsec(100 * c));
            if (c == 4) {
              rt.create_ult(side, [&] {
                abt::compute(sim::nsec(60));
                finish(7);
              });
            }
            finish(c);
          });
        }
        abt::compute(sim::nsec(300));
      } else if (u == 1) {
        abt::compute(sim::usec(1));
        abt::yield();
        abt::compute(sim::nsec(200));
      } else if (u == 2) {
        abt::sleep_for(sim::nsec(500));
        abt::compute(sim::nsec(100));
      } else {
        abt::compute(sim::nsec(40 * u));
        abt::compute(sim::nsec(10));
      }
      finish(u);
    };
  };
  // t0: one push wakes all eight idle ESs; the second finds them waking.
  eng.at(kHerdT0, [&] {
    rt.create_ult(shared, worker(0));
    rt.create_ult(shared, worker(1));
  });
  // Inside the herd's dispatch overhead: more work, and one member parked
  // before its step runs.
  eng.at(kHerdT0 + 50, [&] {
    rt.create_ult(shared, worker(2));
    rt.create_ult(side, worker(3));
    es[kHerdParkedEs]->set_enabled(false);
  });
  // Later: a second herd of the seven enabled ESs, and the parked member
  // re-enabled while that herd's steps are still pending (a single-ES wake
  // that takes the eighth ULT).
  eng.at(kHerdT0 + 3000, [&] {
    for (std::uint32_t u = 8; u < kHerdUlts; ++u) {
      rt.create_ult(shared, worker(u));
    }
  });
  eng.at(kHerdT0 + 3020, [&] { es[kHerdParkedEs]->set_enabled(true); });

  if (drive == Drive::kRun) {
    eng.run();
  } else {
    while (eng.step()) {
    }
  }
  r.events = eng.events_processed();
  r.continued = eng.events_continued();
  r.digest = eng.event_digest();
  return r;
}

}  // namespace oracle
