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

}  // namespace oracle
