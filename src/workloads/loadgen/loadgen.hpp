// workloads/loadgen/loadgen.hpp
//
// Open-loop load generator: the million-request driver for the scale
// studies. Unlike the closed-loop worlds (hepnos_world, mobject_world),
// where each simulated client fiber waits for its previous request before
// issuing the next — which self-throttles exactly when the system starts to
// collapse — the loadgen's arrival process is independent of completions:
// client nodes emit deterministic heavy-tailed (bounded-Pareto) arrival
// streams for a configurable client population, so overload shows up as
// unbounded queue growth instead of being masked.
//
// Clients are *populations*, not fibers: each client node runs one arrival
// pump per node that draws interarrival gaps for its whole client share from
// the lane's Rng stream, and every request is a 48-byte RequestRec in the
// destination server's lane-owned RequestArena (argolite/request.hpp).
// 10k-1M concurrent clients cost kilobytes of pump state plus one arena
// slot per in-flight request — no fiber stacks anywhere on the path.
//
// Topology and determinism: server state (FIFO queue, arena, counters,
// checksums) is owned by the server node's lane; arrivals travel client lane
// -> server lane through the engine's deterministic window mailboxes with
// the cluster link latency, so every digest and counter is bit-identical for
// any worker count. Completion checksums fold (request id, completion time)
// per lane and combine in lane order — a determinism witness that works in
// release builds, where the engine's debug event digest is compiled out.
//
// Each server node models the composed service stack of the paper's
// deployments: requests for Mobject, HEPnOS and blockcache classes share the
// node's single service queue (the Margo progress loop / ES the co-located
// providers share) but are served with their own class's calibrated
// service-time model (fixed per-op cost + size/bandwidth). The loadgen
// drives these queueing models rather than the full RPC stack: at millions
// of in-flight requests the object of study is arrival/service dynamics and
// engine capacity, and the model constants come from the service benches.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "argolite/request.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "workloads/loadgen/scenarios.hpp"

namespace sym::workloads::loadgen {

struct LoadgenParams {
  Scenario scenario;
  /// Simulated nodes. The first `server_nodes` host the composed service
  /// stack; the rest run client arrival pumps.
  std::uint32_t node_count = 16;
  /// 0 = auto: node_count / 4, at least 1.
  std::uint32_t server_nodes = 0;
  /// Simulated client population, spread evenly over the client nodes.
  std::uint64_t client_population = 10000;
  /// Virtual-time horizon the world runs to.
  sim::DurationNs horizon = sim::msec(5);
  /// Arrival pump batching quantum: each pump event materializes the
  /// arrivals of one quantum and reschedules itself.
  sim::DurationNs pump_quantum = sim::usec(50);
  /// Pre-size each server's request arena (0 = grow on demand). Steady
  /// -state zero-allocation runs pass the expected queue high-water mark.
  std::uint32_t reserve_requests_per_server = 0;
  /// Per-lane event arena/heap reserve (empty = grow on demand). Event
  /// populations are skewed — server lanes hold the in-transit deliveries —
  /// so a warmup run's per-lane high-water marks are the capacities.
  std::vector<std::uint32_t> reserve_events_by_lane{};
  /// Row-major lanes^2 outbox capacity plan (Engine::outbox_highwater from
  /// a warmup run; empty = grow on demand).
  std::vector<std::uint32_t> reserve_outbox_matrix{};
  /// Record every generated arrival for the golden-sequence tests (memory
  /// -heavy; leave off for benches).
  bool record_arrivals = false;
  std::uint64_t seed = 42;
  sim::EngineConfig exec{};
};

/// Per-op aggregates for the dominant-callpath table.
struct OpTotals {
  std::uint64_t requests = 0;   ///< arrivals delivered to a server
  std::uint64_t completed = 0;  ///< served to completion within the horizon
  std::uint64_t bytes = 0;      ///< payload bytes of completed requests
  std::uint64_t busy_ns = 0;    ///< virtual time servers spent serving
  std::uint64_t queue_ns = 0;   ///< virtual time completed requests queued
};

/// One generated arrival (golden-sequence tests only).
struct ArrivalRecord {
  sim::TimeNs t;
  std::uint64_t id;
  std::uint64_t bytes;
  std::uint32_t server;
  std::uint16_t op;

  bool operator==(const ArrivalRecord&) const = default;
};

class LoadgenWorld {
 public:
  explicit LoadgenWorld(LoadgenParams params);
  ~LoadgenWorld();
  LoadgenWorld(const LoadgenWorld&) = delete;
  LoadgenWorld& operator=(const LoadgenWorld&) = delete;

  /// Run the open-loop mix to the horizon.
  void run();

  [[nodiscard]] const LoadgenParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] sim::Engine& engine() noexcept { return *eng_; }
  [[nodiscard]] std::uint32_t server_count() const noexcept {
    return static_cast<std::uint32_t>(servers_.size());
  }

  // --- request-level results (valid after run()) ---------------------------

  /// Arrivals generated by the pumps (posted toward a server).
  [[nodiscard]] std::uint64_t generated() const noexcept;
  /// Requests served to completion within the horizon.
  [[nodiscard]] std::uint64_t completed() const noexcept;
  /// Concurrent in-flight requests at the horizon: generated but not yet
  /// completed (in transit, queued, or in service). The open-loop scale
  /// studies gate on this.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return generated() - completed();
  }
  /// Deepest single-server queue observed.
  [[nodiscard]] std::uint64_t peak_queued() const noexcept;
  /// Request-arena slots ever created across servers (high-water mark).
  [[nodiscard]] std::uint64_t request_slots() const noexcept;
  /// Request-arena slots recycled from freelists (steady-state reuse).
  [[nodiscard]] std::uint64_t requests_recycled() const noexcept;
  /// Request-arena slot-table reallocations across servers (0 once the
  /// arenas are pre-sized to their high-water mark).
  [[nodiscard]] std::uint64_t request_growths() const noexcept;

  /// Fold of (id, virtual arrival time) over every generated arrival,
  /// per client node, combined in node order: a worker-count-independent
  /// fingerprint of the arrival schedule that works in release builds.
  [[nodiscard]] std::uint64_t arrival_checksum() const noexcept;
  /// Fold of (id, completion time) over every completed request, combined
  /// in node order. The scale bench gates on bit-identity across 1/2/4/8
  /// workers.
  [[nodiscard]] std::uint64_t completion_checksum() const noexcept;

  /// Per-op aggregates, indexed like scenario.ops.
  [[nodiscard]] std::vector<OpTotals> op_totals() const;
  /// Index of the op class with the largest total service (busy) time —
  /// the scenario's dominant callpath.
  [[nodiscard]] std::uint32_t dominant_op() const;

  /// Generated arrivals in (node, emission) order; requires
  /// params.record_arrivals.
  [[nodiscard]] std::vector<ArrivalRecord> arrival_log() const;

 private:
  /// Per-server state, owned by the lane of its node.
  struct Server {
    std::uint32_t node = 0;
    abt::RequestArena arena;
    std::uint32_t q_head = abt::RequestRec::kNil;
    std::uint32_t q_tail = abt::RequestRec::kNil;
    std::uint64_t queued = 0;
    std::uint64_t peak_queued = 0;
    bool busy = false;
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t checksum = 0;
    std::vector<OpTotals> per_op;
  };

  /// Per-client-node pump state, owned by the lane of its node.
  struct Pump {
    std::uint32_t node = 0;
    std::uint64_t clients = 0;
    sim::TimeNs next_arrival = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t generated = 0;
    std::uint64_t checksum = 0;
    std::vector<ArrivalRecord> log;
  };

  void pump_tick(std::uint32_t pump_idx);
  void emit_arrival(Pump& pump, sim::TimeNs t);
  void deliver(std::uint32_t server_idx, std::uint64_t id, std::uint64_t bytes,
               std::uint16_t op);
  void start_service(std::uint32_t server_idx, std::uint32_t rec_idx);
  void complete(std::uint32_t server_idx, std::uint32_t rec_idx);

  /// Phase active at virtual time t (phases cycle over the horizon).
  [[nodiscard]] const Phase& phase_at(sim::TimeNs t,
                                      std::uint32_t* index = nullptr) const;

  LoadgenParams params_;
  std::unique_ptr<sim::Engine> eng_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::vector<Server> servers_;  ///< index s lives on node s
  std::vector<Pump> pumps_;      ///< client nodes, in node order
  sim::DurationNs cycle_len_ = 0;
  bool ran_ = false;
};

}  // namespace sym::workloads::loadgen
