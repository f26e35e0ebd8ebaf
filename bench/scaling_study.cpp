// scaling_study: weak-scaling sweep of the sharded (multi-lane) engine.
//
// The HEPnOS data-loader workload is grown with the cluster (per-node work
// held constant: one process per node, a fixed event volume per client)
// while the engine runs with one lane per node and an increasing worker
// pool. For every (nodes, workers) cell we record the simulated makespan,
// the host wall-clock of world.run(), the event throughput and the
// window-protocol counters (windows executed, mailbox pairs merged,
// causality clamps); the speedup column is
// median wall(workers=1) / median wall(workers=N) at the same node count.
//
// Gates. The safe-window protocol guarantees bit-identical simulations for
// every worker count, so the sweep doubles as a large-scale determinism
// check: events_processed (and, under -DSYM_DEBUG_CHECKS=ON, the per-lane
// event digest) must match across the worker column. Three more gates are
// host-independent protocol invariants:
//   * sparse merge: the merge never visits more pairs than the lanes
//     registered dirty;
//   * no clamps: no merged event ever arrives below its destination clock;
//   * window bound: windows <= final_virtual_ns / lookahead + 1, since each
//     lockstep window starts at least one lookahead after the previous one.
// All four run in smoke mode, so CI catches a regression. Full mode adds
//   pair_ratio = windows * lanes * (lanes-1) / merge pairs >= 10 at 64 nodes
// (a dense sweep would visit every (dst, src) pair every window; the sparse
// sweep visits only pairs that actually received a post).
//
// Interpreting the speedup honestly requires the host CPU count, which is
// recorded as `host_cpus` in the JSON: workers beyond the physical cores
// time-slice a single core and cannot beat workers=1 (they only pay the
// window-barrier overhead). The parallel-efficiency acceptance target
// (>= 2.5x at 4 workers, >= 64 nodes, on median wall times) is therefore
// evaluated only when host_cpus >= 4 and reported as SKIPPED otherwise —
// see EXPERIMENTS.md.
//
// Every cell runs Study::reps() times (bench/common.hpp): the counters come
// from repetition 1 and must repeat exactly, wall time is the median with
// min and max. Results land in BENCH_scaling.json (override with --out
// PATH). --smoke shrinks node counts and event volumes for CI.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "workloads/hepnos_world.hpp"

using namespace bench;

namespace {

/// The deterministic outputs of one world.run(); every repetition must
/// reproduce them.
struct Run {
  std::uint32_t lanes = 0;
  double virtual_ms = 0;  ///< simulated data-loader makespan
  std::uint64_t events_processed = 0;
  std::uint64_t events_stored = 0;
  std::uint64_t final_virtual_ns = 0;  ///< engine clock when run() returned
  std::uint64_t lookahead_ns = 0;
  std::uint64_t windows = 0;
  std::uint64_t merge_pairs = 0;   ///< (dst, src) pairs the merge absorbed
  std::uint64_t dirty_pairs = 0;   ///< pairs registered by first posts
  std::uint64_t clamps = 0;        ///< merged events below the dst clock
  std::uint64_t digest = 0;        ///< event digest (0 unless SYM_DEBUG_CHECKS)
  std::uint64_t allocations = 0;   ///< arena growths + SmallFn heap spills

  bool operator==(const Run&) const = default;

  [[nodiscard]] double alloc_per_event() const {
    return events_processed > 0
               ? static_cast<double>(allocations) / events_processed
               : 0;
  }
  /// Pairs a dense sweep over every (dst, src) pair would have visited.
  [[nodiscard]] std::uint64_t dense_pairs() const {
    return windows * lanes * static_cast<std::uint64_t>(lanes - 1);
  }
  /// Lockstep windows start at least one lookahead apart.
  [[nodiscard]] std::uint64_t window_bound() const {
    return final_virtual_ns / lookahead_ns + 1;
  }
};

/// Weak-scaling deployment: one process per node, a quarter of the nodes
/// serve, the rest run data-loader clients.
sym::workloads::HepnosWorld::Params scaled_params(std::uint32_t nodes,
                                                  std::uint32_t workers,
                                                  bool smoke) {
  const std::uint32_t servers = nodes / 4;
  sym::workloads::HepnosWorld::Params p;
  p.config.name = "weak-scaling";
  p.config.total_servers = servers;
  p.config.servers_per_node = 1;
  p.config.total_clients = nodes - servers;
  p.config.clients_per_node = 1;
  p.config.databases = 2 * servers;
  p.config.threads_es = 4;
  p.config.batch_size = 512;
  p.file_model.events_per_file = smoke ? 16 : 96;
  p.file_model.payload_bytes = 256;
  p.files_per_client = 1;
  p.seed = 42;
  p.exec.lane_count = 0;  // one lane per node
  p.exec.worker_count = workers;
  return p;
}

Run run_once(std::uint32_t nodes, std::uint32_t workers, bool smoke,
             Stopwatch& sw) {
  sym::workloads::HepnosWorld world(scaled_params(nodes, workers, smoke));
  sw.start();
  world.run();
  sw.stop();
  const auto& eng = world.engine();
  Run r;
  r.lanes = eng.lane_count();
  r.virtual_ms = sim::to_millis(world.makespan());
  r.events_processed = eng.events_processed();
  r.events_stored = world.events_stored();
  r.final_virtual_ns = eng.now();
  r.lookahead_ns = eng.lookahead();
  r.windows = eng.windows_executed();
  r.merge_pairs = eng.merge_pairs_visited();
  r.dirty_pairs = eng.dirty_pairs_posted();
  r.clamps = eng.causality_clamps();
  r.digest = eng.event_digest();
  r.allocations = eng.arena_stats().allocations();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Study study("scaling_study", "BENCH_scaling.json", argc, argv);
  const bool smoke = study.smoke();

  print_header("HEPnOS weak scaling: lanes x workers sweep",
               "sharded-engine scaling study");

  const unsigned host_cpus = study.host_cpus();
  const std::vector<std::uint32_t> node_scales =
      smoke ? std::vector<std::uint32_t>{8, 16}
            : std::vector<std::uint32_t>{16, 64};
  const std::uint32_t worker_scales[] = {1, 2, 4, 8};

  std::printf("host cpus: %u%s  repetitions: %d\n\n", host_cpus,
              host_cpus < 4 ? "  (speedup columns are time-sliced; see "
                              "EXPERIMENTS.md)"
                            : "",
              study.reps());

  bool deterministic = true;
  bool merge_sparse = true;
  bool clamp_free = true;
  bool windows_bounded = true;
  double speedup_4w_large = 0;
  double pair_ratio_large = 0;
  for (const auto nodes : node_scales) {
    double wall_1w = 0;
    Run run_1w;
    for (const auto workers : worker_scales) {
      const auto m = study.measure(
          [&](Stopwatch& sw) { return run_once(nodes, workers, smoke, sw); });
      const Run& r = m.result;
      if (workers == 1) {
        wall_1w = m.wall.median_ms;
        run_1w = r;
        if (nodes >= 64 && r.merge_pairs > 0) {
          pair_ratio_large = static_cast<double>(r.dense_pairs()) /
                             static_cast<double>(r.merge_pairs);
        }
      }
      const double speedup =
          m.wall.median_ms > 0 ? wall_1w / m.wall.median_ms : 0;
      if (r.events_processed != run_1w.events_processed ||
          r.digest != run_1w.digest) {
        deterministic = false;
      }
      if (r.merge_pairs > r.dirty_pairs) merge_sparse = false;
      if (r.clamps != 0) clamp_free = false;
      if (r.windows > r.window_bound()) windows_bounded = false;
      if (workers == 4 && nodes >= 64) speedup_4w_large = speedup;
      std::printf("nodes %3u  lanes %3u  workers %u  virtual %9.3f ms  "
                  "wall %8.2f ms [%.2f-%.2f]  events %9llu  windows %7llu  "
                  "pairs %8llu  speedup x%.2f\n",
                  nodes, r.lanes, workers, r.virtual_ms, m.wall.median_ms,
                  m.wall.min_ms, m.wall.max_ms,
                  static_cast<unsigned long long>(r.events_processed),
                  static_cast<unsigned long long>(r.windows),
                  static_cast<unsigned long long>(r.merge_pairs), speedup);
      study.row("cells")
          .count("nodes", nodes)
          .count("lanes", r.lanes)
          .count("workers", workers)
          .real("virtual_ms", r.virtual_ms, 6)
          .measured(m)
          .count("events_processed", r.events_processed)
          .count("events_stored", r.events_stored)
          .count("final_virtual_ns", r.final_virtual_ns)
          .count("lookahead_ns", r.lookahead_ns)
          .count("windows", r.windows)
          .count("merge_pairs", r.merge_pairs)
          .count("dirty_pairs", r.dirty_pairs)
          .count("dense_pairs", r.dense_pairs())
          .count("causality_clamps", r.clamps)
          .count("allocations", r.allocations)
          .real("alloc_per_event", r.alloc_per_event(), 6)
          .count("peak_rss_bytes", peak_rss_bytes())
          .real("speedup_vs_1w", speedup, 3);
    }
  }
  std::printf("\n");

  study.gate("determinism", deterministic,
             "events_processed and event digest identical across all worker "
             "counts");
  study.gate("sparse_merge", merge_sparse,
             "pairs visited <= pairs registered dirty in every cell");
  study.gate("no_clamps", clamp_free, "zero causality clamps in every cell");
  study.gate("window_bound", windows_bounded,
             "windows <= final_virtual_ns / lookahead + 1 in every cell");
  if (smoke) {
    study.skip("pair_ratio", "smoke run");
  } else {
    study.gate("pair_ratio", pair_ratio_large >= 10.0,
               "dense/sparse merge-pair ratio at >=64 nodes: x%.1f >= 10",
               pair_ratio_large);
  }
  if (host_cpus >= 4 && !smoke) {
    study.gate("speedup_4w", speedup_4w_large >= 2.5,
               "median speedup at 4 workers / >=64 nodes: x%.2f >= 2.5",
               speedup_4w_large);
  } else {
    study.skip("speedup_4w",
               smoke ? "smoke run" : "host has fewer than 4 cpus");
  }
  return study.finish();
}
