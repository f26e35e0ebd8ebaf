// scaling_study: weak-scaling sweep of the sharded (multi-lane) engine.
//
// The HEPnOS data-loader workload is grown with the cluster (per-node work
// held constant: one process per node, a fixed event volume per client)
// while the engine runs with one lane per node and an increasing worker
// pool. For every (nodes, workers) cell we record the simulated makespan,
// the host wall-clock of world.run(), the event throughput and the
// window-protocol counters (windows executed, mailbox pairs merged,
// causality clamps); the speedup column is
// wall(workers=1) / wall(workers=N) at the same node count.
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
// (>= 2.5x at 4 workers, >= 64 nodes) is therefore evaluated only when
// host_cpus >= 4 and reported as SKIPPED otherwise — see EXPERIMENTS.md.
//
// Results land in BENCH_scaling.json (override with --out PATH). --smoke
// shrinks node counts and event volumes for CI.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "workloads/hepnos_world.hpp"

using namespace bench;

namespace {

struct Cell {
  std::uint32_t nodes = 0;
  std::uint32_t lanes = 0;
  std::uint32_t workers = 0;
  double virtual_ms = 0;  ///< simulated data-loader makespan
  double wall_ms = 0;     ///< host wall-clock of world.run()
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
  double alloc_per_event = 0;      ///< allocations / events_processed
  std::uint64_t peak_rss = 0;      ///< ru_maxrss after the cell (monotonic)
  double speedup_vs_1w = 0;

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

Cell run_cell(std::uint32_t nodes, std::uint32_t workers, bool smoke) {
  Cell c;
  c.nodes = nodes;
  c.workers = workers;
  sym::workloads::HepnosWorld world(scaled_params(nodes, workers, smoke));
  c.lanes = world.engine().lane_count();
  const auto t0 = std::chrono::steady_clock::now();
  world.run();
  const auto t1 = std::chrono::steady_clock::now();
  c.virtual_ms = sim::to_millis(world.makespan());
  c.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  c.events_processed = world.engine().events_processed();
  c.events_stored = world.events_stored();
  c.final_virtual_ns = world.engine().now();
  c.lookahead_ns = world.engine().lookahead();
  c.windows = world.engine().windows_executed();
  c.merge_pairs = world.engine().merge_pairs_visited();
  c.dirty_pairs = world.engine().dirty_pairs_posted();
  c.clamps = world.engine().causality_clamps();
  c.digest = world.engine().event_digest();
  c.allocations = world.engine().arena_stats().allocations();
  c.alloc_per_event =
      c.events_processed > 0
          ? static_cast<double>(c.allocations) / c.events_processed
          : 0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.peak_rss = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  return c;
}

void print_cell(const Cell& c) {
  std::printf("nodes %3u  lanes %3u  workers %u  virtual %9.3f ms  "
              "wall %8.2f ms  events %9llu  windows %7llu  pairs %8llu  "
              "speedup x%.2f\n",
              c.nodes, c.lanes, c.workers, c.virtual_ms, c.wall_ms,
              static_cast<unsigned long long>(c.events_processed),
              static_cast<unsigned long long>(c.windows),
              static_cast<unsigned long long>(c.merge_pairs), c.speedup_vs_1w);
}

void write_json(const std::string& path, bool smoke, unsigned host_cpus,
                const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"scaling_study\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"host_cpus\": " << host_cpus << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nodes\": %u, \"lanes\": %u, \"workers\": %u, "
        "\"virtual_ms\": %.6f, \"wall_ms\": %.3f, "
        "\"events_processed\": %llu, \"events_stored\": %llu, "
        "\"final_virtual_ns\": %llu, \"lookahead_ns\": %llu, "
        "\"windows\": %llu, \"merge_pairs\": %llu, \"dirty_pairs\": %llu, "
        "\"dense_pairs\": %llu, \"causality_clamps\": %llu, "
        "\"allocations\": %llu, \"alloc_per_event\": %.6f, "
        "\"peak_rss_bytes\": %llu, "
        "\"speedup_vs_1w\": %.3f}%s\n",
        c.nodes, c.lanes, c.workers, c.virtual_ms, c.wall_ms,
        static_cast<unsigned long long>(c.events_processed),
        static_cast<unsigned long long>(c.events_stored),
        static_cast<unsigned long long>(c.final_virtual_ns),
        static_cast<unsigned long long>(c.lookahead_ns),
        static_cast<unsigned long long>(c.windows),
        static_cast<unsigned long long>(c.merge_pairs),
        static_cast<unsigned long long>(c.dirty_pairs),
        static_cast<unsigned long long>(c.dense_pairs()),
        static_cast<unsigned long long>(c.clamps),
        static_cast<unsigned long long>(c.allocations), c.alloc_per_event,
        static_cast<unsigned long long>(c.peak_rss), c.speedup_vs_1w,
        i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  print_header("HEPnOS weak scaling: lanes x workers sweep",
               "sharded-engine scaling study");

  const unsigned host_cpus = std::thread::hardware_concurrency();
  const std::vector<std::uint32_t> node_scales =
      smoke ? std::vector<std::uint32_t>{8, 16}
            : std::vector<std::uint32_t>{16, 64};
  const std::uint32_t worker_scales[] = {1, 2, 4, 8};

  std::printf("host cpus: %u%s\n\n", host_cpus,
              host_cpus < 4 ? "  (speedup columns are time-sliced; see "
                              "EXPERIMENTS.md)"
                            : "");

  std::vector<Cell> cells;
  bool deterministic = true;
  bool merge_sparse = true;
  bool clamp_free = true;
  bool windows_bounded = true;
  double speedup_4w_large = 0;
  double pair_ratio_large = 0;
  for (const auto nodes : node_scales) {
    double wall_1w = 0;
    std::uint64_t events_1w = 0;
    std::uint64_t digest_1w = 0;
    for (const auto workers : worker_scales) {
      Cell c = run_cell(nodes, workers, smoke);
      if (workers == 1) {
        wall_1w = c.wall_ms;
        events_1w = c.events_processed;
        digest_1w = c.digest;
        if (nodes >= 64 && c.merge_pairs > 0) {
          pair_ratio_large = static_cast<double>(c.dense_pairs()) /
                             static_cast<double>(c.merge_pairs);
        }
      }
      c.speedup_vs_1w = c.wall_ms > 0 ? wall_1w / c.wall_ms : 0;
      if (c.events_processed != events_1w || c.digest != digest_1w) {
        deterministic = false;
      }
      if (c.merge_pairs > c.dirty_pairs) merge_sparse = false;
      if (c.clamps != 0) clamp_free = false;
      if (c.windows > c.window_bound()) windows_bounded = false;
      if (workers == 4 && nodes >= 64) speedup_4w_large = c.speedup_vs_1w;
      print_cell(c);
      cells.push_back(c);
    }
  }

  write_json(out_path, smoke, host_cpus, cells);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!deterministic) {
    std::printf("acceptance: FAIL — events_processed or event digest "
                "diverged across worker counts (determinism violation)\n");
    return 1;
  }
  std::printf("determinism: events_processed and digest identical across "
              "all worker counts: PASS\n");
  if (!merge_sparse) {
    std::printf("acceptance: FAIL — merge sweep visited more pairs than "
                "the lanes registered dirty (dense-sweep regression)\n");
    return 1;
  }
  std::printf("sparse merge: pairs visited <= pairs registered dirty in "
              "every cell: PASS\n");
  if (!clamp_free) {
    std::printf("acceptance: FAIL — a merged event arrived below its "
                "destination clock (window-protocol violation)\n");
    return 1;
  }
  std::printf("causality: zero clamps in every cell: PASS\n");
  if (!windows_bounded) {
    std::printf("acceptance: FAIL — windows exceeded final_virtual_ns / "
                "lookahead + 1 (a window shorter than the lookahead)\n");
    return 1;
  }
  std::printf("window bound: windows <= final_virtual_ns / lookahead + 1 in "
              "every cell: PASS\n");
  if (!smoke) {
    const bool pair_ok = pair_ratio_large >= 10.0;
    std::printf("acceptance: dense/sparse merge-pair ratio at >=64 nodes: "
                "x%.1f >= 10: %s\n",
                pair_ratio_large, pair_ok ? "PASS" : "FAIL");
    if (!pair_ok) return 1;
  }
  if (host_cpus >= 4 && !smoke) {
    const bool ok = speedup_4w_large >= 2.5;
    std::printf("acceptance: speedup at 4 workers / >=64 nodes: x%.2f "
                ">= 2.5: %s\n",
                speedup_4w_large, ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  std::printf("acceptance: parallel-efficiency target SKIPPED (%s)\n",
              smoke ? "smoke run" : "host has fewer than 4 cpus");
  return 0;
}
