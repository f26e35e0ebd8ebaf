// scale_study: the million-request open-loop scale sweep.
//
// Drives the loadgen worlds (workloads/loadgen) through a ladder of
// (nodes, client population) cells up to >= 1,000,000 concurrent in-flight
// requests on >= 128 simulated nodes, plus one mix cell per replayed
// application preset (docs/SCENARIOS.md). For every cell it records:
//
//   * in_flight / peak_queued — open-loop pressure at the horizon,
//   * events/sec host throughput (wall clock, reported but never gated),
//   * allocations-per-event from the engine's arena counters — a pure
//     simulation-state metric (vector growths + SmallFn heap spills per
//     executed event), identical for every worker count,
//   * steady-state allocations: the same counter restricted to the second
//     half of the horizon. Each cell first runs a warmup world to learn the
//     arena high-water marks, then pre-sizes the measured worlds with them;
//     after the midpoint every slot, heap entry, outbox and request record
//     recycles, so the acceptance gate is steady_allocations == 0 (the
//     million-request hot path does no malloc/free after warmup),
//   * peak_rss_bytes (ru_maxrss) — process-wide high-water, so cells are
//     swept smallest-to-largest to keep the column meaningful,
//   * arrival/completion checksums, gated bit-identical across the
//     1/2/4/8-worker column (the release-build determinism witness).
//
// The mix cells also print the per-scenario dominant-callpath table: per-op
// requests, bytes, busy/queue time and the busy-time share that makes one
// op class the scenario's dominant callpath.
//
// Every measured cell runs Study::reps() times (bench/common.hpp): the
// counters and checksums come from repetition 1 and must repeat exactly,
// wall time is the median with min and max, and events/sec is derived from
// the median.
//
// Results land in BENCH_scale.json (override with --out PATH). --smoke
// shrinks the ladder for CI but keeps every gate armed.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "workloads/loadgen/loadgen.hpp"

using namespace bench;
namespace lg = sym::workloads::loadgen;

namespace {

/// The deterministic outputs of one measured cell run; every repetition
/// must reproduce them.
struct Run {
  std::uint32_t lanes = 0;
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t peak_queued = 0;
  std::uint64_t request_slots = 0;
  std::uint64_t allocs = 0;         ///< whole-run arena allocations
  std::uint64_t steady_allocs = 0;  ///< second-half arena allocations
  std::uint64_t steady_events = 0;  ///< second-half executed events
  std::uint64_t request_growths = 0;  ///< request-arena vector reallocations
  std::uint64_t arrival_ck = 0;
  std::uint64_t completion_ck = 0;
  std::uint64_t clamps = 0;

  bool operator==(const Run&) const = default;

  /// Same simulated result as `o` (the worker-column determinism witness).
  [[nodiscard]] bool same_result(const Run& o) const {
    return arrival_ck == o.arrival_ck && completion_ck == o.completion_ck &&
           events == o.events;
  }
};

struct CellSpec {
  const lg::Scenario* scenario;
  std::uint32_t nodes;
  std::uint64_t clients;
  sim::DurationNs horizon;
};

sim::DurationNs cycle_of(const lg::Scenario& sc) {
  sim::DurationNs total = 0;
  for (const auto& ph : sc.phases) total += ph.duration;
  return total;
}

/// Capacity plan learned from a warmup run: the measured worlds pre-size
/// every container to its observed high-water mark (with headroom), so the
/// steady-state allocation gate can demand exactly zero.
struct ReservePlan {
  std::vector<std::uint32_t> events_by_lane;
  std::vector<std::uint32_t> outbox_matrix;
  std::uint32_t requests_per_server = 0;
};

lg::LoadgenParams make_params(const CellSpec& spec, std::uint32_t workers,
                              const ReservePlan& plan) {
  lg::LoadgenParams p;
  p.scenario = *spec.scenario;
  p.node_count = spec.nodes;
  p.client_population = spec.clients;
  p.horizon = spec.horizon;
  p.reserve_events_by_lane = plan.events_by_lane;
  p.reserve_outbox_matrix = plan.outbox_matrix;
  p.reserve_requests_per_server = plan.requests_per_server;
  p.seed = 42;
  p.exec.lane_count = 0;  // one lane per node
  p.exec.worker_count = workers;
  return p;
}

/// Run one measured cell. The horizon is split at its midpoint so the
/// second-half allocation delta isolates steady state from warmup.
Run run_once(const CellSpec& spec, std::uint32_t workers,
             const ReservePlan& plan, Stopwatch& sw) {
  lg::LoadgenWorld world(make_params(spec, workers, plan));
  auto& eng = world.engine();
  sw.start();
  eng.run_until(spec.horizon / 2);
  const auto mid_stats = eng.arena_stats();
  const std::uint64_t mid_events = eng.events_processed();
  eng.run_until(spec.horizon);
  sw.stop();
  const auto end_stats = eng.arena_stats();

  Run r;
  r.lanes = eng.lane_count();
  r.events = eng.events_processed();
  r.generated = world.generated();
  r.completed = world.completed();
  r.in_flight = world.in_flight();
  r.peak_queued = world.peak_queued();
  r.request_slots = world.request_slots();
  r.allocs = end_stats.allocations();
  r.steady_allocs = end_stats.allocations() - mid_stats.allocations();
  r.steady_events = r.events - mid_events;
  r.request_growths = world.request_growths();
  r.arrival_ck = world.arrival_checksum();
  r.completion_ck = world.completion_checksum();
  r.clamps = eng.causality_clamps();
  return r;
}

/// Measure one cell, print it and append its row to the study.
Run measure_cell(Study& study, const CellSpec& spec, std::uint32_t workers,
                 const ReservePlan& plan) {
  const auto m = study.measure(
      [&](Stopwatch& sw) { return run_once(spec, workers, plan, sw); });
  const Run& r = m.result;
  const double events_per_sec =
      m.wall.median_ms > 0 ? r.events / (m.wall.median_ms / 1e3) : 0;
  const double alloc_per_event =
      r.events > 0 ? static_cast<double>(r.allocs) / r.events : 0;
  const std::uint64_t rss = peak_rss_bytes();
  std::printf(
      "%-18s nodes %3u workers %u  gen %8llu  done %7llu  inflight %8llu  "
      "wall %8.1f ms [%.1f-%.1f]  %9.0f ev/s  alloc/ev %.5f  steady %llu  "
      "rss %5.0f MiB\n",
      spec.scenario->name, spec.nodes, workers,
      static_cast<unsigned long long>(r.generated),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.in_flight), m.wall.median_ms,
      m.wall.min_ms, m.wall.max_ms, events_per_sec, alloc_per_event,
      static_cast<unsigned long long>(r.steady_allocs),
      static_cast<double>(rss) / (1024.0 * 1024.0));
  study.row("cells")
      .text("scenario", spec.scenario->name)
      .count("nodes", spec.nodes)
      .count("lanes", r.lanes)
      .count("workers", workers)
      .count("clients", spec.clients)
      .real("horizon_ms", sim::to_millis(spec.horizon), 3)
      .measured(m)
      .count("events", r.events)
      .real("events_per_sec", events_per_sec, 0)
      .count("generated", r.generated)
      .count("completed", r.completed)
      .count("in_flight", r.in_flight)
      .count("peak_queued", r.peak_queued)
      .count("request_slots", r.request_slots)
      .count("allocations", r.allocs)
      .real("alloc_per_event", alloc_per_event, 6)
      .count("steady_allocations", r.steady_allocs)
      .count("steady_events", r.steady_events)
      .count("request_growths", r.request_growths)
      .count("arrival_checksum", r.arrival_ck)
      .count("completion_checksum", r.completion_ck)
      .count("causality_clamps", r.clamps)
      .count("peak_rss_bytes", rss);
  return r;
}

/// Warmup pass: learn the per-lane slot, per-pair outbox and per-server
/// request high-water marks so the measured worlds can pre-size every
/// container.
ReservePlan warmup_reserves(const CellSpec& spec) {
  lg::LoadgenWorld warm(make_params(spec, 1, ReservePlan{}));
  warm.engine().run_until(spec.horizon);
  ReservePlan plan;
  const std::uint32_t lanes = warm.engine().lane_count();
  plan.events_by_lane.resize(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    plan.events_by_lane[l] = static_cast<std::uint32_t>(
        warm.engine().arena_slot_count(l) * 2 + 64);
  }
  plan.outbox_matrix = warm.engine().outbox_highwater();
  for (auto& hw : plan.outbox_matrix) {
    if (hw != 0) hw = hw * 2 + 16;
  }
  plan.requests_per_server = static_cast<std::uint32_t>(
      warm.request_slots() / warm.server_count() * 2 + 256);
  return plan;
}

/// Run one mix cell to its horizon, print its dominant-callpath table and
/// append one `mix_ops` row per op class.
void report_mix(Study& study, const CellSpec& spec, const ReservePlan& plan) {
  const lg::Scenario& sc = *spec.scenario;
  lg::LoadgenWorld world(make_params(spec, 1, plan));
  world.run();
  const auto& ops = world.op_totals();
  const std::uint32_t dominant = world.dominant_op();
  std::uint64_t busy_total = 0;
  for (const auto& ot : ops) busy_total += ot.busy_ns;
  std::printf("\n%s — dominant callpaths (%s)\n", sc.name, sc.summary);
  std::printf("  %-14s %-10s %9s %9s %11s %10s %10s %6s\n", "op", "service",
              "requests", "done", "bytes", "busy ms", "queue ms", "share");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& ot = ops[i];
    const char* service = lg::service_name(sc.ops[i].service);
    const double share =
        busy_total > 0 ? 100.0 * ot.busy_ns / busy_total : 0.0;
    std::printf("  %-14s %-10s %9llu %9llu %11llu %10.2f %10.2f %5.1f%%%s\n",
                sc.ops[i].name, service,
                static_cast<unsigned long long>(ot.requests),
                static_cast<unsigned long long>(ot.completed),
                static_cast<unsigned long long>(ot.bytes),
                ot.busy_ns / 1e6, ot.queue_ns / 1e6, share,
                i == dominant ? "  <- dominant" : "");
    study.row("mix_ops")
        .text("scenario", sc.name)
        .text("op", sc.ops[i].name)
        .text("service", service)
        .flag("dominant", i == dominant)
        .count("requests", ot.requests)
        .count("completed", ot.completed)
        .count("bytes", ot.bytes)
        .real("busy_ms", ot.busy_ns / 1e6, 3)
        .real("queue_ms", ot.queue_ns / 1e6, 3);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Study study("scale_study", "BENCH_scale.json", argc, argv);
  const bool smoke = study.smoke();

  print_header("Open-loop scale study: nodes x in-flight ladder + app mixes",
               "SYMBIOSYS scale methodology; see EXPERIMENTS.md");

  const auto& presets = lg::presets();
  const lg::Scenario& dl = presets[0];

  // Ladder: grow nodes and population together; the last rung is the
  // million-request gate cell. Horizons span two full phase cycles so the
  // two halves of the steady-state split see the same mix.
  std::vector<CellSpec> ladder;
  if (smoke) {
    ladder.push_back(CellSpec{&dl, 16, 5'000, 2 * cycle_of(dl)});
  } else {
    ladder.push_back(CellSpec{&dl, 16, 10'000, 2 * cycle_of(dl)});
    ladder.push_back(CellSpec{&dl, 64, 50'000, 2 * cycle_of(dl)});
    ladder.push_back(CellSpec{&dl, 128, 150'000, 2 * cycle_of(dl)});
  }
  const std::vector<std::uint32_t> worker_scales =
      smoke ? std::vector<std::uint32_t>{1, 2}
            : std::vector<std::uint32_t>{1, 2, 4, 8};

  std::printf("host cpus: %u  repetitions: %d\n\n", study.host_cpus(),
              study.reps());

  bool det_pass = true;
  bool steady_pass = true;
  std::uint64_t peak_inflight = 0;
  std::uint32_t peak_nodes = 0;
  for (const auto& spec : ladder) {
    const ReservePlan plan = warmup_reserves(spec);
    Run run_1w;
    for (const auto workers : worker_scales) {
      const Run r = measure_cell(study, spec, workers, plan);
      if (workers == 1) {
        run_1w = r;
      } else if (!r.same_result(run_1w)) {
        det_pass = false;
      }
      if (r.steady_allocs != 0) steady_pass = false;
      if (r.in_flight > peak_inflight) {
        peak_inflight = r.in_flight;
        peak_nodes = spec.nodes;
      }
    }
    std::printf("\n");
  }

  // One mix cell per replayed application preset: the dominant-callpath
  // tables. Worker pair {1, max} re-checks checksum identity per preset.
  const std::uint32_t mix_nodes = smoke ? 8 : 64;
  const std::uint64_t mix_clients = smoke ? 2'000 : 20'000;
  for (const auto& sc : presets) {
    const CellSpec spec{&sc, mix_nodes, mix_clients,
                        (smoke ? 1 : 2) * cycle_of(sc)};
    const ReservePlan plan = warmup_reserves(spec);
    const Run base = measure_cell(study, spec, 1, plan);
    if (!smoke) {
      const Run par = measure_cell(study, spec, worker_scales.back(), plan);
      if (!par.same_result(base)) det_pass = false;
      if (par.steady_allocs != 0) steady_pass = false;
    }
    report_mix(study, spec, plan);
  }

  study.meta()
      .count("peak_in_flight", peak_inflight)
      .count("peak_nodes", peak_nodes);
  study.gate("determinism", det_pass,
             "arrival/completion checksums and event counts identical across "
             "worker column");
  study.gate("steady_zero_alloc", steady_pass,
             "second-half arena allocations == 0 in every reserved cell");
  if (smoke) {
    study.skip("million_in_flight", "smoke run");
    study.gate("open_loop_backlog", peak_inflight > 0,
               "open-loop backlog observed (in-flight %llu > 0)",
               static_cast<unsigned long long>(peak_inflight));
  } else {
    study.gate("million_in_flight",
               peak_inflight >= 1'000'000 && peak_nodes >= 128,
               "%llu concurrent in-flight requests on %u nodes (>= 1,000,000 "
               "on >= 128)",
               static_cast<unsigned long long>(peak_inflight), peak_nodes);
    study.skip("open_loop_backlog", "full run gates million_in_flight");
  }
  return study.finish();
}
