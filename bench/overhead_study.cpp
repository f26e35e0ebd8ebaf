// overhead_study: the §VI-B staged overhead study on the Mobject write
// workload.
//
// The ior+Mobject write workload runs at each of the four measurement
// stages (§VI-B):
//   OFF      instrumentation and measurement disabled
//   STAGE1   metadata (breadcrumb / trace id) propagation only
//   STAGE2   callpath profiling, tracing, system sampling; no PVARs
//   FULL     everything, PVARs integrated on the fly
// For each stage we report the virtual-time makespan (what the simulated
// instrumentation costs do to the workload), averaged over three seeds, and
// the host wall-clock of world.run() per seed (what the measurement
// pipeline itself costs the simulator process). The paper's acceptance bar
// is FULL <= 1.5x OFF on the mean virtual makespan.
//
// Each stage runs Study::reps() times over the same seeds (bench/common.hpp):
// the virtual columns come from repetition 1 and must repeat exactly, wall
// time is the median with min and max. The host cost of the profile store's
// record path itself is BM_ProfileStoreRecord* in micro_benchmarks.
//
// Results are emitted to BENCH_overhead.json (override with --out PATH).
// --smoke shrinks the workload to one seed for CI.
#include <cstdio>

#include "bench/common.hpp"
#include "workloads/mobject_world.hpp"

using namespace bench;

namespace {

/// The deterministic outputs of one stage over every seed.
struct StageRun {
  double virtual_ms = 0;  ///< mean simulated makespan over the seeds
  std::size_t trace_events = 0;     ///< first seed's trace events
  std::size_t profile_entries = 0;  ///< first seed's profile entries

  bool operator==(const StageRun&) const = default;
};

StageRun run_stage(prof::Level level, bool smoke, int seeds, Stopwatch& sw) {
  sym::workloads::MobjectWorld::Params p;
  p.ior.clients = smoke ? 4 : 16;
  p.ior.ops_per_client = smoke ? 4 : 64;
  p.ior.object_bytes = 64 * 1024;
  p.ior.read_fraction = 0.0;  // pure write workload (§V-A write path)
  p.instr = level;

  StageRun res;
  for (int r = 0; r < seeds; ++r) {
    p.seed = 42 + 1000ULL * static_cast<std::uint64_t>(r);
    sym::workloads::MobjectWorld world(p);
    sw.start();
    world.run();
    sw.stop();
    res.virtual_ms += sim::to_millis(world.makespan());
    if (r == 0) {
      for (const auto* t : world.all_traces()) res.trace_events += t->size();
      for (const auto* s : world.all_profiles()) {
        res.profile_entries += s->size();
      }
    }
  }
  res.virtual_ms /= seeds;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Study study("overhead_study", "BENCH_overhead.json", argc, argv);
  const bool smoke = study.smoke();
  const int seeds = smoke ? 1 : 3;
  study.meta().count("seeds", static_cast<std::uint64_t>(seeds));

  print_header("Mobject writes: measurement overhead per stage",
               "§VI-B staged overhead study");

  const prof::Level levels[] = {prof::Level::kOff, prof::Level::kStage1,
                                prof::Level::kStage2, prof::Level::kFull};
  double off_virtual = 0;
  double full_slowdown = 0;
  for (const auto level : levels) {
    auto m = study.measure(
        [&](Stopwatch& sw) { return run_stage(level, smoke, seeds, sw); });
    // The stopwatch spans every seed's run; report the wall per run.
    for (double* ms : {&m.wall.median_ms, &m.wall.min_ms, &m.wall.max_ms}) {
      *ms /= seeds;
    }
    const StageRun& r = m.result;
    if (level == prof::Level::kOff) off_virtual = r.virtual_ms;
    const double slowdown = off_virtual > 0 ? r.virtual_ms / off_virtual : 0;
    full_slowdown = slowdown;
    std::printf("%-8s virtual %9.3f ms (x%.3f vs OFF)  wall %8.2f ms "
                "[%.2f-%.2f]  trace events %6zu  profile entries %4zu\n",
                prof::to_string(level), r.virtual_ms, slowdown,
                m.wall.median_ms, m.wall.min_ms, m.wall.max_ms,
                r.trace_events, r.profile_entries);
    study.row("stages")
        .text("level", prof::to_string(level))
        .real("virtual_ms", r.virtual_ms, 6)
        .measured(m)
        .real("slowdown_vs_off", slowdown, 4)
        .count("trace_events", r.trace_events)
        .count("profile_entries", r.profile_entries);
  }
  std::printf("\n");

  study.gate("full_overhead", full_slowdown <= 1.5,
             "FULL slowdown %.3f <= 1.5x OFF (mean virtual makespan over %d "
             "seeds)",
             full_slowdown, seeds);
  return study.finish();
}
