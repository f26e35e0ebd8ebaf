// perfbench_driver: one closed-loop workload through the whole stack
// (simkit -> sofi -> merclite -> argolite/margolite -> services ->
// symbiosys), measured from outside the program.
//
//   perfbench_driver --workload hepnos_ingest|mobject_rw|hepnos_sharded
//                    --seed N --seconds S --trace 0|1 [--tiny]
//
// --trace 0 repeats setup + run + analysis until S seconds have passed and
// prints the end-to-end metrics as medians over the repetitions. --trace 1
// repeats a FULL run, a FULL run at 2 workers (hepnos_sharded only) and an
// uninstrumented run, and prints the per-layer metrics: wall time of the
// calls into each layer's public functions, timed here, plus each layer's
// public counters and PVARs read after the run. Nothing inside the program
// is changed.
//
// The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when a correctness check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "symbiosys/analysis.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/mobject_world.hpp"
#include "workloads/table4.hpp"

namespace {

namespace sim = sym::sim;
namespace prof = sym::prof;
namespace margo = sym::margo;
namespace wl = sym::workloads;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

double cpu_sys_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kHepnosIngest, kMobjectRw, kHepnosSharded };

struct Spec {
  Kind kind = Kind::kHepnosIngest;
  std::string name;
  std::uint64_t seed = 1;
  bool tiny = false;
  // HEPnOS: the Table V corpus deployment (bench/tablev_analysis_times.cpp).
  std::uint32_t events_per_client = 2048;
  // ior + Mobject.
  wl::IorConfig ior{.clients = 16,
                    .ops_per_client = 256,
                    .object_bytes = 64 * 1024,
                    .read_fraction = 0.5};
  /// Worker threads of the traced parallel run (0 = none). Every other run
  /// uses one worker: a barrier-synchronised run on shared vCPUs stalls
  /// whenever the hypervisor deschedules one of them, which made the
  /// 2-worker wall time spread by half from run to run (README.md).
  std::uint32_t parallel_workers = 0;
};

Spec make_spec(const std::string& name, std::uint64_t seed, bool tiny) {
  Spec s;
  s.name = name;
  s.seed = seed;
  s.tiny = tiny;
  if (name == "hepnos_ingest") {
    s.kind = Kind::kHepnosIngest;
  } else if (name == "mobject_rw") {
    s.kind = Kind::kMobjectRw;
  } else if (name == "hepnos_sharded") {
    s.kind = Kind::kHepnosSharded;
    s.parallel_workers = 2;  // half of a 4-CPU host
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (tiny) {
    s.events_per_client = 32;
    s.ior.ops_per_client = 8;
  }
  return s;
}

/// One constructed deployment of a workload, with uniform access to the
/// instances and measurement stores the harnesses expose.
class Deployment {
 public:
  Deployment(const Spec& spec, prof::Level instr, std::uint32_t workers)
      : spec_(spec) {
    if (spec.kind == Kind::kMobjectRw) {
      wl::MobjectWorld::Params p;
      p.ior = spec.ior;
      p.instr = instr;
      p.seed = spec.seed;
      mob_ = std::make_unique<wl::MobjectWorld>(p);
      servers_.push_back(&mob_->server_instance());
      for (std::size_t i = 0; i < mob_->client_count(); ++i) {
        clients_.push_back(&mob_->client_instance(i));
      }
      return;
    }
    auto cfg = wl::overhead_study_config();
    cfg.total_clients = 56;
    cfg.total_servers = 8;
    cfg.databases = 8 * 16;
    cfg.batch_size = spec.tiny ? 8 : 256;
    wl::HepnosWorld::Params p;
    p.config = cfg;
    p.file_model.events_per_file = spec.events_per_client;
    p.file_model.payload_bytes = 512;
    p.file_model.read_latency = sim::msec(1);
    p.files_per_client = 1;
    p.instr = instr;
    p.seed = spec.seed;
    if (spec.kind == Kind::kHepnosSharded) {
      p.exec.lane_count = 0;  // one lane per simulated node
      p.exec.worker_count = workers;
    }
    hep_ = std::make_unique<wl::HepnosWorld>(p);
    for (std::size_t i = 0; i < hep_->server_count(); ++i) {
      servers_.push_back(&hep_->server_instance(i));
    }
    for (std::size_t i = 0; i < hep_->client_count(); ++i) {
      clients_.push_back(&hep_->client_instance(i));
    }
  }

  void run() { hep_ ? hep_->run() : mob_->run(); }

  [[nodiscard]] sim::Engine& engine() {
    return hep_ ? hep_->engine() : mob_->engine();
  }
  [[nodiscard]] const std::vector<margo::Instance*>& servers() const {
    return servers_;
  }
  [[nodiscard]] const std::vector<margo::Instance*>& clients() const {
    return clients_;
  }
  [[nodiscard]] std::vector<margo::Instance*> instances() const {
    auto all = servers_;
    all.insert(all.end(), clients_.begin(), clients_.end());
    return all;
  }

  /// Virtual time to solution: the longest data-loader (HEPnOS) or the
  /// last client's op loop (Mobject).
  [[nodiscard]] double makespan_ns() const {
    return static_cast<double>(hep_ ? hep_->makespan() : mob_->makespan());
  }

  /// Client-issued requests: every RPC a client invokes is a root request.
  [[nodiscard]] std::uint64_t requests() const {
    std::uint64_t n = 0;
    for (auto* c : clients_) n += c->hg_class().num_rpcs_invoked();
    return n;
  }

  [[nodiscard]] std::vector<const prof::ProfileStore*> profiles() const {
    std::vector<const prof::ProfileStore*> out;
    for (auto* i : instances()) out.push_back(&i->profile());
    return out;
  }
  [[nodiscard]] std::vector<const prof::TraceStore*> traces() const {
    std::vector<const prof::TraceStore*> out;
    for (auto* i : instances()) out.push_back(&i->trace());
    return out;
  }
  [[nodiscard]] std::vector<std::pair<std::string, const prof::SysStatStore*>>
  sysstats() const {
    std::vector<std::pair<std::string, const prof::SysStatStore*>> out;
    for (auto* i : instances()) {
      out.emplace_back(i->process().name(), &i->sysstats());
    }
    return out;
  }

  /// The workload's own output check. Appends a reason on failure.
  bool check_outputs(std::vector<std::string>& why) const {
    if (hep_) {
      const std::uint64_t want =
          std::uint64_t{hep_->client_count()} * spec_.events_per_client;
      if (hep_->events_stored() != want) {
        why.push_back("events_stored " + std::to_string(hep_->events_stored()) +
                      " != " + std::to_string(want));
        return false;
      }
      return true;
    }
    auto& m = mob_->mobject_server();
    const std::uint64_t ops = m.write_ops() + m.read_ops();
    const std::uint64_t want =
        std::uint64_t{spec_.ior.clients} * spec_.ior.ops_per_client;
    bool ok = true;
    if (ops != want) {
      why.push_back("mobject ops " + std::to_string(ops) +
                    " != " + std::to_string(want));
      ok = false;
    }
    const std::uint64_t bytes = m.data().device().bytes_written();
    const std::uint64_t want_bytes = m.write_ops() * spec_.ior.object_bytes;
    if (bytes != want_bytes) {
      why.push_back("bake bytes " + std::to_string(bytes) +
                    " != writes x object size " + std::to_string(want_bytes));
      ok = false;
    }
    return ok;
  }

  /// Digest of the virtual outputs: every trace event, the makespan, the
  /// executed event count and the workload's own outputs. Identical runs
  /// (same seed, same lane count, any worker count) give identical digests.
  [[nodiscard]] std::uint64_t digest() {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
      }
    };
    for (const auto* t : traces()) {
      const auto& ev = t->events();
      mix(ev.size());
      for (std::size_t i = 0; i < ev.size(); ++i) {
        const auto& e = ev[i];
        mix(e.request_id);
        mix((std::uint64_t{e.order} << 8) | static_cast<std::uint8_t>(e.kind));
        mix(e.breadcrumb);
        mix((std::uint64_t{e.self_ep} << 32) | e.peer_ep);
        mix(static_cast<std::uint64_t>(e.local_ts));
        mix(e.lamport);
        mix((std::uint64_t{e.blocked_ults} << 32) | e.runnable_ults);
      }
    }
    mix(static_cast<std::uint64_t>(makespan_ns()));
    mix(engine().events_processed());
    mix(requests());
    if (hep_) {
      mix(hep_->events_stored());
      for (const auto& s : hep_->loader_stats()) {
        mix(static_cast<std::uint64_t>(s.elapsed));
      }
    } else {
      mix(mob_->mobject_server().write_ops());
      mix(mob_->mobject_server().read_ops());
    }
    return h;
  }

 private:
  const Spec& spec_;
  std::unique_ptr<wl::HepnosWorld> hep_;
  std::unique_ptr<wl::MobjectWorld> mob_;
  std::vector<margo::Instance*> servers_;
  std::vector<margo::Instance*> clients_;
};

// ---------------------------------------------------------------------------
// SYMBIOSYS analysis passes (the Table V quantity), each call timed
// ---------------------------------------------------------------------------

struct Analysis {
  double profile_s = 0;
  double trace_s = 0;
  double sysstats_s = 0;
  double zipkin_s = 0;
  prof::ProfileSummary psum;
  prof::TraceSummary tsum;

  [[nodiscard]] double total_s() const {
    return profile_s + trace_s + sysstats_s + zipkin_s;
  }
};

Analysis analyse(const Deployment& d) {
  Analysis a;
  auto t0 = Clock::now();
  a.psum = prof::ProfileSummary::build(d.profiles());
  a.profile_s = since(t0);
  t0 = Clock::now();
  a.tsum = prof::TraceSummary::build(d.traces());
  a.trace_s = since(t0);
  t0 = Clock::now();
  static_cast<void>(prof::SysStatsSummary::build(d.sysstats()));
  a.sysstats_s = since(t0);
  t0 = Clock::now();
  static_cast<void>(prof::to_zipkin_json(a.tsum));
  a.zipkin_s = since(t0);
  return a;
}

/// Virtual origin-side latency (t1 -> t14) of every client-issued root
/// request that completed, split by the write/read class of its RPC. Both
/// ends are read on the client's own clock from its raw trace events, so
/// the skew correction of TraceSummary does not enter.
struct Latencies {
  std::vector<double> all_ns;
  std::vector<double> read_ns;
  std::vector<double> write_ns;
};

Latencies root_latencies(const Deployment& d) {
  const std::uint16_t read_leaf = prof::hash16("mobject_read_op");
  const std::set<std::uint16_t> write_leaves = {
      prof::hash16("mobject_write_op"), prof::hash16("sdskv_put_packed_rpc")};
  Latencies out;
  for (auto* c : d.clients()) {
    // (request id, breadcrumb, base order) -> t1, as TraceSummary keys spans.
    std::map<std::tuple<std::uint64_t, prof::Breadcrumb, std::uint32_t>,
             sim::TimeNs>
        started;
    const auto& ev = c->trace().events();
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const auto& e = ev[i];
      if (prof::depth(e.breadcrumb) != 1) continue;
      if (e.kind == prof::TraceEventKind::kOriginStart) {
        started[{e.request_id, e.breadcrumb, e.order}] = e.local_ts;
        continue;
      }
      if (e.kind != prof::TraceEventKind::kOriginEnd) continue;
      const auto it = started.find({e.request_id, e.breadcrumb, e.order - 3});
      if (it == started.end()) continue;
      const auto ns = static_cast<double>(e.local_ts - it->second);
      started.erase(it);
      out.all_ns.push_back(ns);
      const std::uint16_t leaf = prof::leaf_of(e.breadcrumb);
      if (leaf == read_leaf) out.read_ns.push_back(ns);
      if (write_leaves.count(leaf) != 0) out.write_ns.push_back(ns);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    check(std::isfinite(value), name + " is not a finite number");
    metrics.push_back(
        {std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

void print_result(const Outcome& o) {
  for (const auto& f : o.failures) std::printf("check failed: %s\n", f.c_str());
  const std::uint64_t failed =
      o.attempted > o.completed ? o.attempted - o.completed : 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", o.metrics[i].name.c_str(),
                o.metrics[i].value, o.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Repetition budget: at least `min_reps`, then more while the next one is
/// expected to finish inside `seconds`.
class Budget {
 public:
  Budget(double seconds, int min_reps) : seconds_(seconds), min_reps_(min_reps) {}
  [[nodiscard]] bool another(const std::vector<double>& rep_s) const {
    const int done = static_cast<int>(rep_s.size());
    if (done < min_reps_) return true;
    if (done >= kMaxReps) return false;
    return since(start_) + median(rep_s) <= seconds_;
  }

 private:
  static constexpr int kMaxReps = 200;
  Clock::time_point start_ = Clock::now();
  double seconds_;
  int min_reps_;
};

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// Typical time of ReferenceKernel::time_s() on the 4-vCPU Xeon host the
/// benchmark was defined on. Every reported wall time is scaled to a host
/// of that speed (README.md, "Steadiness").
constexpr double kReferenceKernelS = 0.025;

/// Fixed work that runs no code under src/ and allocates nothing while
/// timed, so neither the program nor the state of its heap changes it:
/// seeded keys through an open-addressing hash table, a sort, and a
/// dependent-load walk over a random cycle larger than the L2 cache. Memory
/// latency and hashing dominate it as they dominate the stack, so timing it
/// beside each repetition measures how fast the shared host is right then.
class ReferenceKernel {
 public:
  ReferenceKernel()
      : keys_(kKeys), sorted_(kKeys), table_(2 * kKeys), next_(kCycle) {
    std::mt19937_64 rng(20211);
    for (auto& k : keys_) k = rng() | 1;  // 0 marks an empty table slot
    // Sattolo's algorithm: a single cycle through every slot.
    for (std::uint32_t i = 0; i < kCycle; ++i) next_[i] = i;
    for (std::uint32_t i = kCycle - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng() % i]);
    }
  }

  [[nodiscard]] double time_s() {
    const auto t0 = Clock::now();
    const std::size_t mask = table_.size() - 1;
    auto home = [mask](std::uint64_t k) {
      return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> 40) & mask;
    };
    std::fill(table_.begin(), table_.end(), 0);
    for (const auto k : keys_) {
      std::size_t i = home(k);
      while (table_[i] != 0) i = (i + 1) & mask;
      table_[i] = k;
    }
    std::uint64_t acc = 0;
    for (const auto k : keys_) {
      std::size_t i = home(k);
      while (table_[i] != k) i = (i + 1) & mask;
      acc += i;
    }
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    std::uint32_t at = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) at = next_[at];
    sink_ = acc + sorted_[kKeys / 2] + at;
    return since(t0);
  }

 private:
  static constexpr std::size_t kKeys = 1 << 16;
  static constexpr std::uint32_t kCycle = 1 << 20;  // 4 MiB of indices
  static constexpr std::uint32_t kSteps = 1 << 17;
  std::vector<std::uint64_t> keys_, sorted_, table_;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;  // keeps the work observable
};

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

/// Deployments constructed per repetition; only the last one is run.
/// Construction takes about a millisecond, so one sample is too short to
/// time steadily on its own. The first construction after a run is not
/// timed: it re-grows the heap the previous run's teardown released and
/// takes 3-20x longer, depending on how much was released.
constexpr int kSetupSamplesPerRep = 10;

Outcome run_end_to_end(const Spec& spec, double seconds) {
  Outcome o;
  // Scaled to the reference host speed, and as measured.
  std::vector<double> setup_s, host_rps, analysis_s;
  std::vector<double> raw_setup_s, raw_host_rps, raw_analysis_s, kernel_s;
  std::vector<double> rep_s;
  std::uint64_t first_digest = 0;
  double rss_mb = 0;
  ReferenceKernel kernel;
  Budget budget(seconds, 3);
  while (budget.another(rep_s)) {
    const auto rep_t0 = Clock::now();
    std::vector<double> rep_kernel_s = {kernel.time_s()};
    std::vector<double> rep_setup_s;
    std::unique_ptr<Deployment> d;
    for (int k = 0; k <= kSetupSamplesPerRep; ++k) {
      d.reset();
      const auto t0 = Clock::now();
      d = std::make_unique<Deployment>(spec, prof::Level::kFull, 1);
      if (k > 0) rep_setup_s.push_back(since(t0));
    }
    const auto t0 = Clock::now();
    d->run();
    const double run_s = since(t0);
    const std::uint64_t requests = d->requests();
    rep_kernel_s.push_back(kernel.time_s());
    const Analysis a = analyse(*d);
    rep_kernel_s.push_back(kernel.time_s());

    kernel_s.push_back(median(rep_kernel_s));
    const double scale = kReferenceKernelS / kernel_s.back();
    for (const double s : rep_setup_s) {
      raw_setup_s.push_back(s);
      setup_s.push_back(s * scale);
    }
    raw_host_rps.push_back(static_cast<double>(requests) / run_s);
    host_rps.push_back(static_cast<double>(requests) / (run_s * scale));
    raw_analysis_s.push_back(a.total_s());
    analysis_s.push_back(a.total_s() * scale);

    std::vector<std::string> why;
    if (!d->check_outputs(why)) {
      for (auto& w : why) o.failures.push_back(w);
    }
    const std::uint64_t digest = d->digest();
    const Latencies lat = root_latencies(*d);
    std::uint64_t rejects = 0;
    for (auto* s : d->servers()) rejects += s->admission_rejects();
    const std::uint64_t completed =
        lat.all_ns.size() > rejects ? lat.all_ns.size() - rejects : 0;
    o.attempted += requests;
    o.completed += std::min<std::uint64_t>(completed, requests);

    if (rep_s.empty()) {
      // Later repetitions run on a heap the earlier ones left fragmented,
      // so only the first one's high-water mark repeats from run to run.
      rss_mb = peak_rss_mb();
      first_digest = digest;
      o.add("v_makespan_ms", d->makespan_ns() / 1e6, "ms");
      o.add("v_lat_p50_us", percentile(lat.all_ns, 50) / 1e3, "us");
      o.add("v_lat_p99_us", percentile(lat.all_ns, 99) / 1e3, "us");
      o.add("served_frac",
            requests == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(requests),
            "fraction");
      std::printf("v_lat samples=%zu (p99 has %zu beyond it)\n",
                  lat.all_ns.size(), lat.all_ns.size() / 100);
      std::printf("lanes=%u workers=%u requests=%llu spans=%zu\n",
                  d->engine().lane_count(), d->engine().worker_count(),
                  static_cast<unsigned long long>(requests),
                  a.tsum.total_spans);
    } else {
      o.check(digest == first_digest,
              "virtual outputs differ between repetitions of one seed");
    }
    d.reset();
    rep_s.push_back(since(rep_t0));
    std::printf("rep %zu: setup_s=%.6f run_s=%.4f analysis_s=%.4f "
                "reference_kernel_s=%.4f\n",
                rep_s.size(), median(rep_setup_s), run_s, a.total_s(),
                kernel_s.back());
  }
  std::printf("repetitions=%zu setup_samples=%zu\n", rep_s.size(),
              setup_s.size());
  std::printf("as measured: setup_s=%.6g host_req_per_s=%.6g analysis_s=%.6g "
              "reference_kernel_s=%.6g\n",
              median(raw_setup_s), median(raw_host_rps),
              median(raw_analysis_s), median(kernel_s));
  std::vector<Metric> wall = {
      {"setup_s", median(setup_s), "s"},
      {"host_req_per_s", median(host_rps), "1/s"},
      {"analysis_s", median(analysis_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  o.metrics.insert(o.metrics.begin(), wall.begin(), wall.end());
  return o;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

double pvar_sum(const std::vector<margo::Instance*>& insts,
                const std::string& name, bool take_max = false) {
  double acc = 0;
  for (auto* i : insts) {
    auto session = i->hg_class().pvar_session_init();
    const auto h = session.alloc(name);
    if (!h.valid()) throw std::runtime_error("unknown PVAR " + name);
    const double v = session.read(h);
    acc = take_max ? std::max(acc, v) : acc + v;
    session.finalize();
  }
  return acc;
}

/// Counters and virtual-time breakdowns of one FULL run, read through each
/// layer's public accessors once the run and its analysis are done.
void add_layer_counters(Outcome& o, Deployment& d, const Analysis& a,
                        double requests) {
  auto& eng = d.engine();
  const auto insts = d.instances();
  o.add("simkit.events", static_cast<double>(eng.events_processed()), "count");
  o.add("simkit.arena_allocs",
        static_cast<double>(eng.arena_stats().allocations()), "count");
  o.add("simkit.windows", static_cast<double>(eng.windows_executed()), "count");
  o.add("simkit.merge_pairs", static_cast<double>(eng.merge_pairs_visited()),
        "count");
  o.add("simkit.dirty_pairs", static_cast<double>(eng.dirty_pairs_posted()),
        "count");
  o.add("simkit.quiet_windows",
        static_cast<double>(eng.quiet_extended_windows()), "count");
  o.add("simkit.clamps", static_cast<double>(eng.causality_clamps()), "count");

  double ults = 0, dispatched = 0, busy_ns = 0, server_es = 0;
  for (auto* i : insts) {
    auto& rt = i->runtime();
    ults += static_cast<double>(rt.ults_created());
    for (std::size_t x = 0; x < rt.xstream_count(); ++x) {
      dispatched += static_cast<double>(rt.xstream(x).ults_dispatched());
    }
  }
  for (auto* s : d.servers()) {
    auto& rt = s->runtime();
    for (std::size_t x = 0; x < rt.xstream_count(); ++x) {
      busy_ns += static_cast<double>(rt.xstream(x).busy_time());
      server_es += 1;
    }
  }
  const Latencies lat = root_latencies(d);
  std::uint32_t max_blocked = 0;
  for (const auto& rt : a.tsum.requests) {
    for (const auto& sp : rt.spans) {
      max_blocked = std::max(max_blocked, sp.target_blocked_ults);
    }
  }
  o.add("argolite.ults_created", ults, "count");
  o.add("argolite.ults_dispatched", dispatched, "count");
  o.add("argolite.es_busy_frac", busy_ns / (server_es * d.makespan_ns()),
        "fraction");
  o.add("argolite.max_blocked_ults", max_blocked, "count");

  double sends = 0, bytes_eager = 0, rdma_ops = 0, bytes_rdma = 0;
  for (auto* i : insts) {
    const auto& ep = i->hg_class().endpoint();
    sends += static_cast<double>(ep.sends_posted());
    bytes_eager += static_cast<double>(ep.bytes_sent());
    rdma_ops += static_cast<double>(ep.rdma_ops());
    bytes_rdma += static_cast<double>(ep.bytes_rdma());
  }
  o.add("sofi.sends", sends, "count");
  o.add("sofi.bytes_eager", bytes_eager, "bytes");
  o.add("sofi.rdma_ops", rdma_ops, "count");
  o.add("sofi.bytes_rdma", bytes_rdma, "bytes");
  o.add("sofi.rdma_bytes_per_req", bytes_rdma / requests, "bytes");

  o.add("merclite.eager_overflow_count", pvar_sum(insts, "eager_overflow_count"),
        "count");
  o.add("merclite.bulk_bytes", pvar_sum(insts, "bulk_bytes_transferred"),
        "bytes");
  o.add("merclite.wire_pool_hit_ratio",
        pvar_sum(insts, "wire_buffer_pool_hits") / sends, "fraction");
  o.add("merclite.ofi_cq_high_watermark",
        pvar_sum(insts, "ofi_cq_high_watermark", /*take_max=*/true), "count");

  // Per-request means of the t1..t14 intervals over the root callpaths, so
  // together they add up to the mean client-observed latency.
  double roots = 0, unaccounted = 0;
  double iv[static_cast<int>(prof::Interval::kCount)] = {};
  for (const auto& cp : a.psum.callpaths) {
    if (prof::depth(cp.breadcrumb) != 1) continue;
    roots += static_cast<double>(cp.call_count);
    unaccounted += cp.unaccounted_ns();
    for (int i = 0; i < static_cast<int>(prof::Interval::kCount); ++i) {
      iv[i] += cp.interval_sum_ns[i];
    }
  }
  auto mean_us = [&](prof::Interval i) {
    return iv[static_cast<int>(i)] / roots / 1e3;
  };
  o.add("margolite.v_input_ser_us", mean_us(prof::Interval::kInputSer), "us");
  o.add("margolite.v_rdma_pull_us", mean_us(prof::Interval::kInternalRdma),
        "us");
  o.add("margolite.v_handler_wait_us", mean_us(prof::Interval::kHandlerWait),
        "us");
  o.add("margolite.v_target_exec_us", mean_us(prof::Interval::kTargetExec),
        "us");
  o.add("margolite.v_unaccounted_us", unaccounted / roots / 1e3, "us");
  o.add("margolite.v_completion_cb_us",
        mean_us(prof::Interval::kOriginCallback), "us");
  std::printf("root requests: mean t1->t14 %.3f us, t8->t13 %.3f us\n",
              mean_us(prof::Interval::kOriginExec),
              mean_us(prof::Interval::kTargetCallback));
  double rejects = 0;
  for (auto* s : d.servers()) rejects += static_cast<double>(s->admission_rejects());
  o.add("margolite.admission_rejects", rejects, "count");

  o.add("services.rpcs_per_request",
        static_cast<double>(a.tsum.total_spans) / requests, "count");
  o.add("services.dominant_callpath_share",
        a.psum.callpaths.empty() || a.psum.total_ns <= 0
            ? 0.0
            : a.psum.callpaths.front().cumulative_ns / a.psum.total_ns,
        "fraction");
  o.add("services.v_read_p99_us", percentile(lat.read_ns, 99) / 1e3, "us");
  o.add("services.v_write_p99_us", percentile(lat.write_ns, 99) / 1e3, "us");

  double trace_events = 0, profile_entries = 0;
  for (const auto* t : d.traces()) trace_events += static_cast<double>(t->size());
  for (const auto* p : d.profiles()) {
    profile_entries += static_cast<double>(p->size());
  }
  o.add("symbiosys.trace_events", trace_events, "count");
  o.add("symbiosys.profile_entries", profile_entries, "count");
}

Outcome run_traced(const Spec& spec, double seconds) {
  Outcome o;
  std::vector<double> run_full, run_par, run_off, sys_cpu, ns_per_event;
  std::vector<double> prof_s, trace_s, sys_s, zip_s, setup_s, rep_s;
  std::vector<double> traced_rps, traced_analysis;
  double makespan_full = 0, makespan_off = 0;
  std::uint64_t first_digest = 0;
  ReferenceKernel kernel;
  Budget budget(seconds, 1);
  while (budget.another(rep_s)) {
    const auto rep_t0 = Clock::now();
    std::uint64_t digest_full = 0;
    {
      const double kernel0 = kernel.time_s();
      auto t0 = Clock::now();
      Deployment d(spec, prof::Level::kFull, 1);
      const double setup = since(t0);
      const double sys0 = cpu_sys_s();
      t0 = Clock::now();
      d.run();
      run_full.push_back(since(t0));
      if (spec.parallel_workers == 0) sys_cpu.push_back(cpu_sys_s() - sys0);
      const Analysis a = analyse(d);
      // Wall times scaled to the reference host speed, as in --trace 0.
      const double scale =
          2 * kReferenceKernelS / (kernel0 + kernel.time_s());
      const double events = static_cast<double>(d.engine().events_processed());
      const double requests = static_cast<double>(d.requests());
      setup_s.push_back(setup * scale);
      ns_per_event.push_back(run_full.back() * scale * 1e9 / events);
      traced_rps.push_back(requests / (run_full.back() * scale));
      prof_s.push_back(a.profile_s * scale);
      trace_s.push_back(a.trace_s * scale);
      sys_s.push_back(a.sysstats_s * scale);
      zip_s.push_back(a.zipkin_s * scale);
      traced_analysis.push_back(a.total_s() * scale);
      std::vector<std::string> why;
      if (!d.check_outputs(why)) {
        for (auto& w : why) o.failures.push_back(w);
      }
      digest_full = d.digest();
      makespan_full = d.makespan_ns();
      o.attempted += d.requests();
      o.completed += d.requests();
      if (rep_s.empty()) {
        first_digest = digest_full;
      } else {
        o.check(digest_full == first_digest,
                "virtual outputs differ between repetitions of one seed");
      }
      if (rep_s.empty()) add_layer_counters(o, d, a, requests);
    }
    if (spec.parallel_workers > 1) {
      Deployment d(spec, prof::Level::kFull, spec.parallel_workers);
      const double sys0 = cpu_sys_s();
      const auto t0 = Clock::now();
      d.run();
      run_par.push_back(since(t0));
      sys_cpu.push_back(cpu_sys_s() - sys0);
      o.check(d.digest() == digest_full,
              "virtual outputs differ between 1 and " +
                  std::to_string(spec.parallel_workers) + " workers");
    }
    {
      Deployment d(spec, prof::Level::kOff, 1);
      const auto t0 = Clock::now();
      d.run();
      run_off.push_back(since(t0));
      makespan_off = d.makespan_ns();
    }
    rep_s.push_back(since(rep_t0));
  }
  std::printf("repetitions=%zu\n", rep_s.size());
  std::printf("traced end-to-end: setup_s=%.6f host_req_per_s=%.1f "
              "analysis_s=%.4f\n",
              median(setup_s), median(traced_rps), median(traced_analysis));
  o.add("simkit.wall_ns_per_event", median(ns_per_event), "ns");
  o.add("simkit.sys_cpu_s", median(sys_cpu), "s");
  // A workload without a parallel run has nothing to compare against.
  o.add("simkit.parallel_speedup",
        run_par.empty() ? 1.0 : median(run_full) / median(run_par), "x");
  o.add("symbiosys.profile_summary_s", median(prof_s), "s");
  o.add("symbiosys.trace_summary_s", median(trace_s), "s");
  o.add("symbiosys.sysstats_summary_s", median(sys_s), "s");
  o.add("symbiosys.zipkin_s", median(zip_s), "s");
  o.add("symbiosys.record_overhead_x", median(run_full) / median(run_off), "x");
  o.add("symbiosys.v_overhead_x", makespan_full / makespan_off, "x");
  return o;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--commit") {
      a.commit = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    const Args args = parse_args(argc, argv);
    const Spec spec = make_spec(args.workload, args.seed, args.tiny);
    std::uint32_t lanes = 0;
    {
      Deployment probe(spec, prof::Level::kOff, 1);
      lanes = probe.engine().lane_count();
    }
    std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"tiny\": %s, \"host_cpus\": %ld, "
                "\"lanes\": %u, \"workers\": 1, \"parallel_workers\": %u, "
                "\"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"git_commit\": \"%s\"}\n",
                spec.name.c_str(), static_cast<unsigned long long>(spec.seed),
                args.trace, spec.tiny ? "true" : "false",
                sysconf(_SC_NPROCESSORS_ONLN), lanes, spec.parallel_workers,
                PERFBENCH_BUILD_TYPE, __VERSION__, args.commit.c_str());
    const Outcome o = args.trace != 0 ? run_traced(spec, args.seconds)
                                      : run_end_to_end(spec, args.seconds);
    print_result(o);
    return o.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
