// bench/common.hpp
//
// Shared helpers for the experiment benches. Each bench regenerates one
// table or figure from the paper's evaluation; the Table IV configurations
// are used verbatim (clients, servers, ESs, databases, batch sizes), with
// the per-client event volume scaled so a bench completes in seconds on a
// laptop-class host.
//
// The second half is the study harness the trajectory studies
// (overhead_study, scaling_study, scale_study, cache_fairness_study) share:
// one command line, one same-seed repetition runner, one JSON writer. Every
// BENCH_*.json number is then measured the same way: deterministic columns
// from repetition 1 (and checked against every later repetition), wall
// time as median/min/max over the repetitions, and a header recording the
// host and build the numbers came from.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "symbiosys/analysis.hpp"
#include "symbiosys/records.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/table4.hpp"

namespace bench {

namespace sim = sym::sim;
namespace prof = sym::prof;

/// Build HepnosWorld params for a Table IV config with a bench-scale event
/// volume (events per client = events_per_file * files).
inline sym::workloads::HepnosWorld::Params hepnos_params(
    sym::workloads::HepnosConfig cfg, std::uint32_t events_per_client = 2048,
    std::uint64_t seed = 42) {
  sym::workloads::HepnosWorld::Params p;
  p.config = std::move(cfg);
  p.file_model.events_per_file = events_per_client;
  p.file_model.payload_bytes = 512;
  p.files_per_client = 1;
  p.seed = seed;
  return p;
}

/// Sum one interval over all target-side entries whose leaf matches an RPC.
inline double sum_target_interval(
    const std::vector<const prof::ProfileStore*>& stores, prof::Interval iv,
    std::uint16_t leaf) {
  double total = 0;
  for (const auto* store : stores) {
    for (const auto& [key, stats] : store->entries()) {
      if (key.side != prof::Side::kTarget) continue;
      if (prof::leaf_of(key.breadcrumb) != leaf) continue;
      total += stats.at(iv).sum_ns;
    }
  }
  return total;
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("(reproduces %s)\n", paper_ref);
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// Study harness
// ---------------------------------------------------------------------------

#ifndef SYM_BUILD_TYPE
#define SYM_BUILD_TYPE "unknown"
#endif

struct StudyArgs {
  bool smoke = false;
  std::string out;  ///< empty: the study's default output path
};

/// Parse `[--smoke] [--out PATH]`. Returns nullopt on an unknown argument or
/// on `--out` without a value, so a typo never silently runs the full sweep.
inline std::optional<StudyArgs> parse_study_args(int argc,
                                                 const char* const* argv) {
  StudyArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc && argv[i + 1][0] != '\0' &&
               argv[i + 1][0] != '-') {
      args.out = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  return args;
}

/// Wall-clock spread over a study's repetitions, in milliseconds.
struct WallStats {
  double median_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

/// Median (the mean of the middle two for an even count), min and max.
inline WallStats wall_stats(std::vector<double> ms) {
  WallStats w;
  if (ms.empty()) return w;
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  w.median_ms = n % 2 == 1 ? ms[n / 2] : (ms[n / 2 - 1] + ms[n / 2]) / 2;
  w.min_ms = ms.front();
  w.max_ms = ms.back();
  return w;
}

/// Process-wide resident-set high-water mark (ru_maxrss is KiB on Linux).
inline std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/// Process-wide minor page faults so far: mostly first touches of memory
/// the allocator took from (or gave back to) the kernel, so a timed region
/// that re-grows a trimmed heap shows here and not in its own code.
inline std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// Accumulates the wall time and minor faults of the region one repetition
/// measures. A repetition may start and stop it several times (once per
/// seed, say).
class Stopwatch {
 public:
  void start() {
    faults0_ = minor_faults();
    t0_ = std::chrono::steady_clock::now();
  }
  void stop() {
    ms_ += std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
               .count();
    faults_ += minor_faults() - faults0_;
  }
  [[nodiscard]] double ms() const noexcept { return ms_; }
  [[nodiscard]] std::uint64_t faults() const noexcept { return faults_; }

 private:
  std::chrono::steady_clock::time_point t0_{};
  double ms_ = 0;
  std::uint64_t faults0_ = 0;
  std::uint64_t faults_ = 0;
};

/// A repeated measurement: repetition 1's deterministic result, the wall
/// time over all repetitions and each repetition's minor faults.
template <class R>
struct Measured {
  R result;
  WallStats wall;
  std::vector<std::uint64_t> minor_faults;
};

/// One flat JSON object; fields are written in insertion order.
class Row {
 public:
  Row& count(std::string_view key, std::uint64_t v) {
    return field(key, std::to_string(v));
  }
  /// Fixed-point with `digits` decimals.
  Row& real(std::string_view key, double v, int digits) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed, digits);
    return field(key, std::string(buf, res.ptr));
  }
  Row& text(std::string_view key, std::string_view v) {
    return field(key, quote(v));
  }
  Row& flag(std::string_view key, bool v) {
    return field(key, v ? "true" : "false");
  }
  /// The columns every study reports for a measured cell: the median, min
  /// and max wall time, and the minor faults of each repetition in order.
  template <class R>
  Row& measured(const Measured<R>& m) {
    std::string faults = "[";
    for (std::size_t i = 0; i < m.minor_faults.size(); ++i) {
      if (i > 0) faults += ", ";
      faults += std::to_string(m.minor_faults[i]);
    }
    return real("wall_ms", m.wall.median_ms, 3)
        .real("wall_ms_min", m.wall.min_ms, 3)
        .real("wall_ms_max", m.wall.max_ms, 3)
        .field("minor_faults", faults + "]");
  }

  /// The fields joined by `sep`, without braces.
  [[nodiscard]] std::string join(std::string_view sep) const {
    std::string out;
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += sep;
      out += fields_[i];
    }
    return out;
  }

  static std::string quote(std::string_view s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
      } else {
        q += c;
      }
    }
    return q + '"';
  }

 private:
  Row& field(std::string_view key, std::string value) {
    fields_.push_back(quote(key) + ": " + std::move(value));
    return *this;
  }

  std::vector<std::string> fields_;
};

/// One trajectory study: its command line, repetitions, tables and gates,
/// written as one BENCH_*.json file.
class Study {
 public:
  /// Parses the command line; on a bad one prints the usage and exits 2.
  Study(const char* name, const char* default_out, int argc,
        const char* const* argv)
      : name_(name) {
    auto args = parse_study_args(argc, argv);
    if (!args) {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", name);
      std::exit(2);
    }
    smoke_ = args->smoke;
    out_ = args->out.empty() ? default_out : std::move(args->out);
    reps_ = smoke_ ? 2 : 5;
    host_cpus_ = std::thread::hardware_concurrency();
    header_.text("bench", name_)
        .flag("smoke", smoke_)
        .count("host_cpus", host_cpus_)
        .text("build_type", SYM_BUILD_TYPE)
        .count("reps", static_cast<std::uint64_t>(reps_));
  }

  [[nodiscard]] bool smoke() const noexcept { return smoke_; }
  [[nodiscard]] int reps() const noexcept { return reps_; }
  [[nodiscard]] unsigned host_cpus() const noexcept { return host_cpus_; }

  /// Run `rep(Stopwatch&)` reps() times on the same inputs. Repetition 1's
  /// result is kept; every later repetition must return an equal result,
  /// or the `reps_reproduce` gate fails.
  template <class Fn>
  auto measure(Fn&& rep) {
    using R = std::invoke_result_t<Fn&, Stopwatch&>;
    std::optional<R> first;
    std::vector<double> ms;
    std::vector<std::uint64_t> faults;
    for (int i = 0; i < reps_; ++i) {
      Stopwatch sw;
      R r = rep(sw);
      ms.push_back(sw.ms());
      faults.push_back(sw.faults());
      if (!first) {
        first.emplace(std::move(r));
      } else if (!(r == *first)) {
        reproduced_ = false;
        std::printf("!! repetition %d diverged from repetition 1\n", i + 1);
      }
    }
    return Measured<R>{std::move(*first), wall_stats(std::move(ms)),
                       std::move(faults)};
  }

  /// Extra top-level fields, written after the shared header.
  Row& meta() { return header_; }

  /// A new row appended to `table`; the reference is valid until the next
  /// row() call.
  Row& row(std::string_view table) {
    auto it = std::find_if(tables_.begin(), tables_.end(),
                           [&](const auto& t) { return t.first == table; });
    if (it == tables_.end()) {
      tables_.emplace_back(std::string(table), std::vector<Row>{});
      it = tables_.end() - 1;
    }
    return it->second.emplace_back();
  }

  /// Print `detail` (a printf format) with the verdict and record the gate.
  __attribute__((format(printf, 4, 5)))  // `this` is argument 1
  void gate(const char* name, bool ok, const char* detail, ...) {
    std::printf("%s: ", name);
    std::va_list args;
    va_start(args, detail);
    std::vprintf(detail, args);
    va_end(args);
    std::printf(": %s\n", ok ? "PASS" : "FAIL");
    gates_.text(name, ok ? "PASS" : "FAIL");
    failed_ = failed_ || !ok;
  }

  void skip(const char* name, const char* reason) {
    std::printf("%s: SKIPPED (%s)\n", name, reason);
    gates_.text(name, "SKIPPED");
  }

  /// Record the `reps_reproduce` gate and write the JSON file. Returns the
  /// process exit code: 1 if any gate failed or the file could not be
  /// written, else 0.
  int finish() {
    gate("reps_reproduce", reproduced_,
         "deterministic columns identical in all %d repetitions", reps_);
    std::ofstream out(out_);
    out << "{\n  " << header_.join(",\n  ");
    for (const auto& [table, rows] : tables_) {
      out << ",\n  " << Row::quote(table) << ": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        out << (i > 0 ? ",\n    {" : "\n    {") << rows[i].join(", ") << "}";
      }
      out << "\n  ]";
    }
    out << ",\n  \"gates\": {" << gates_.join(", ") << "}\n}\n";
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                   out_.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_.c_str());
    return failed_ ? 1 : 0;
  }

 private:
  std::string name_;
  std::string out_;
  bool smoke_ = false;
  int reps_ = 0;
  unsigned host_cpus_ = 0;
  bool reproduced_ = true;
  bool failed_ = false;
  Row header_;
  std::vector<std::pair<std::string, std::vector<Row>>> tables_;
  Row gates_;
};

}  // namespace bench
