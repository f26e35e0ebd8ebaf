// Tests for the study harness in bench/common.hpp that every trajectory
// study (overhead, scaling, scale, cache fairness) runs on: the wall-time
// statistics, the fault counts, the command-line parser, the repetition
// check and the JSON writer.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "services/sonata/json.hpp"

namespace json = sym::json;

TEST(WallStats, OddCountTakesMiddleValue) {
  const bench::WallStats w = bench::wall_stats({3.0, 1.0, 5.0, 2.0, 4.0});
  EXPECT_EQ(w.median_ms, 3.0);
  EXPECT_EQ(w.min_ms, 1.0);
  EXPECT_EQ(w.max_ms, 5.0);
}

TEST(WallStats, EvenCountAveragesMiddlePair) {
  const bench::WallStats w = bench::wall_stats({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(w.median_ms, 2.5);
  EXPECT_EQ(w.min_ms, 1.0);
  EXPECT_EQ(w.max_ms, 4.0);
}

TEST(StudyArgs, AcceptsSmokeAndOut) {
  const char* argv[] = {"study", "--smoke", "--out", "x.json"};
  const auto args = bench::parse_study_args(4, argv);
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->smoke);
  EXPECT_EQ(args->out, "x.json");

  const char* bare[] = {"study"};
  const auto defaults = bench::parse_study_args(1, bare);
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->smoke);
  EXPECT_TRUE(defaults->out.empty());
}

TEST(StudyArgs, RejectsUnknownFlagAndMissingValue) {
  const char* typo[] = {"study", "--smok"};
  EXPECT_FALSE(bench::parse_study_args(2, typo).has_value());
  const char* stray[] = {"study", "out.json"};
  EXPECT_FALSE(bench::parse_study_args(2, stray).has_value());
  const char* no_value[] = {"study", "--out"};
  EXPECT_FALSE(bench::parse_study_args(2, no_value).has_value());
  const char* flag_as_value[] = {"study", "--out", "--smoke"};
  EXPECT_FALSE(bench::parse_study_args(3, flag_as_value).has_value());
}

TEST(StudyDeathTest, BadCommandLinePrintsUsageAndExits2) {
  const char* argv[] = {"study", "--smok"};
  EXPECT_EXIT(bench::Study("demo_study", "BENCH_demo.json", 2, argv),
              ::testing::ExitedWithCode(2),
              "usage: demo_study \\[--smoke\\] \\[--out PATH\\]");
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST(Study, WritesHeaderTablesAndGates) {
  const std::string path = ::testing::TempDir() + "bench_harness_out.json";
  const char* argv[] = {"demo_study", "--smoke", "--out", path.c_str()};
  bench::Study study("demo_study", "unused.json", 4, argv);
  EXPECT_EQ(study.reps(), 2);
  int calls = 0;
  const auto m = study.measure([&](bench::Stopwatch& sw) {
    sw.start();
    sw.stop();
    ++calls;
    return 7;
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(m.result, 7);
  EXPECT_GE(m.wall.max_ms, m.wall.min_ms);
  EXPECT_EQ(m.minor_faults.size(), 2u);
  study.meta().count("seeds", 3);
  study.row("cells")
      .text("name", "a \"quoted\" cell")
      .count("events", 42)
      .real("virtual_ms", 1.25, 3)
      .flag("ok", true)
      .measured(m);
  study.row("cells").count("events", 43);
  study.gate("always", true, "a gate that holds");
  study.skip("host_gate", "smoke run");
  EXPECT_EQ(study.finish(), 0);

  const json::Value doc = json::parse(read_file(path));
  EXPECT_EQ(doc.find("bench")->as_string(), "demo_study");
  EXPECT_TRUE(doc.find("smoke")->as_bool());
  EXPECT_EQ(doc.find("host_cpus")->as_int(),
            static_cast<std::int64_t>(study.host_cpus()));
  EXPECT_EQ(doc.find("build_type")->as_string(), SYM_BUILD_TYPE);
  EXPECT_EQ(doc.find("reps")->as_int(), 2);
  EXPECT_EQ(doc.find("seeds")->as_int(), 3);
  const auto& cells = doc.find("cells")->as_array();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].find("name")->as_string(), "a \"quoted\" cell");
  EXPECT_EQ(cells[0].find("events")->as_int(), 42);
  EXPECT_DOUBLE_EQ(cells[0].find("virtual_ms")->as_number(), 1.25);
  EXPECT_TRUE(cells[0].find("ok")->as_bool());
  EXPECT_NE(cells[0].find("wall_ms"), nullptr);
  EXPECT_NE(cells[0].find("wall_ms_min"), nullptr);
  EXPECT_NE(cells[0].find("wall_ms_max"), nullptr);
  const auto& faults = cells[0].find("minor_faults")->as_array();
  ASSERT_EQ(faults.size(), 2u);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].as_int(),
              static_cast<std::int64_t>(m.minor_faults[i]));
  }
  EXPECT_EQ(cells[1].find("events")->as_int(), 43);
  const json::Value* gates = doc.find("gates");
  ASSERT_NE(gates, nullptr);
  EXPECT_EQ(gates->find("always")->as_string(), "PASS");
  EXPECT_EQ(gates->find("host_gate")->as_string(), "SKIPPED");
  EXPECT_EQ(gates->find("reps_reproduce")->as_string(), "PASS");
}

// The timed region's first touch of fresh pages is a minor fault, counted
// in the repetition that made it.
TEST(Stopwatch, CountsMinorFaultsOfTheTimedRegionOnly) {
  constexpr std::size_t kPages = 64;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  void* untimed = ::mmap(nullptr, kPages * page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  void* timed = ::mmap(nullptr, kPages * page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(untimed, MAP_FAILED);
  ASSERT_NE(timed, MAP_FAILED);
  // One fault per page, even where the host backs memory with huge pages.
  ::madvise(untimed, kPages * page, MADV_NOHUGEPAGE);
  ::madvise(timed, kPages * page, MADV_NOHUGEPAGE);
  bench::Stopwatch sw;
  std::memset(untimed, 1, kPages * page);
  sw.start();
  std::memset(timed, 1, kPages * page);
  sw.stop();
  EXPECT_GE(sw.faults(), kPages);
  EXPECT_LT(sw.faults(), 2 * kPages);
  ::munmap(untimed, kPages * page);
  ::munmap(timed, kPages * page);
}

TEST(Study, DivergingRepetitionFailsReproduceGate) {
  const std::string path = ::testing::TempDir() + "bench_harness_diverge.json";
  const char* argv[] = {"demo_study", "--out", path.c_str()};
  bench::Study study("demo_study", "unused.json", 3, argv);
  EXPECT_EQ(study.reps(), 5);
  int calls = 0;
  const auto m = study.measure([&](bench::Stopwatch&) { return ++calls; });
  EXPECT_EQ(m.result, 1);  // repetition 1's result is the one reported
  EXPECT_EQ(study.finish(), 1);
  const json::Value doc = json::parse(read_file(path));
  EXPECT_FALSE(doc.find("smoke")->as_bool());
  EXPECT_EQ(doc.find("gates")->find("reps_reproduce")->as_string(), "FAIL");
}
