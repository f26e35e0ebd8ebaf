// symlint CLI. Usage:
//
//   symlint [--root DIR]... [--pvars-doc FILE] [FILE]...
//
// Reads every .cpp/.hpp under each --root (recursively) plus any explicit
// files, indexes each in memory with the per-TU rules (D1-D4, A0), then runs
// the interprocedural rules over the whole index (L1 lock-order, E1
// shared-state-escape, T1 determinism-taint, B1/B2 hot-path may-block/
// may-allocate, and — when --pvars-doc names the PVAR catalogue — P1
// pvar-contract). Findings print one per line. Exits 1 if any finding
// survives the allow() annotations, 2 on usage errors (including any
// unknown --flag). Run as the `symlint` ctest target over src/ (see
// tools/symlint/CMakeLists.txt and scripts/run_lint.sh).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

constexpr const char* kUsage =
    "usage: symlint [--root DIR]... [--pvars-doc FILE] [FILE]...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string pvars_doc_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "symlint: %s requires %s\n", arg.c_str(), what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const fs::path root = next("a directory");
      std::error_code ec;
      if (!fs::is_directory(root, ec)) {
        std::fprintf(stderr, "symlint: not a directory: %s\n",
                     root.string().c_str());
        return 2;
      }
      symlint::add_sources(root, files);
    } else if (arg == "--pvars-doc") {
      pvars_doc_path = next("a file");
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "symlint: unknown option %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "symlint: no inputs (try --root src)\n");
    return 2;
  }

  const std::vector<symlint::TuIndex> tus = symlint::run_index(files);

  std::vector<symlint::Finding> findings;
  for (const auto& tu : tus) {
    findings.insert(findings.end(), tu.tu_findings.begin(),
                    tu.tu_findings.end());
  }
  for (auto& f : symlint::analyze_project(tus)) {
    findings.push_back(std::move(f));
  }
  if (!pvars_doc_path.empty()) {
    std::string doc;
    if (!symlint::read_file(pvars_doc_path, doc)) {
      std::fprintf(stderr, "symlint: cannot read pvars doc %s\n",
                   pvars_doc_path.c_str());
      return 2;
    }
    for (auto& f : symlint::check_pvar_contract(tus, doc, pvars_doc_path)) {
      findings.push_back(std::move(f));
    }
  }
  symlint::sort_findings(findings);

  for (const auto& f : findings) std::printf("%s\n", f.format().c_str());
  if (!findings.empty()) {
    std::printf("symlint: %zu finding(s) in %zu file(s) scanned\n",
                findings.size(), tus.size());
    return 1;
  }
  std::printf("symlint: OK (%zu files scanned)\n", tus.size());
  return 0;
}
