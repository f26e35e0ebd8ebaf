// symbiosys/export.hpp
//
// File export/import of measurement data. Each simulated process dumps its
// profile / trace / system-statistics stores as CSV, and the analysis
// "scripts" (analysis.hpp) re-ingest them — mirroring the paper's
// consolidate-then-postprocess workflow and enabling the Table V analysis
// timing study against on-disk data.
#pragma once

#include <iosfwd>
#include <string>

#include "symbiosys/records.hpp"

namespace sym::prof {

void write_profile_csv(std::ostream& os, const ProfileStore& store);
[[nodiscard]] ProfileStore read_profile_csv(std::istream& is);

void write_trace_csv(std::ostream& os, const TraceStore& store);
[[nodiscard]] TraceStore read_trace_csv(std::istream& is);

void write_sysstats_csv(std::ostream& os, const SysStatStore& store);
[[nodiscard]] SysStatStore read_sysstats_csv(std::istream& is);

/// Path-based conveniences (throw std::runtime_error on I/O failure).
void write_profile_csv_file(const std::string& path, const ProfileStore&);
[[nodiscard]] ProfileStore read_profile_csv_file(const std::string& path);
void write_trace_csv_file(const std::string& path, const TraceStore&);
[[nodiscard]] TraceStore read_trace_csv_file(const std::string& path);
void write_sysstats_csv_file(const std::string& path, const SysStatStore&);
[[nodiscard]] SysStatStore read_sysstats_csv_file(const std::string& path);

}  // namespace sym::prof
