#include "symbiosys/export.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "symbiosys/breadcrumb.hpp"

namespace sym::prof {
namespace {

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return is;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  return os;
}

}  // namespace

// ---------------------------------------------------------------------------
// Profile CSV
// ---------------------------------------------------------------------------
//
// One row per (breadcrumb, side, self, peer, interval):
//   breadcrumb,side,self_ep,peer_ep,interval,count,sum_ns,min_ns,max_ns

void write_profile_csv(std::ostream& os, const ProfileStore& store) {
  os << "breadcrumb,side,self_ep,peer_ep,interval,count,sum_ns,min_ns,max_ns\n";
  for (const auto& [key, stats] : store.entries()) {
    for (int i = 0; i < static_cast<int>(Interval::kCount); ++i) {
      const auto& iv = stats.intervals[i];
      if (iv.count == 0) continue;
      os << key.breadcrumb << ','
         << (key.side == Side::kOrigin ? "origin" : "target") << ','
         << key.self_ep << ',' << key.peer_ep << ',' << i << ',' << iv.count
         << ',' << iv.sum_ns << ',' << iv.min_ns << ',' << iv.max_ns << '\n';
    }
  }
}

ProfileStore read_profile_csv(std::istream& is) {
  ProfileStore store;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string side;
    CallpathKey key;
    int interval = 0;
    IntervalStats iv;
    char comma = 0;
    ls >> key.breadcrumb >> comma;
    std::getline(ls, side, ',');
    ls >> key.self_ep >> comma >> key.peer_ep >> comma >> interval >> comma >>
        iv.count >> comma >> iv.sum_ns >> comma >> iv.min_ns >> comma >>
        iv.max_ns;
    key.side = (side == "origin") ? Side::kOrigin : Side::kTarget;
    store.merge_entry(key, static_cast<Interval>(interval), iv);
  }
  return store;
}

// ---------------------------------------------------------------------------
// Trace CSV
// ---------------------------------------------------------------------------

void write_trace_csv(std::ostream& os, const TraceStore& store) {
  os << "request_id,order,kind,breadcrumb,self_ep,peer_ep,local_ts,lamport,"
        "blocked,runnable,rss,cpu,cq_size,ofi_read,posted\n";
  for (const auto& ev : store.events()) {
    os << ev.request_id << ',' << ev.order << ','
       << static_cast<int>(ev.kind) << ',' << ev.breadcrumb << ','
       << ev.self_ep << ',' << ev.peer_ep << ',' << ev.local_ts << ','
       << ev.lamport << ',' << ev.blocked_ults << ',' << ev.runnable_ults
       << ',' << ev.rss_bytes << ',' << ev.cpu_util << ','
       << ev.completion_queue_size << ',' << ev.num_ofi_events_read << ','
       << ev.num_posted_handles << '\n';
  }
}

TraceStore read_trace_csv(std::istream& is) {
  TraceStore store;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TraceEvent ev;
    char c = 0;
    int kind = 0;
    ls >> ev.request_id >> c >> ev.order >> c >> kind >> c >> ev.breadcrumb >>
        c >> ev.self_ep >> c >> ev.peer_ep >> c >> ev.local_ts >> c >>
        ev.lamport >> c >> ev.blocked_ults >> c >> ev.runnable_ults >> c >>
        ev.rss_bytes >> c >> ev.cpu_util >> c >> ev.completion_queue_size >>
        c >> ev.num_ofi_events_read >> c >> ev.num_posted_handles;
    ev.kind = static_cast<TraceEventKind>(kind);
    store.append(ev);
  }
  return store;
}

// ---------------------------------------------------------------------------
// System-statistics CSV
// ---------------------------------------------------------------------------

void write_sysstats_csv(std::ostream& os, const SysStatStore& store) {
  os << "local_ts,rss,cpu,blocked,runnable,cq_size,posted\n";
  for (const auto& s : store.samples()) {
    os << s.local_ts << ',' << s.rss_bytes << ',' << s.cpu_util << ','
       << s.blocked_ults << ',' << s.runnable_ults << ','
       << s.completion_queue_size << ',' << s.num_posted_handles << '\n';
  }
}

SysStatStore read_sysstats_csv(std::istream& is) {
  SysStatStore store;
  std::string line;
  std::getline(is, line);
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    SysStat s;
    char c = 0;
    ls >> s.local_ts >> c >> s.rss_bytes >> c >> s.cpu_util >> c >>
        s.blocked_ults >> c >> s.runnable_ults >> c >>
        s.completion_queue_size >> c >> s.num_posted_handles;
    store.append(s);
  }
  return store;
}

// ---------------------------------------------------------------------------
// File conveniences / names
// ---------------------------------------------------------------------------

void write_profile_csv_file(const std::string& path,
                            const ProfileStore& store) {
  auto os = open_out(path);
  write_profile_csv(os, store);
}
ProfileStore read_profile_csv_file(const std::string& path) {
  auto is = open_in(path);
  return read_profile_csv(is);
}
void write_trace_csv_file(const std::string& path, const TraceStore& store) {
  auto os = open_out(path);
  write_trace_csv(os, store);
}
TraceStore read_trace_csv_file(const std::string& path) {
  auto is = open_in(path);
  return read_trace_csv(is);
}
void write_sysstats_csv_file(const std::string& path,
                             const SysStatStore& store) {
  auto os = open_out(path);
  write_sysstats_csv(os, store);
}
SysStatStore read_sysstats_csv_file(const std::string& path) {
  auto is = open_in(path);
  return read_sysstats_csv(is);
}

}  // namespace sym::prof
