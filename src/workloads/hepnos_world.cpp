#include "workloads/hepnos_world.hpp"

#include <cassert>
#include <stdexcept>

namespace sym::workloads {

HepnosWorld::HepnosWorld(Params params)
    : params_(std::move(params)), eng_(params_.seed, params_.exec) {
  const auto& cfg = params_.config;
  if (cfg.databases % cfg.total_servers != 0) {
    throw std::invalid_argument(
        "HepnosWorld: databases must divide evenly across servers");
  }
  const std::uint32_t dbs_per_server = cfg.databases / cfg.total_servers;
  const std::uint32_t server_nodes =
      (cfg.total_servers + cfg.servers_per_node - 1) / cfg.servers_per_node;
  const std::uint32_t client_nodes =
      (cfg.total_clients + cfg.clients_per_node - 1) / cfg.clients_per_node;

  sim::ClusterParams cp;
  cp.node_count = server_nodes + client_nodes;
  cluster_ = std::make_unique<sim::Cluster>(eng_, cp);
  fabric_ = std::make_unique<ofi::Fabric>(*cluster_);

  // Servers first (nodes [0, server_nodes)).
  for (std::uint32_t s = 0; s < cfg.total_servers; ++s) {
    const sim::NodeId node = s / cfg.servers_per_node;
    auto& proc =
        cluster_->spawn_process(node, "hepnos-server-" + std::to_string(s));
    margo::InstanceConfig mc;
    mc.server = true;
    mc.handler_es = cfg.threads_es;
    mc.instr = params_.instr;
    mc.hg.max_events = cfg.ofi_max_events;
    servers_.push_back(std::make_unique<margo::Instance>(*fabric_, proc, mc));
    hepnos_servers_.push_back(std::make_unique<hepnos::Server>(
        *servers_.back(),
        hepnos::ServerConfig{.sdskv_provider = 1,
                             .bake_provider = 2,
                             .backend = params_.backend,
                             .databases = dbs_per_server}));
  }

  // Servers form an SSG group; clients discover the membership by
  // observing it through rank 0, exactly as HEPnOS clients bootstrap.
  std::vector<ofi::EpAddr> server_addrs;
  server_addrs.reserve(servers_.size());
  for (const auto& s : servers_) server_addrs.push_back(s->addr());
  for (auto& s : servers_) {
    group_members_.push_back(
        std::make_unique<ssg::Member>(*s, "hepnos", server_addrs));
  }
  dbs_per_server_ = dbs_per_server;

  // Clients on the remaining nodes.
  for (std::uint32_t c = 0; c < cfg.total_clients; ++c) {
    const sim::NodeId node = server_nodes + c / cfg.clients_per_node;
    auto& proc =
        cluster_->spawn_process(node, "dataloader-" + std::to_string(c));
    margo::InstanceConfig mc;
    mc.server = false;
    mc.dedicated_progress_es = cfg.client_progress_thread;
    mc.instr = params_.instr;
    mc.hg.max_events = cfg.ofi_max_events;
    clients_.push_back(std::make_unique<margo::Instance>(*fabric_, proc, mc));
    observers_.push_back(std::make_unique<ssg::Observer>(*clients_.back()));
  }
  stores_.resize(clients_.size());

  stats_.resize(clients_.size());
}

HepnosWorld::~HepnosWorld() = default;

void HepnosWorld::run() {
  assert(!ran_ && "HepnosWorld::run() called twice");
  ran_ = true;

  for (auto& s : servers_) s->start();
  for (auto& c : clients_) c->start();

  auto remaining = std::make_shared<std::size_t>(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    margo::Instance& mid = *clients_[i];
    // Stagger client starts: real data-loader ranks never begin their
    // first flush in lockstep (job launch skew, PFS open times).
    const auto delay = static_cast<sim::DurationNs>(
        eng_.rng().uniform(params_.start_spread + 1));
    mid.spawn([this, i, remaining, &mid, delay] {
      // Service discovery: observe the provider group through rank 0 and
      // build this client's DataStore from the returned view.
      const auto view = observers_[i]->observe(servers_[0]->addr(), "hepnos");
      stores_[i] = std::make_unique<hepnos::DataStore>(
          mid, view.members, /*sdskv_provider=*/1, dbs_per_server_);
      stats_[i] = hepnos::run_data_loader(
          *stores_[i], params_.file_model, params_.files_per_client,
          params_.config.batch_size, "NOvA",
          static_cast<std::uint32_t>(i), params_.config.pipeline_ops, delay);
      mid.finalize();
      if (!eng_.parallel()) {
        if (--*remaining == 0) {
          for (auto& s : servers_) s->finalize();
        }
      } else {
        // Clients complete on their own lanes: serialize the countdown on
        // lane 0 and fan the server finalize back out to each server's home
        // lane. Cross-lane posts with delay >= the lookahead are always
        // window-safe, and the mailbox merge order makes this independent
        // of the worker count.
        eng_.after_on(0, eng_.lookahead(), [this, remaining] {
          if (--*remaining == 0) {
            for (auto& s : servers_) {
              margo::Instance* sp = s.get();
              const std::uint32_t dst =
                  eng_.lane_for_node(sp->process().node());
              eng_.after_on(dst, eng_.lookahead(),
                            [sp] { sp->finalize(); });
            }
          }
        });
      }
    });
  }
  eng_.run();
}

sim::DurationNs HepnosWorld::makespan() const noexcept {
  sim::DurationNs max = 0;
  for (const auto& s : stats_) {
    if (s.elapsed > max) max = s.elapsed;
  }
  return max;
}

std::uint64_t HepnosWorld::events_stored() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : hepnos_servers_) n += s->events_stored();
  return n;
}

std::vector<const prof::ProfileStore*> HepnosWorld::all_profiles() const {
  std::vector<const prof::ProfileStore*> out;
  for (const auto& s : servers_) out.push_back(&s->profile());
  for (const auto& c : clients_) out.push_back(&c->profile());
  return out;
}

std::vector<const prof::TraceStore*> HepnosWorld::all_traces() const {
  std::vector<const prof::TraceStore*> out;
  for (const auto& s : servers_) out.push_back(&s->trace());
  for (const auto& c : clients_) out.push_back(&c->trace());
  return out;
}

std::vector<const prof::TraceStore*> HepnosWorld::server_traces() const {
  std::vector<const prof::TraceStore*> out;
  for (const auto& s : servers_) out.push_back(&s->trace());
  return out;
}

std::vector<const prof::TraceStore*> HepnosWorld::client_traces() const {
  std::vector<const prof::TraceStore*> out;
  for (const auto& c : clients_) out.push_back(&c->trace());
  return out;
}

std::vector<std::pair<std::string, const prof::SysStatStore*>>
HepnosWorld::all_sysstats() const {
  std::vector<std::pair<std::string, const prof::SysStatStore*>> out;
  for (const auto& s : servers_) {
    out.emplace_back(s->process().name(), &s->sysstats());
  }
  for (const auto& c : clients_) {
    out.emplace_back(c->process().name(), &c->sysstats());
  }
  return out;
}

}  // namespace sym::workloads
