#include "workloads/cache_world.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace sym::workloads {

CacheWorld::CacheWorld(Params params)
    : params_(std::move(params)), eng_(params_.seed, params_.exec) {
  if (params_.cache_servers == 0) params_.cache_servers = 1;
  if (params_.clients_per_node == 0) params_.clients_per_node = 1;

  std::uint32_t total_clients = 0;
  for (const auto& t : params_.tenants) total_clients += t.width;
  const std::uint32_t client_nodes =
      (total_clients + params_.clients_per_node - 1) / params_.clients_per_node;

  // Node 0: BAKE backend. Nodes [1, 1+S): cache servers. Rest: clients.
  sim::ClusterParams cp;
  cp.node_count = 1 + params_.cache_servers + std::max(client_nodes, 1u);
  cluster_ = std::make_unique<sim::Cluster>(eng_, cp);
  fabric_ = std::make_unique<ofi::Fabric>(*cluster_);

  auto& bproc = cluster_->spawn_process(0, "bake-backend");
  margo::InstanceConfig bc;
  bc.server = true;
  bc.instr = params_.instr;
  backend_ = std::make_unique<margo::Instance>(*fabric_, bproc, bc);
  bake_ = std::make_unique<bake::Provider>(*backend_,
                                           params_.cache.backend_provider);
  params_.cache.backend = backend_->addr();

  for (std::uint32_t s = 0; s < params_.cache_servers; ++s) {
    auto& proc =
        cluster_->spawn_process(1 + s, "cache-server-" + std::to_string(s));
    margo::InstanceConfig sc;
    sc.server = true;
    sc.instr = params_.instr;
    cache_servers_.push_back(
        std::make_unique<margo::Instance>(*fabric_, proc, sc));
    providers_.push_back(std::make_unique<blockcache::Provider>(
        *cache_servers_.back(), /*provider_id=*/1, params_.cache));
    if (params_.autoscale) {
      policies_.push_back(
          std::make_unique<margo::PolicyEngine>(*cache_servers_.back()));
      policies_.back()->add_rule("cache_capacity",
                                 blockcache::Provider::capacity_autoscale());
    }
  }

  view_.servers.clear();
  for (const auto& s : cache_servers_) view_.servers.push_back(s->addr());
  view_.provider = 1;
  view_.placement = params_.placement;
  view_.stripe_blocks = params_.stripe_blocks;
  view_.block_bytes = params_.cache.block_bytes;

  std::uint32_t gidx = 0;
  for (std::size_t t = 0; t < params_.tenants.size(); ++t) {
    const auto& spec = params_.tenants[t];
    for (std::uint32_t m = 0; m < spec.width; ++m, ++gidx) {
      const sim::NodeId node =
          1 + params_.cache_servers + gidx / params_.clients_per_node;
      auto& proc = cluster_->spawn_process(
          node, "tenant" + std::to_string(t) + "-" + std::to_string(m));
      margo::InstanceConfig cc;
      cc.instr = params_.instr;
      clients_.push_back(
          std::make_unique<margo::Instance>(*fabric_, proc, cc));
      bclients_.push_back(std::make_unique<blockcache::Client>(
          *clients_.back(), view_, static_cast<std::uint32_t>(t),
          spec.width));
      client_tenant_.emplace_back(t, m);
    }
  }
  client_mismatch_.assign(clients_.size(), 0);
  tenant_done_.assign(params_.tenants.size(), 0);
}

CacheWorld::~CacheWorld() = default;

void CacheWorld::client_loop(std::size_t client_index, std::size_t tenant,
                             std::uint32_t member, blockcache::Client& bc) {
  const auto& spec = params_.tenants[tenant];
  const std::uint64_t object = tenant;  // one object per tenant job
  const std::uint64_t bs = params_.cache.block_bytes;
  const std::uint32_t base = member * spec.blocks_per_client;
  const auto fill = std::byte{static_cast<unsigned char>(tenant + 1)};

  if (spec.pattern != CachePattern::kSeqRead) {
    const std::uint32_t wob = std::max(spec.write_op_blocks, 1u);
    for (std::uint32_t b = 0; b < spec.blocks_per_client; b += wob) {
      const std::uint32_t n = std::min(wob, spec.blocks_per_client - b);
      bc.write(object, (base + b) * bs,
               std::vector<std::byte>(static_cast<std::size_t>(n) * bs,
                                      fill));
    }
    bc.flush_all();
  }
  if (spec.pattern != CachePattern::kSeqWrite) {
    const bool verify = spec.pattern == CachePattern::kWriteThenRead;
    for (std::uint32_t p = 0; p < spec.passes; ++p) {
      for (std::uint32_t b = 0; b < spec.blocks_per_client; ++b) {
        const auto data = bc.read(object, base + b);
        if (verify) {
          std::uint64_t bad = data.size() == bs ? 0 : 1;
          for (const auto byte : data) {
            if (byte != fill) ++bad;
          }
          client_mismatch_[client_index] += bad;
        }
      }
    }
  }
}

void CacheWorld::run() {
  assert(!ran_ && "CacheWorld::run() called twice");
  ran_ = true;

  backend_->start();
  for (auto& s : cache_servers_) s->start();
  for (auto& p : providers_) p->start();
  for (auto& pe : policies_) pe->start();
  for (auto& c : clients_) c->start();

  auto remaining = std::make_shared<std::size_t>(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    margo::Instance& mid = *clients_[i];
    const auto [tenant, member] = client_tenant_[i];
    blockcache::Client& bc = *bclients_[i];
    mid.spawn([this, i, tenant = tenant, member = member, remaining, &mid,
               &bc] {
      client_loop(i, tenant, member, bc);
      const sim::TimeNs finished = eng_.now();
      mid.finalize();
      if (!eng_.parallel()) {
        if (finished > tenant_done_[tenant]) tenant_done_[tenant] = finished;
        if (--*remaining == 0) {
          backend_->finalize();
          for (auto& s : cache_servers_) s->finalize();
        }
      } else {
        // Clients complete on their own lanes: serialize both the tenant
        // completion-time fold and the shutdown countdown on lane 0, then
        // fan the server finalize back out to each server's home lane.
        eng_.after_on(0, eng_.lookahead(), [this, tenant, finished,
                                            remaining] {
          if (finished > tenant_done_[tenant]) tenant_done_[tenant] = finished;
          if (--*remaining == 0) {
            auto shut = [this](margo::Instance* sp) {
              const std::uint32_t dst =
                  eng_.lane_for_node(sp->process().node());
              eng_.after_on(dst, eng_.lookahead(),
                            [sp] { sp->finalize(); });
            };
            shut(backend_.get());
            for (auto& s : cache_servers_) shut(s.get());
          }
        });
      }
    });
  }
  eng_.run();
}

std::uint64_t CacheWorld::tenant_bytes(std::size_t t) const {
  const auto& spec = params_.tenants.at(t);
  const std::uint64_t bs = params_.cache.block_bytes;
  std::uint64_t per_client = 0;
  if (spec.pattern != CachePattern::kSeqRead) {
    per_client += spec.blocks_per_client * bs;
  }
  if (spec.pattern != CachePattern::kSeqWrite) {
    per_client += static_cast<std::uint64_t>(spec.passes) *
                  spec.blocks_per_client * bs;
  }
  return per_client * spec.width;
}

double CacheWorld::tenant_byte_rate(std::size_t t) const {
  const auto done = tenant_done_.at(t);
  if (done == 0) return 0.0;
  return static_cast<double>(tenant_bytes(t)) /
         (static_cast<double>(done) * 1e-9);
}

sim::TimeNs CacheWorld::makespan() const noexcept {
  sim::TimeNs max = 0;
  for (const auto t : tenant_done_) max = std::max(max, t);
  return max;
}

std::uint64_t CacheWorld::data_mismatches() const {
  std::uint64_t n = 0;
  for (const auto m : client_mismatch_) n += m;
  return n;
}

std::uint64_t CacheWorld::total_hits() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->hits();
  return n;
}
std::uint64_t CacheWorld::total_misses() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->misses();
  return n;
}
std::uint64_t CacheWorld::total_backend_reads() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->backend_reads();
  return n;
}
std::uint64_t CacheWorld::total_backend_read_bytes() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->backend_read_bytes();
  return n;
}
std::uint64_t CacheWorld::total_writeback_ops() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->writeback_ops();
  return n;
}
std::uint64_t CacheWorld::total_writeback_bytes() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->writeback_bytes();
  return n;
}
std::uint64_t CacheWorld::total_evictions() const {
  std::uint64_t n = 0;
  for (const auto& p : providers_) n += p->evictions();
  return n;
}

std::vector<const prof::ProfileStore*> CacheWorld::all_profiles() const {
  std::vector<const prof::ProfileStore*> out{&backend_->profile()};
  for (const auto& s : cache_servers_) out.push_back(&s->profile());
  for (const auto& c : clients_) out.push_back(&c->profile());
  return out;
}

std::vector<const prof::TraceStore*> CacheWorld::all_traces() const {
  std::vector<const prof::TraceStore*> out{&backend_->trace()};
  for (const auto& s : cache_servers_) out.push_back(&s->trace());
  for (const auto& c : clients_) out.push_back(&c->trace());
  return out;
}

}  // namespace sym::workloads
