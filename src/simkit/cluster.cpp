#include "simkit/cluster.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

namespace sym::sim {

TimeNs Node::reserve_nic(TimeNs now, std::uint64_t bytes,
                         double bw_bytes_per_ns) {
  // NIC serialization state is owned by the lane that owns this node; a
  // reservation from a foreign lane would race and reorder transfers.
  debug::assert_home_lane(this, "Node::reserve_nic");
  assert(bw_bytes_per_ns > 0.0);
  const TimeNs start = now > nic_busy_until_ ? now : nic_busy_until_;
  const auto xfer =
      static_cast<DurationNs>(std::llround(static_cast<double>(bytes) /
                                           bw_bytes_per_ns));
  nic_busy_until_ = start + xfer;
  nic_bytes_total_ += bytes;
  return nic_busy_until_;
}

double Process::cpu_utilization(TimeNs since, TimeNs now,
                                unsigned cores) const noexcept {
  if (now <= since || cores == 0) return 0.0;
  const DurationNs busy = cpu_time_ - cpu_checkpoint_value_;
  const double window = static_cast<double>(now - since) * cores;
  const double util = static_cast<double>(busy) / window;
  return util > 1.0 ? 1.0 : util;
}

Cluster::Cluster(Engine& engine, ClusterParams params)
    : engine_(engine), params_(std::move(params)) {
  // Resolve the engine's lane topology before anything is scheduled or any
  // random draw is made: auto-sharding maps one lane per node.
  engine_.shard_for_nodes(params_.node_count);
  // Lanes partition the nodes, so every cross-lane event insertion crosses
  // a link: one inter-node latency is the smallest possible delay
  // (serialization and per-message overhead only add to it).
  if (engine_.parallel()) engine_.set_lookahead(params_.inter_node_latency);
  nodes_.reserve(params_.node_count);
  for (NodeId id = 0; id < params_.node_count; ++id) {
    std::int64_t skew = 0;
    if (id != 0 && params_.max_clock_skew > 0) {
      const auto span = static_cast<std::uint64_t>(params_.max_clock_skew);
      skew = static_cast<std::int64_t>(engine_.rng().uniform(2 * span + 1)) -
             static_cast<std::int64_t>(span);
    }
    nodes_.emplace_back(id, skew);
  }
  // nodes_ was reserved to its final size above, so the addresses are
  // stable for the cluster's lifetime — register each node's home lane.
  for (NodeId id = 0; id < params_.node_count; ++id) {
    debug::bind_home_lane(&nodes_[id], engine_.lane_for_node(id));
  }
}

Cluster::~Cluster() {
  for (auto& n : nodes_) debug::unbind_home_lane(&n);
}

Process& Cluster::spawn_process(NodeId node, std::string name) {
  assert(node < nodes_.size());
  const auto pid = static_cast<ProcessId>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, node, std::move(name)));
  return *processes_.back();
}

}  // namespace sym::sim
