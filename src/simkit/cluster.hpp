// simkit/cluster.hpp
//
// The simulated hardware platform: nodes with clock skew and NICs, and
// processes with an OS-level resource model (RSS, CPU accounting).
//
// This substitutes for the paper's Theta (Cray XC40) testbed; see DESIGN.md.
// The parameters below default to values representative of an HPC
// interconnect (low single-digit microsecond latency, ~10 GB/s per NIC).
// Links are uniform: every pair of distinct nodes is one inter-node latency
// apart. A sharded engine maps nodes to lanes, so every cross-lane event
// crosses a link, and the Cluster sets the engine's lookahead to that
// latency.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/time.hpp"

namespace sym::sim {

using NodeId = std::uint32_t;
using ProcessId = std::uint32_t;

struct ClusterParams {
  std::uint32_t node_count = 1;
  /// One-way network latency between distinct nodes.
  DurationNs inter_node_latency = usec(2);
  /// Latency of loopback / shared-memory transport within one node.
  DurationNs intra_node_latency = nsec(300);
  /// NIC bandwidth in bytes per nanosecond (10 => 10 GB/s).
  double nic_bw_bytes_per_ns = 10.0;
  /// Memory bandwidth used for intra-node transfers (bytes per ns).
  double mem_bw_bytes_per_ns = 40.0;
  /// Maximum absolute per-node wall-clock skew. Node 0 has zero skew;
  /// other nodes draw a fixed offset uniformly from [-max, +max]. The skew
  /// is what makes Lamport-clock correction in the tracer observable.
  DurationNs max_clock_skew = usec(50);
};

/// A compute node: clock skew and a NIC whose serialization models
/// bandwidth contention between concurrent transfers.
class Node {
 public:
  Node(NodeId id, std::int64_t clock_skew_ns)
      : id_(id), clock_skew_ns_(clock_skew_ns) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Signed offset of this node's local clock from global virtual time.
  [[nodiscard]] std::int64_t clock_skew_ns() const noexcept {
    return clock_skew_ns_;
  }

  /// Convert a global virtual timestamp to this node's local wall clock.
  [[nodiscard]] TimeNs local_clock(TimeNs global) const noexcept {
    const auto shifted = static_cast<std::int64_t>(global) + clock_skew_ns_;
    return shifted < 0 ? 0 : static_cast<TimeNs>(shifted);
  }

  /// Reserve the NIC for a transfer of `bytes` at bandwidth `bw` starting no
  /// earlier than `now`. Returns the time the transfer *completes* on this
  /// NIC. Transfers serialize: a second transfer starts when the first ends.
  TimeNs reserve_nic(TimeNs now, std::uint64_t bytes, double bw_bytes_per_ns);

  [[nodiscard]] std::uint64_t nic_bytes_total() const noexcept {
    return nic_bytes_total_;
  }

 private:
  NodeId id_;
  std::int64_t clock_skew_ns_;
  TimeNs nic_busy_until_ = 0;
  std::uint64_t nic_bytes_total_ = 0;
};

/// A simulated OS process placed on a node. Holds coarse OS-level metrics
/// that SYMBIOSYS samples into trace events (memory usage, CPU time).
class Process {
 public:
  Process(ProcessId pid, NodeId node, std::string name)
      : pid_(pid), node_(node), name_(std::move(name)) {}

  [[nodiscard]] ProcessId pid() const noexcept { return pid_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Resident set size model: services account their allocations here.
  void add_rss(std::int64_t delta) noexcept {
    rss_bytes_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rss_bytes_) + delta);
  }
  [[nodiscard]] std::uint64_t rss_bytes() const noexcept { return rss_bytes_; }

  /// CPU accounting: execution streams report busy virtual time here.
  void add_cpu_time(DurationNs d) noexcept { cpu_time_ += d; }
  [[nodiscard]] DurationNs cpu_time() const noexcept { return cpu_time_; }

  /// Utilization over [since, now] given the number of cores the process
  /// had available (its execution-stream count).
  [[nodiscard]] double cpu_utilization(TimeNs since, TimeNs now,
                                       unsigned cores) const noexcept;

  /// Snapshot used by utilization computations.
  void checkpoint_cpu(TimeNs now) noexcept {
    cpu_checkpoint_time_ = now;
    cpu_checkpoint_value_ = cpu_time_;
  }
  [[nodiscard]] TimeNs cpu_checkpoint_time() const noexcept {
    return cpu_checkpoint_time_;
  }
  [[nodiscard]] DurationNs cpu_checkpoint_value() const noexcept {
    return cpu_checkpoint_value_;
  }

 private:
  ProcessId pid_;
  NodeId node_;
  std::string name_;
  std::uint64_t rss_bytes_ = 8ULL << 20;  // baseline process image
  DurationNs cpu_time_ = 0;
  TimeNs cpu_checkpoint_time_ = 0;
  DurationNs cpu_checkpoint_value_ = 0;
};

/// The simulated platform: an engine plus nodes and processes.
class Cluster {
 public:
  Cluster(Engine& engine, ClusterParams params);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }

  [[nodiscard]] Node& node(NodeId id) { return nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Create a process on `node` with a human-readable name.
  Process& spawn_process(NodeId node, std::string name);

  [[nodiscard]] Process& process(ProcessId pid) { return *processes_.at(pid); }
  [[nodiscard]] std::size_t process_count() const noexcept {
    return processes_.size();
  }

  /// One-way link latency between two nodes.
  [[nodiscard]] DurationNs link_latency(NodeId a, NodeId b) const noexcept {
    return a == b ? params_.intra_node_latency : params_.inter_node_latency;
  }

  /// Effective point-to-point bandwidth between two nodes.
  [[nodiscard]] double link_bandwidth(NodeId a, NodeId b) const noexcept {
    return a == b ? params_.mem_bw_bytes_per_ns : params_.nic_bw_bytes_per_ns;
  }

 private:
  Engine& engine_;
  ClusterParams params_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace sym::sim
