// sofi/fabric.hpp
//
// The fabric connects endpoints across the simulated cluster and implements
// the transfer timing model:
//
//   eager send:  src-NIC serialization (bytes/bw) + link latency -> recv
//                event at the destination; send-completion event at the
//                source when the last byte leaves the NIC.
//   RDMA:        request latency + data-source NIC serialization + return
//                latency -> completion at the initiator.
//
// Intra-node communication bypasses the NIC (memory bandwidth, no
// contention), which models colocated client/provider deployments like the
// paper's ior+Mobject study.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simkit/cluster.hpp"
#include "sofi/completion_queue.hpp"
#include "sofi/types.hpp"

namespace sym::ofi {

class Fabric;

/// A communication endpoint owned by one simulated process.
class Endpoint {
 public:
  Endpoint(Fabric& fabric, EpAddr addr, sim::Process& process);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] EpAddr addr() const noexcept { return addr_; }
  [[nodiscard]] sim::Process& process() noexcept { return process_; }
  [[nodiscard]] CompletionQueue& cq() noexcept { return cq_; }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }

  /// Two-sided eager send. The receiver gets a kRecv entry carrying `data`;
  /// the sender gets a kSendComplete entry with `context`.
  ///
  /// `wire_bytes` overrides the number of bytes charged to the NIC/link
  /// model; 0 means data.size(). The RPC layer uses this to model
  /// eager-buffer truncation: the full payload object travels with the
  /// message for content purposes, but only the eager portion is charged
  /// here — the remainder is fetched with post_rdma (the paper's "internal
  /// RDMA" path for overflowing request metadata).
  void post_send(EpAddr dst, std::uint64_t tag, std::vector<std::byte> data,
                 std::uint64_t context, std::uint64_t wire_bytes = 0,
                 std::shared_ptr<void> attachment = nullptr);

  /// One-sided transfer of `bytes` between this endpoint and `peer` (the
  /// direction does not change the timing model). Initiator receives a
  /// kRdmaComplete entry with `context`; the peer is not notified.
  void post_rdma(EpAddr peer, std::uint64_t bytes, std::uint64_t context);

  // --- statistics (exported as PVARs by the RPC layer) ---
  [[nodiscard]] std::uint64_t sends_posted() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t recvs_delivered() const noexcept {
    return recvs_;
  }
  [[nodiscard]] std::uint64_t rdma_ops() const noexcept { return rdma_ops_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_rdma() const noexcept {
    return bytes_rdma_;
  }

 private:
  friend class Fabric;

  Fabric& fabric_;
  EpAddr addr_;
  sim::Process& process_;
  CompletionQueue cq_;
  std::uint64_t sends_ = 0;
  std::uint64_t recvs_ = 0;
  std::uint64_t rdma_ops_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_rdma_ = 0;
};

class Fabric {
 public:
  explicit Fabric(sim::Cluster& cluster) : cluster_(cluster) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Create an endpoint for `process`. Addresses are dense indices.
  Endpoint& create_endpoint(sim::Process& process);

  [[nodiscard]] Endpoint& endpoint(EpAddr addr) { return *endpoints_.at(addr); }
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoints_.size();
  }
  [[nodiscard]] sim::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return cluster_.engine(); }

  /// Fixed per-message software overhead (driver + protocol processing).
  [[nodiscard]] sim::DurationNs per_message_overhead() const noexcept {
    return kPerMessageOverhead;
  }

 private:
  friend class Endpoint;

  /// Timing core shared by sends and RDMA. Returns (src_complete, arrival).
  struct TransferTiming {
    sim::TimeNs src_complete;
    sim::TimeNs arrival;
  };
  TransferTiming plan_transfer(sim::NodeId src, sim::NodeId dst,
                               std::uint64_t bytes);

  sim::Cluster& cluster_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  static constexpr sim::DurationNs kPerMessageOverhead = sim::nsec(1000);
};

}  // namespace sym::ofi
