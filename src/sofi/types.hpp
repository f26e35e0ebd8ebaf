// sofi/types.hpp
//
// Simulated OpenFabrics-style network interface ("sofi"). Shared types.
//
// sofi models the properties of libfabric that matter to the paper:
//  * eager message delivery with latency + bandwidth + NIC serialization,
//  * one-sided RDMA transfers,
//  * a per-endpoint completion queue drained by a progress loop in
//    *bounded* reads (`max_events`), which is exactly the mechanism behind
//    the paper's `num_ofi_events_read` PVAR and the Fig. 12 backlog study.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "simkit/time.hpp"

namespace sym::ofi {

/// Flat address of an endpoint within the fabric.
using EpAddr = std::uint32_t;

inline constexpr EpAddr kInvalidAddr = ~0u;

/// Completion/event kinds surfaced through an endpoint's completion queue.
enum class CqKind : std::uint8_t {
  kRecv,          ///< an eager message arrived (payload attached)
  kSendComplete,  ///< a post_send's last byte left the local NIC
  kRdmaComplete,  ///< a post_rdma transfer finished (initiator side)
};

/// An entry in a completion queue.
struct CqEntry {
  CqKind kind{};
  EpAddr peer = kInvalidAddr;    ///< remote endpoint involved
  std::uint64_t tag = 0;         ///< application demux tag (kRecv only)
  std::uint64_t context = 0;     ///< sender-supplied op context
  std::uint64_t bytes = 0;       ///< wire bytes of the operation
  sim::TimeNs enqueued_at = 0;   ///< when the event entered the CQ
  std::vector<std::byte> data;   ///< payload (kRecv only)
  /// Simulated registered-memory attachment: content of an RDMA-exposed
  /// buffer referenced by the message. It rides along for content purposes
  /// but contributes nothing to the wire cost — the receiver must issue a
  /// bulk transfer (post_rdma) before touching it, which is where the bytes
  /// are charged. This models Mercury bulk handles over real RDMA. The
  /// message carries the sender's reference: the receiver adopts it.
  std::shared_ptr<void> attachment;
};

}  // namespace sym::ofi
