#include "sofi/fabric.hpp"

#include <cassert>
#include <utility>

#include "argolite/pool.hpp"
#include "argolite/runtime.hpp"
#include "argolite/ult.hpp"

namespace sym::ofi {

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------

void CompletionQueue::push(CqEntry entry) {
  entry.enqueued_at = engine_.now();
  q_.push_back(std::move(entry));
  ++total_pushed_;
  if (q_.size() > high_watermark_) high_watermark_ = q_.size();
  if (waiter_ != nullptr) {
    abt::Ult* w = waiter_;
    waiter_ = nullptr;
    if (waiter_timeout_ != 0) {
      engine_.cancel(waiter_timeout_);
      waiter_timeout_ = 0;
    }
    w->pool().wake_blocked(*w);
  }
}

std::size_t CompletionQueue::read(std::vector<CqEntry>& out,
                                  std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !q_.empty()) {
    out.push_back(std::move(q_.front()));
    q_.pop_front();
    ++n;
  }
  return n;
}

bool CompletionQueue::wait_nonempty(sim::DurationNs timeout) {
  if (!q_.empty()) return true;
  abt::Ult* u = abt::self();
  assert(u != nullptr && "wait_nonempty() outside ULT context");
  assert(waiter_ == nullptr && "only one CQ waiter supported");
  waiter_ = u;
  waiter_timeout_ = engine_.after(timeout, [this, u] {
    // Timed out: clear waiter state and wake the ULT.
    waiter_ = nullptr;
    waiter_timeout_ = 0;
    u->pool().wake_blocked(*u);
  });
  abt::block_self();
  return !q_.empty();
}

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

Endpoint::Endpoint(Fabric& fabric, EpAddr addr, sim::Process& process)
    : fabric_(fabric), addr_(addr), process_(process), cq_(fabric.engine()) {
  // The endpoint's completion queue and counters are owned by the lane that
  // owns its node: delivery events are always scheduled onto that lane.
  sim::debug::bind_home_lane(
      this, fabric.engine().lane_for_node(process.node()));
}

Endpoint::~Endpoint() { sim::debug::unbind_home_lane(this); }

void Endpoint::post_send(EpAddr dst, std::uint64_t tag,
                         std::vector<std::byte> data, std::uint64_t context,
                         std::uint64_t wire_bytes,
                         std::shared_ptr<void> attachment) {
  Endpoint& peer = fabric_.endpoint(dst);
  sim::debug::assert_home_lane(this, "Endpoint::post_send");
  const std::uint64_t bytes =
      wire_bytes != 0 ? wire_bytes : static_cast<std::uint64_t>(data.size());
  ++sends_;
  bytes_sent_ += bytes;

  const auto timing =
      fabric_.plan_transfer(process_.node(), peer.process_.node(), bytes);
  auto& engine = fabric_.engine();

  // Sender-side completion when the last byte leaves the NIC.
  engine.at(timing.src_complete, [this, dst, context, bytes] {
    cq_.push(CqEntry{.kind = CqKind::kSendComplete,
                     .peer = dst,
                     .tag = 0,
                     .context = context,
                     .bytes = bytes,
                     .data = {},
                     .attachment = nullptr});
  });

  // Receiver-side delivery: scheduled onto the lane that owns the
  // destination node, so all peer-state mutation is lane-local. For a
  // cross-lane send this routes through the window mailbox — safe, because
  // arrival is at least one link latency (>= the engine lookahead) away.
  // The payload vector is move-captured straight into the (move-only)
  // callback: no shared_ptr wrap, no per-message heap traffic beyond the
  // buffer the caller already owns.
  const EpAddr src = addr_;
  engine.at_on(engine.lane_for_node(peer.process_.node()), timing.arrival,
               [&peer, src, tag, context, bytes, data = std::move(data),
                attachment = std::move(attachment)]() mutable {
    sim::debug::assert_home_lane(&peer, "Endpoint recv delivery");
    ++peer.recvs_;
    peer.cq_.push(CqEntry{.kind = CqKind::kRecv,
                          .peer = src,
                          .tag = tag,
                          .context = context,
                          .bytes = bytes,
                          .data = std::move(data),
                          .attachment = std::move(attachment)});
  });
}

void Endpoint::post_rdma(EpAddr peer_addr, std::uint64_t bytes,
                         std::uint64_t context) {
  Endpoint& peer = fabric_.endpoint(peer_addr);
  sim::debug::assert_home_lane(this, "Endpoint::post_rdma");
  ++rdma_ops_;
  bytes_rdma_ += bytes;

  auto& cluster = fabric_.cluster();
  const auto src_node = process_.node();
  const auto peer_node = peer.process_.node();
  auto& engine = fabric_.engine();

  // Request flight to the peer, then data moves through the peer's NIC,
  // then the tail latency back to the initiator.
  const auto request_arrives =
      engine.now() + fabric_.per_message_overhead() +
      cluster.link_latency(src_node, peer_node);

  const auto src_lane = engine.lane_for_node(src_node);
  const auto peer_lane = engine.lane_for_node(peer_node);
  if (src_lane == peer_lane) {
    // The peer's NIC state is owned by the initiator's own lane (always the
    // case for the single-lane engine): reserve it synchronously, exactly
    // as the historical implementation did.
    sim::TimeNs data_done;
    if (src_node == peer_node) {
      const auto xfer = static_cast<sim::DurationNs>(
          static_cast<double>(bytes) / cluster.params().mem_bw_bytes_per_ns);
      data_done = request_arrives + xfer;
    } else {
      data_done = cluster.node(peer_node).reserve_nic(
          request_arrives, bytes, cluster.params().nic_bw_bytes_per_ns);
    }
    const auto complete_at =
        data_done + cluster.link_latency(src_node, peer_node);

    engine.at(complete_at, [this, peer_addr, context, bytes] {
      cq_.push(CqEntry{.kind = CqKind::kRdmaComplete,
                       .peer = peer_addr,
                       .tag = 0,
                       .context = context,
                       .bytes = bytes,
                       .data = {},
                       .attachment = nullptr});
    });
    return;
  }

  // Sharded engine, remote peer: the peer NIC belongs to another lane, so
  // the reservation itself becomes an event on that lane (delivered through
  // the window mailbox — request_arrives is >= one link latency away). The
  // completion is then scheduled back onto the initiator's lane, again at
  // least one link latency in the future.
  auto* cluster_p = &cluster;
  engine.at_on(
      peer_lane, request_arrives,
      [this, cluster_p, src_node, peer_node, peer_addr, context, bytes,
       src_lane] {
        auto& eng = fabric_.engine();
        const auto data_done = cluster_p->node(peer_node).reserve_nic(
            eng.now(), bytes, cluster_p->params().nic_bw_bytes_per_ns);
        const auto complete_at =
            data_done + cluster_p->link_latency(src_node, peer_node);
        eng.at_on(src_lane, complete_at, [this, peer_addr, context, bytes] {
          cq_.push(CqEntry{.kind = CqKind::kRdmaComplete,
                           .peer = peer_addr,
                           .tag = 0,
                           .context = context,
                           .bytes = bytes,
                           .data = {},
                           .attachment = nullptr});
        });
      });
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Endpoint& Fabric::create_endpoint(sim::Process& process) {
  const auto addr = static_cast<EpAddr>(endpoints_.size());
  endpoints_.push_back(std::make_unique<Endpoint>(*this, addr, process));
  return *endpoints_.back();
}

Fabric::TransferTiming Fabric::plan_transfer(sim::NodeId src, sim::NodeId dst,
                                             std::uint64_t bytes) {
  auto& engine = cluster_.engine();
  const sim::TimeNs start = engine.now() + kPerMessageOverhead;
  sim::TimeNs src_complete;
  if (src == dst) {
    // Loopback: memory copy, no NIC involvement or contention.
    const auto xfer = static_cast<sim::DurationNs>(
        static_cast<double>(bytes) / cluster_.params().mem_bw_bytes_per_ns);
    src_complete = start + xfer;
  } else {
    src_complete = cluster_.node(src).reserve_nic(
        start, bytes, cluster_.params().nic_bw_bytes_per_ns);
  }
  const sim::TimeNs arrival = src_complete + cluster_.link_latency(src, dst);
  return TransferTiming{src_complete, arrival};
}

}  // namespace sym::ofi
