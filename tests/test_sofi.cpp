// Unit tests for sofi: transfer timing, NIC serialization, completion
// queues with bounded reads, RDMA, attachments and ULT-blocking waits.
#include <gtest/gtest.h>

#include "argolite/runtime.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "sofi/fabric.hpp"

namespace sim = sym::sim;
namespace ofi = sym::ofi;
namespace abt = sym::abt;

namespace {

struct SofiFixture {
  SofiFixture() {
    // Zero skew, round parameters for exact timing assertions.
    sim::ClusterParams p;
    p.node_count = 2;
    p.inter_node_latency = sim::usec(2);
    p.intra_node_latency = sim::nsec(300);
    p.nic_bw_bytes_per_ns = 10.0;
    p.mem_bw_bytes_per_ns = 40.0;
    p.max_clock_skew = 0;
    cluster = std::make_unique<sim::Cluster>(eng, p);
    fabric = std::make_unique<ofi::Fabric>(*cluster);
    a = &fabric->create_endpoint(cluster->spawn_process(0, "a"));
    b = &fabric->create_endpoint(cluster->spawn_process(1, "b"));
    same_node_as_a = &fabric->create_endpoint(cluster->spawn_process(0, "c"));
  }

  sim::Engine eng{5};
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<ofi::Fabric> fabric;
  ofi::Endpoint* a{};
  ofi::Endpoint* b{};
  ofi::Endpoint* same_node_as_a{};
};

std::vector<std::byte> bytes(std::size_t n, std::byte fill = std::byte{7}) {
  return std::vector<std::byte>(n, fill);
}

}  // namespace

TEST(Sofi, EagerSendDeliversPayload) {
  SofiFixture f;
  f.a->post_send(f.b->addr(), /*tag=*/9, bytes(100, std::byte{0x5C}),
                 /*context=*/77);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  ASSERT_EQ(f.b->cq().read(events, 16), 1u);
  EXPECT_EQ(events[0].kind, ofi::CqKind::kRecv);
  EXPECT_EQ(events[0].tag, 9u);
  EXPECT_EQ(events[0].peer, f.a->addr());
  ASSERT_EQ(events[0].data.size(), 100u);
  EXPECT_EQ(events[0].data[50], std::byte{0x5C});
}

TEST(Sofi, SenderGetsSendCompletion) {
  SofiFixture f;
  f.a->post_send(f.b->addr(), 1, bytes(1000), 123);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  ASSERT_EQ(f.a->cq().read(events, 16), 1u);
  EXPECT_EQ(events[0].kind, ofi::CqKind::kSendComplete);
  EXPECT_EQ(events[0].context, 123u);
  // Send completes when the last byte leaves the NIC: overhead 1us +
  // 1000B / 10B/ns = 100ns.
  EXPECT_EQ(events[0].enqueued_at, sim::nsec(1000) + sim::nsec(100));
}

TEST(Sofi, InterNodeArrivalTimeMatchesModel) {
  SofiFixture f;
  f.a->post_send(f.b->addr(), 1, bytes(10'000), 0);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  f.b->cq().read(events, 16);
  // overhead 1us + 10000/10 = 1us transfer + 2us latency = 4us.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].enqueued_at, sim::usec(4));
}

TEST(Sofi, IntraNodeBypassesNic) {
  SofiFixture f;
  // Saturate node 0's NIC with a large inter-node transfer...
  f.a->post_send(f.b->addr(), 1, bytes(1'000'000), 0);
  // ...then send loopback traffic; it must not queue behind the NIC.
  f.a->post_send(f.same_node_as_a->addr(), 2, bytes(4'000), 0);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  ASSERT_EQ(f.same_node_as_a->cq().read(events, 16), 1u);
  // overhead 1us + 4000/40 = 100ns mem copy + 300ns loopback latency.
  EXPECT_EQ(events[0].enqueued_at, sim::nsec(1000 + 100 + 300));
}

TEST(Sofi, NicSerializesConcurrentSends) {
  SofiFixture f;
  f.a->post_send(f.b->addr(), 1, bytes(100'000), 1);  // 10us on the NIC
  f.a->post_send(f.b->addr(), 1, bytes(100'000), 2);  // queued behind it
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  f.b->cq().read(events, 16);
  ASSERT_EQ(events.size(), 2u);
  // Second arrival at least 10us after the first (its NIC slot).
  EXPECT_GE(events[1].enqueued_at, events[0].enqueued_at + sim::usec(10));
}

TEST(Sofi, WireBytesOverrideChargesOnlyEagerPortion) {
  SofiFixture f;
  // 1 MB payload but only 4 KB charged to the wire.
  f.a->post_send(f.b->addr(), 1, bytes(1'000'000), 0, /*wire_bytes=*/4096);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  f.b->cq().read(events, 16);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, 4096u);
  EXPECT_EQ(events[0].data.size(), 1'000'000u);  // content still complete
  // 1us overhead + 4096/10 ~= 410ns + 2us latency: well under 5us.
  EXPECT_LT(events[0].enqueued_at, sim::usec(5));
}

TEST(Sofi, RdmaCompletesOnInitiatorOnly) {
  SofiFixture f;
  f.a->post_rdma(f.b->addr(), 1 << 20, 55);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  ASSERT_EQ(f.a->cq().read(events, 16), 1u);
  EXPECT_EQ(events[0].kind, ofi::CqKind::kRdmaComplete);
  EXPECT_EQ(events[0].context, 55u);
  EXPECT_EQ(events[0].bytes, 1u << 20);
  // Peer is not notified.
  std::vector<ofi::CqEntry> peer_events;
  EXPECT_EQ(f.b->cq().read(peer_events, 16), 0u);
  // Timing: 1us overhead + 2us there + ~105us data + 2us back.
  EXPECT_GE(events[0].enqueued_at, sim::usec(105));
  EXPECT_LT(events[0].enqueued_at, sim::usec(115));
}

TEST(Sofi, AttachmentRidesAlongUncharged) {
  SofiFixture f;
  auto blob = std::make_shared<std::vector<int>>(1000, 42);
  f.a->post_send(f.b->addr(), 1, bytes(16), 0, 0, blob);
  f.eng.run();
  std::vector<ofi::CqEntry> events;
  f.b->cq().read(events, 16);
  ASSERT_EQ(events.size(), 1u);
  const auto* got =
      static_cast<const std::vector<int>*>(events[0].attachment.get());
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->at(500), 42);
  EXPECT_EQ(events[0].bytes, 16u);  // only the eager message was charged
}

TEST(Sofi, CqBoundedReadAndHighWatermark) {
  SofiFixture f;
  for (int i = 0; i < 10; ++i) {
    f.a->post_send(f.b->addr(), 1, bytes(8), static_cast<std::uint64_t>(i));
  }
  f.eng.run();
  EXPECT_EQ(f.b->cq().size(), 10u);
  EXPECT_EQ(f.b->cq().high_watermark(), 10u);
  std::vector<ofi::CqEntry> events;
  EXPECT_EQ(f.b->cq().read(events, 3), 3u);
  EXPECT_EQ(f.b->cq().size(), 7u);
  EXPECT_EQ(f.b->cq().read(events, 100), 7u);
  EXPECT_EQ(f.b->cq().total_pushed(), 10u);
}

TEST(Sofi, CqWaitWakesOnPush) {
  SofiFixture f;
  abt::Runtime rt(f.eng, f.cluster->process(1));
  auto& pool = rt.create_pool("p");
  rt.create_xstream({&pool});
  bool got = false;
  sim::TimeNs woke_at = 0;
  rt.create_ult(pool, [&] {
    got = f.b->cq().wait_nonempty(sim::msec(100));
    woke_at = f.eng.now();
  });
  f.eng.after(sim::usec(50), [&] {
    f.a->post_send(f.b->addr(), 1, bytes(8), 0);
  });
  f.eng.run();
  EXPECT_TRUE(got);
  // Woke at delivery time (~54us), far before the 100ms timeout.
  EXPECT_LT(woke_at, sim::usec(100));
}

TEST(Sofi, CqWaitTimesOutWhenIdle) {
  SofiFixture f;
  abt::Runtime rt(f.eng, f.cluster->process(1));
  auto& pool = rt.create_pool("p");
  rt.create_xstream({&pool});
  bool got = true;
  sim::TimeNs woke_at = 0;
  rt.create_ult(pool, [&] {
    got = f.b->cq().wait_nonempty(sim::usec(500));
    woke_at = f.eng.now();
  });
  f.eng.run();
  EXPECT_FALSE(got);
  EXPECT_GE(woke_at, sim::usec(500));
}

TEST(Sofi, EndpointStatistics) {
  SofiFixture f;
  f.a->post_send(f.b->addr(), 1, bytes(100), 0);
  f.a->post_rdma(f.b->addr(), 5000, 0);
  f.eng.run();
  EXPECT_EQ(f.a->sends_posted(), 1u);
  EXPECT_EQ(f.a->bytes_sent(), 100u);
  EXPECT_EQ(f.a->rdma_ops(), 1u);
  EXPECT_EQ(f.a->bytes_rdma(), 5000u);
  std::vector<ofi::CqEntry> events;
  f.b->cq().read(events, 16);
  EXPECT_EQ(f.b->recvs_delivered(), 1u);
}

TEST(Sofi, ManyEndpointsDenseAddressing) {
  SofiFixture f;
  const auto before = f.fabric->endpoint_count();
  auto& e1 = f.fabric->create_endpoint(f.cluster->spawn_process(0, "x"));
  auto& e2 = f.fabric->create_endpoint(f.cluster->spawn_process(1, "y"));
  EXPECT_EQ(e1.addr(), before);
  EXPECT_EQ(e2.addr(), before + 1);
  EXPECT_EQ(&f.fabric->endpoint(e1.addr()), &e1);
}
