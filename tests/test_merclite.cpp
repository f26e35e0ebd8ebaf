// Unit tests for merclite: proc serialization, the PVAR interface, and the
// RPC class mechanics (eager overflow, posted handles, progress/trigger).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "merclite/core.hpp"
#include "merclite/proc.hpp"
#include "merclite/pvar.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "sofi/fabric.hpp"

namespace sim = sym::sim;
namespace ofi = sym::ofi;
namespace hg = sym::hg;

// ---------------------------------------------------------------------------
// proc serialization
// ---------------------------------------------------------------------------

TEST(Proc, IntegerRoundTrip) {
  hg::BufWriter w;
  hg::put(w, std::uint8_t{7});
  hg::put(w, std::uint16_t{1234});
  hg::put(w, std::uint32_t{7654321});
  hg::put(w, std::uint64_t{0xDEADBEEFCAFEF00DULL});
  hg::put(w, std::int32_t{-42});
  hg::put(w, 3.5);

  hg::BufReader r(w.buffer());
  std::uint8_t a;
  std::uint16_t b;
  std::uint32_t c;
  std::uint64_t d;
  std::int32_t e;
  double f;
  hg::get(r, a);
  hg::get(r, b);
  hg::get(r, c);
  hg::get(r, d);
  hg::get(r, e);
  hg::get(r, f);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 1234u);
  EXPECT_EQ(c, 7654321u);
  EXPECT_EQ(d, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(e, -42);
  EXPECT_EQ(f, 3.5);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Proc, StringRoundTrip) {
  hg::BufWriter w;
  hg::put(w, std::string("hello mochi"));
  hg::put(w, std::string(""));
  hg::BufReader r(w.buffer());
  std::string a, b;
  hg::get(r, a);
  hg::get(r, b);
  EXPECT_EQ(a, "hello mochi");
  EXPECT_EQ(b, "");
}

TEST(Proc, VectorOfPairsRoundTrip) {
  std::vector<std::pair<std::string, std::string>> kvs = {
      {"key1", "value1"}, {"key2", "value2"}, {"", "v"}};
  const auto buf = hg::encode(kvs);
  const auto out =
      hg::decode<std::vector<std::pair<std::string, std::string>>>(buf);
  EXPECT_EQ(out, kvs);
}

TEST(Proc, UnderrunThrows) {
  hg::BufWriter w;
  hg::put(w, std::uint16_t{1});
  hg::BufReader r(w.buffer());
  std::uint64_t big;
  EXPECT_THROW(hg::get(r, big), std::out_of_range);
}

TEST(Proc, OversizedLengthPrefixThrowsBeforeAllocating) {
  // A 1 MiB length prefix followed by only 8 bytes: the decoder must reject
  // the claim before reserving or resizing for it.
  constexpr std::uint32_t kClaimed = 1u << 20;
  hg::BufWriter w;
  hg::put(w, kClaimed);
  hg::put(w, std::uint64_t{0});
  {
    hg::BufReader r(w.buffer());
    std::string s;
    EXPECT_THROW(hg::get(r, s), std::out_of_range);
    EXPECT_LT(s.capacity(), kClaimed);
  }
  {
    hg::BufReader r(w.buffer());
    std::vector<std::uint8_t> v;
    EXPECT_THROW(hg::get(r, v), std::out_of_range);
    EXPECT_LT(v.capacity(), kClaimed);
  }
}

TEST(Proc, NestedVectors) {
  std::vector<std::vector<std::uint32_t>> vv = {{1, 2, 3}, {}, {42}};
  EXPECT_EQ(hg::decode<decltype(vv)>(hg::encode(vv)), vv);
}

TEST(Proc, WriteZerosCountsTowardSize) {
  hg::BufWriter w;
  w.write_zeros(1000);
  EXPECT_EQ(w.size(), 1000u);
}

TEST(Proc, RpcHeaderRoundTrip) {
  hg::RpcHeader h;
  h.rpc_id = 0x1122334455667788ULL;
  h.provider_id = 3;
  h.op_seq = 99;
  h.breadcrumb = 0xAAAABBBBCCCCDDDDULL;
  h.request_id = 12345;
  h.trace_order = 7;
  h.lamport = 1000;
  h.flags = hg::kFlagTracing;
  h.body_size = 4096;
  hg::BufWriter w;
  hg::put(w, h);
  EXPECT_EQ(w.size(), hg::kRpcHeaderWireSize);
  hg::BufReader r(w.buffer());
  hg::RpcHeader out;
  hg::get(r, out);
  EXPECT_EQ(out.rpc_id, h.rpc_id);
  EXPECT_EQ(out.breadcrumb, h.breadcrumb);
  EXPECT_EQ(out.request_id, h.request_id);
  EXPECT_EQ(out.lamport, h.lamport);
  EXPECT_EQ(out.body_size, h.body_size);
}

// ---------------------------------------------------------------------------
// Fixture for class-level tests
// ---------------------------------------------------------------------------

namespace {

struct HgFixture {
  sim::Engine eng{7};
  sim::Cluster cluster{eng,
                       sim::ClusterParams{.node_count = 2,
                                          .max_clock_skew = 0}};
  ofi::Fabric fabric{cluster};
  sim::Process& sp{cluster.spawn_process(0, "server")};
  sim::Process& cp{cluster.spawn_process(1, "client")};
  hg::Class server{fabric, sp};
  hg::Class client{fabric, cp};
};

}  // namespace

// ---------------------------------------------------------------------------
// PVAR interface
// ---------------------------------------------------------------------------

TEST(Pvar, TableTwoVariablesExported) {
  HgFixture f;
  auto s = f.server.pvar_session_init();
  EXPECT_GE(s.count(), 10);
  for (const char* name :
       {"num_posted_handles", "completion_queue_size", "num_ofi_events_read",
        "num_rpcs_invoked", "internal_rdma_transfer_time",
        "input_serialization_time", "input_deserialization_time",
        "output_serialization_time", "origin_completion_callback_time"}) {
    EXPECT_GE(f.server.pvars().find(name), 0) << name;
  }
}

TEST(Pvar, ClassAndBindMetadata) {
  HgFixture f;
  auto s = f.client.pvar_session_init();
  const int i = f.client.pvars().find("num_rpcs_invoked");
  ASSERT_GE(i, 0);
  EXPECT_EQ(s.info(i).cls, hg::PvarClass::kCounter);
  EXPECT_EQ(s.info(i).bind, hg::PvarBind::kNoObject);
  const int t = f.client.pvars().find("input_serialization_time");
  ASSERT_GE(t, 0);
  EXPECT_EQ(s.info(t).cls, hg::PvarClass::kTimer);
  EXPECT_EQ(s.info(t).bind, hg::PvarBind::kHandle);
  EXPECT_STREQ(hg::to_string(s.info(t).cls), "TIMER");
  EXPECT_STREQ(hg::to_string(s.info(t).bind), "HANDLE");
}

TEST(Pvar, SessionLifecycle) {
  HgFixture f;
  auto s = f.client.pvar_session_init();
  auto h = s.alloc("num_rpcs_invoked");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(s.read(h), 0.0);
  EXPECT_EQ(s.allocated_handles(), 1u);
  s.finalize();
  EXPECT_FALSE(s.active());
  EXPECT_THROW((void)s.read(h), std::logic_error);
}

TEST(Pvar, UnknownNameGivesInvalidHandle) {
  HgFixture f;
  auto s = f.client.pvar_session_init();
  EXPECT_FALSE(s.alloc("no_such_pvar").valid());
}

TEST(Pvar, HandleBoundRequiresObject) {
  HgFixture f;
  auto s = f.client.pvar_session_init();
  auto h = s.alloc("input_serialization_time");
  EXPECT_THROW((void)s.read(h, nullptr), std::invalid_argument);
}

TEST(Pvar, DistinctSessionIds) {
  HgFixture f;
  auto a = f.client.pvar_session_init();
  auto b = f.client.pvar_session_init();
  EXPECT_NE(a.id(), b.id());
}

// ---------------------------------------------------------------------------
// RPC class mechanics (driven without margolite)
// ---------------------------------------------------------------------------

TEST(HgClass, RegisterGivesStableHashId) {
  HgFixture f;
  const auto id1 = f.server.register_rpc("my_rpc", [](hg::HandlePtr) {});
  const auto id2 = f.client.register_rpc("my_rpc", nullptr);
  EXPECT_EQ(id1, id2);
  ASSERT_NE(f.server.rpc_name(id1), nullptr);
  EXPECT_EQ(*f.server.rpc_name(id1), "my_rpc");
  EXPECT_EQ(f.server.rpc_name(12345), nullptr);
}

TEST(HgClass, EndToEndRequestResponse) {
  HgFixture f;
  std::string received;
  hg::HandlePtr target_handle;
  f.server.register_rpc("echo", [&](hg::HandlePtr h) {
    received = hg::decode<std::string>(h->body);
    target_handle = h;
  });
  const auto rpc = f.client.register_rpc("echo", nullptr);

  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  bool completed = false;
  std::string reply;
  f.client.forward(h, hg::encode(std::string("ping")),
                   [&](const hg::HandlePtr& done) {
                     reply = hg::decode<std::string>(done->response_body);
                     completed = true;
                   });
  EXPECT_EQ(f.client.num_posted_handles(), 1u);
  EXPECT_EQ(f.client.num_rpcs_invoked(), 1u);

  f.eng.run();  // deliver request to the server's OFI CQ
  EXPECT_EQ(f.server.progress(), 1u);
  EXPECT_EQ(received, "ping");
  ASSERT_NE(target_handle, nullptr);
  EXPECT_TRUE(target_handle->target_side());

  f.server.respond(target_handle, hg::encode(std::string("pong")),
                   nullptr);
  f.eng.run();  // deliver response
  EXPECT_GE(f.client.progress(), 1u);
  EXPECT_EQ(f.client.num_posted_handles(), 0u);
  EXPECT_FALSE(completed);  // callback waits for trigger()
  EXPECT_EQ(f.client.completion_queue_size(), 1u);
  EXPECT_EQ(f.client.trigger(), 1u);
  EXPECT_TRUE(completed);
  EXPECT_EQ(reply, "pong");
}

TEST(HgClass, InputSerializationTimerRecorded) {
  HgFixture f;
  const auto rpc = f.client.register_rpc("r", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(1000), nullptr);
  EXPECT_GT(h->timer(hg::kHtInputSer), 0.0);
  // cost model: base + 0.15/byte => >= 300ns and >= 150ns contribution.
  EXPECT_GE(h->timer(hg::kHtInputSer), 400.0);
}

TEST(HgClass, EagerOverflowTakesInternalRdmaPath) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("big", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("big", nullptr);

  const std::size_t big_size = 64 * 1024;  // above the 4 KiB eager limit
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(big_size), nullptr);
  EXPECT_EQ(f.client.eager_overflows(), 1u);

  f.eng.run();
  f.server.progress();          // receives eager part, posts internal RDMA
  EXPECT_EQ(arrived, nullptr);  // not dispatched until RDMA completes
  f.eng.run();
  f.server.progress();  // RDMA completion
  ASSERT_NE(arrived, nullptr);
  EXPECT_GT(arrived->timer(hg::kHtInternalRdma), 0.0);
  EXPECT_EQ(arrived->body.size(), big_size);
}

TEST(HgClass, SmallRequestHasNoInternalRdma) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("small", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("small", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(100), nullptr);
  f.eng.run();
  f.server.progress();
  ASSERT_NE(arrived, nullptr);
  EXPECT_EQ(arrived->timer(hg::kHtInternalRdma), 0.0);
  EXPECT_EQ(f.client.eager_overflows(), 0u);
}

TEST(HgClass, MaxEventsBoundsProgressReads) {
  HgFixture f;
  int arrivals = 0;
  f.server.register_rpc("burst", [&](hg::HandlePtr) { ++arrivals; });
  const auto rpc = f.client.register_rpc("burst", nullptr);
  for (int i = 0; i < 40; ++i) {
    auto h = f.client.create_handle(f.server.addr(), rpc, 0);
    f.client.forward(h, std::vector<std::byte>(16), nullptr);
  }
  f.eng.run();
  // Default max_events = 16: the first progress call reads exactly 16.
  EXPECT_EQ(f.server.progress(), 16u);
  EXPECT_EQ(f.server.num_ofi_events_read(), 16u);
  EXPECT_EQ(f.server.progress(), 16u);
  EXPECT_EQ(f.server.progress(), 8u);
  EXPECT_EQ(f.server.progress(), 0u);
  EXPECT_EQ(arrivals, 40);

  f.server.set_max_events(64);
  for (int i = 0; i < 40; ++i) {
    auto h = f.client.create_handle(f.server.addr(), rpc, 0);
    f.client.forward(h, std::vector<std::byte>(16), nullptr);
  }
  f.eng.run();
  EXPECT_EQ(f.server.progress(), 40u);
}

TEST(HgClass, BulkTransferCompletesViaTrigger) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("bulkrpc", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("bulkrpc", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(32), nullptr);
  f.eng.run();
  f.server.progress();
  ASSERT_NE(arrived, nullptr);

  bool done = false;
  f.server.bulk_transfer(arrived, 1 << 20,
                         [&](const hg::HandlePtr&) { done = true; });
  f.eng.run();
  f.server.progress();
  EXPECT_FALSE(done);
  f.server.trigger();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.server.bulk_bytes_total(), 1u << 20);
}

TEST(HgClass, RespondSentCallbackFiresAfterSend) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("cb", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("cb", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(8), nullptr);
  f.eng.run();
  f.server.progress();
  ASSERT_NE(arrived, nullptr);

  bool sent = false;
  f.server.respond(arrived, std::vector<std::byte>(8),
                   [&](const hg::HandlePtr&) { sent = true; });
  f.eng.run();
  f.server.progress();
  f.server.trigger();
  EXPECT_TRUE(sent);
}

TEST(HgClass, OfiCqHighWatermarkPvar) {
  HgFixture f;
  f.server.register_rpc("hw", [](hg::HandlePtr) {});
  const auto rpc = f.client.register_rpc("hw", nullptr);
  for (int i = 0; i < 10; ++i) {
    auto h = f.client.create_handle(f.server.addr(), rpc, 0);
    f.client.forward(h, std::vector<std::byte>(16), nullptr);
  }
  f.eng.run();
  auto s = f.server.pvar_session_init();
  auto hwm = s.alloc("ofi_cq_high_watermark");
  EXPECT_GE(s.read(hwm), 10.0);
}

TEST(HgClass, CancelDropsLateResponse) {
  HgFixture f;
  hg::HandlePtr target_handle;
  f.server.register_rpc("c1", [&](hg::HandlePtr h) { target_handle = h; });
  const auto rpc = f.client.register_rpc("c1", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  bool completed = false;
  f.client.forward(h, std::vector<std::byte>(8),
                   [&](const hg::HandlePtr&) { completed = true; });
  EXPECT_EQ(f.client.num_posted_handles(), 1u);

  EXPECT_TRUE(f.client.cancel(h));
  EXPECT_EQ(f.client.num_posted_handles(), 0u);
  EXPECT_EQ(f.client.cancellations(), 1u);
  EXPECT_FALSE(f.client.cancel(h));  // second cancel is a no-op

  // The server still answers; the late response must be discarded.
  f.eng.run();
  f.server.progress();
  ASSERT_NE(target_handle, nullptr);
  f.server.respond(target_handle, std::vector<std::byte>(8), nullptr);
  f.eng.run();
  f.client.progress();
  f.client.trigger();
  EXPECT_FALSE(completed);
}

// The op table reuses a cancelled op's slot under a new generation, so the
// cancelled op's late response must not complete the op now in that slot.
TEST(HgClass, LateResponseAfterSlotReuseIsDropped) {
  HgFixture f;
  std::vector<hg::HandlePtr> arrived;
  f.server.register_rpc("reuse",
                        [&](hg::HandlePtr h) { arrived.push_back(h); });
  const auto rpc = f.client.register_rpc("reuse", nullptr);

  auto first = f.client.create_handle(f.server.addr(), rpc, 0);
  bool first_completed = false;
  f.client.forward(first, hg::encode(std::string("first")),
                   [&](const hg::HandlePtr&) { first_completed = true; });
  EXPECT_TRUE(f.client.cancel(first));

  auto second = f.client.create_handle(f.server.addr(), rpc, 0);
  std::string second_reply;
  f.client.forward(second, hg::encode(std::string("second")),
                   [&](const hg::HandlePtr& done) {
                     second_reply =
                         hg::decode<std::string>(done->response_body);
                   });
  // Same slot, different generation.
  EXPECT_EQ(static_cast<std::uint32_t>(second->header.op_seq),
            static_cast<std::uint32_t>(first->header.op_seq));
  EXPECT_NE(second->header.op_seq, first->header.op_seq);
  EXPECT_EQ(f.client.num_posted_handles(), 1u);

  f.eng.run();
  f.server.progress();
  ASSERT_EQ(arrived.size(), 2u);
  ASSERT_EQ(hg::decode<std::string>(arrived[0]->body), "first");

  // Only the cancelled op's response comes back: nothing completes.
  f.server.respond(arrived[0], hg::encode(std::string("late")), nullptr);
  f.eng.run();
  f.client.progress();
  EXPECT_EQ(f.client.completion_queue_size(), 0u);
  EXPECT_EQ(f.client.trigger(), 0u);
  EXPECT_FALSE(first_completed);
  EXPECT_TRUE(second_reply.empty());
  EXPECT_EQ(f.client.num_posted_handles(), 1u);
  EXPECT_TRUE(second->response_body.empty());

  // The live op still completes with its own response.
  f.server.respond(arrived[1], hg::encode(std::string("pong")), nullptr);
  f.eng.run();
  f.client.progress();
  EXPECT_EQ(f.client.num_posted_handles(), 0u);
  EXPECT_EQ(f.client.trigger(), 1u);
  EXPECT_EQ(second_reply, "pong");
  EXPECT_FALSE(first_completed);
}

// A forward without a completion callback still receives its response;
// there is just nothing to run for it.
TEST(HgClass, EmptyCompletionCallbackIsSkipped) {
  HgFixture f;
  hg::HandlePtr target_handle;
  f.server.register_rpc("fire", [&](hg::HandlePtr h) { target_handle = h; });
  const auto rpc = f.client.register_rpc("fire", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, hg::encode(std::string("ping")), nullptr);
  EXPECT_EQ(f.client.num_posted_handles(), 1u);

  f.eng.run();
  f.server.progress();
  ASSERT_NE(target_handle, nullptr);
  f.server.respond(target_handle, hg::encode(std::string("pong")), nullptr);
  f.eng.run();
  f.client.progress();
  EXPECT_EQ(f.client.num_posted_handles(), 0u);
  EXPECT_NO_THROW(f.client.trigger());
  EXPECT_EQ(hg::decode<std::string>(h->response_body), "pong");
  EXPECT_EQ(f.client.completion_queue_size(), 0u);
}

TEST(HgClass, BodyExactlyAtEagerLimitStaysEager) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("edge", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("edge", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(4096), nullptr);  // == limit
  EXPECT_EQ(f.client.eager_overflows(), 0u);
  f.eng.run();
  f.server.progress();
  ASSERT_NE(arrived, nullptr);
  EXPECT_EQ(arrived->body.size(), 4096u);
  EXPECT_EQ(arrived->timer(hg::kHtInternalRdma), 0.0);

  // One byte more takes the overflow path.
  auto h2 = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h2, std::vector<std::byte>(4097), nullptr);
  EXPECT_EQ(f.client.eager_overflows(), 1u);
}

TEST(HgClass, UnknownRpcIsDropped) {
  HgFixture f;
  const auto rpc = f.client.register_rpc("never_registered_on_server", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, std::vector<std::byte>(8), nullptr);
  f.eng.run();
  EXPECT_EQ(f.server.progress(), 1u);  // event read...
  EXPECT_EQ(f.server.num_rpcs_handled(), 1u);
  EXPECT_EQ(f.server.completion_queue_size(), 0u);  // ...but nothing queued
}

// ---------------------------------------------------------------------------
// Message buffers: trailer framing and ownership transfer
// ---------------------------------------------------------------------------

namespace {

/// A payload written the way services write them: through a BufWriter,
/// which leaves tailroom for the header trailer.
std::vector<std::byte> written(std::size_t n, std::byte fill) {
  hg::BufWriter w;
  const std::vector<std::byte> content(n, fill);
  w.write_raw(content.data(), content.size());
  return w.take();
}

}  // namespace

TEST(HgMessage, ReceiversAdoptTheBuffersSendersPosted) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("adopt", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("adopt", nullptr);

  auto input = written(300, std::byte{0x11});
  const std::byte* request_buf = input.data();
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  hg::HandlePtr done;
  f.client.forward(h, std::move(input),
                   [&](const hg::HandlePtr& d) { done = d; });
  f.eng.run();
  f.server.progress();
  ASSERT_NE(arrived, nullptr);
  EXPECT_EQ(arrived->body.data(), request_buf);  // no copy on the way in
  ASSERT_EQ(arrived->body.size(), 300u);         // trailer truncated off
  EXPECT_EQ(arrived->body[299], std::byte{0x11});

  auto output = written(700, std::byte{0x22});
  const std::byte* response_buf = output.data();
  f.server.respond(arrived, std::move(output), nullptr);
  f.eng.run();
  f.client.progress();
  f.client.trigger();
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->response_body.data(), response_buf);  // nor on the way out
  ASSERT_EQ(done->response_body.size(), 700u);
  EXPECT_EQ(done->response_body[0], std::byte{0x22});
  EXPECT_EQ(f.client.frames_in_place() + f.server.frames_in_place(), 2u);
}

TEST(HgMessage, FramingKeepsWireSizes) {
  HgFixture f;
  hg::HandlePtr arrived;
  f.server.register_rpc("size", [&](hg::HandlePtr h) { arrived = h; });
  const auto rpc = f.client.register_rpc("size", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  // An exact-size payload has no tailroom: it grows once to take the
  // header, and the wire still carries body + header bytes.
  f.client.forward(h, std::vector<std::byte>(100), nullptr);
  EXPECT_EQ(f.client.frames_grown(), 1u);
  EXPECT_EQ(f.client.endpoint().bytes_sent(), 100u + hg::kRpcHeaderWireSize);
  f.eng.run();
  f.server.progress();
  ASSERT_NE(arrived, nullptr);
  EXPECT_EQ(arrived->body.size(), 100u);
  f.server.respond(arrived, written(9, std::byte{1}), nullptr);
  EXPECT_EQ(f.server.endpoint().bytes_sent(), 9u + hg::kRpcHeaderWireSize);
}

TEST(HgMessage, BusyRejectHandsTheInputBackUncharged) {
  HgFixture f;
  f.server.register_rpc("busy", [&](hg::HandlePtr h) {
    h->header.flags |= hg::kFlagBusy;
    f.server.respond(h, {}, nullptr);
  });
  const auto rpc = f.client.register_rpc("busy", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  f.client.forward(h, written(40, std::byte{0x7E}), nullptr);
  EXPECT_TRUE(h->body.empty());  // the input went on the wire
  f.eng.run();
  f.server.progress();
  // The reject is charged as the empty response it is.
  EXPECT_EQ(f.server.endpoint().bytes_sent(), hg::kRpcHeaderWireSize);
  f.eng.run();
  f.client.progress();
  EXPECT_NE(h->header.flags & hg::kFlagBusy, 0);
  EXPECT_TRUE(h->response_body.empty());
  ASSERT_EQ(h->body.size(), 40u);  // back on the handle for the retry
  EXPECT_EQ(h->body[39], std::byte{0x7E});
}

TEST(HgMessage, BusyRejectHandsTheAttachmentBack) {
  HgFixture f;
  long target_refs = 0;
  f.server.register_rpc("busy", [&](hg::HandlePtr h) {
    target_refs = h->attachment.use_count();
    h->header.flags |= hg::kFlagBusy;
    f.server.respond(h, {}, nullptr);
    EXPECT_EQ(h->attachment, nullptr);  // on its way back with the reject
  });
  const auto rpc = f.client.register_rpc("busy", nullptr);
  auto h = f.client.create_handle(f.server.addr(), rpc, 0);
  auto blob = std::make_shared<std::vector<int>>(100, 7);
  const std::vector<int>* raw = blob.get();
  h->attach(std::move(blob), 400);
  f.client.forward(h, written(8, std::byte{0x01}), nullptr);
  EXPECT_EQ(h->attachment, nullptr);  // in flight: the origin holds none
  EXPECT_EQ(h->attachment_bytes, 400u);
  f.eng.run();
  f.server.progress();
  EXPECT_EQ(target_refs, 1);  // the target held the only reference
  // The attachment rides uncharged: the reject is an empty response.
  EXPECT_EQ(f.server.endpoint().bytes_sent(), hg::kRpcHeaderWireSize);
  f.eng.run();
  f.client.progress();
  ASSERT_NE(h->header.flags & hg::kFlagBusy, 0);
  // The same buffer is back on the handle for the retry, solely owned.
  const auto* back = h->attached<std::vector<int>>();
  ASSERT_EQ(back, raw);
  EXPECT_EQ(h->attachment.use_count(), 1);
  EXPECT_EQ(back->at(99), 7);
}

TEST(HgMessage, TruncatedMessagesAreDroppedAndCounted) {
  HgFixture f;
  bool dispatched = false;
  f.server.register_rpc("short", [&](hg::HandlePtr) { dispatched = true; });
  // Shorter than a header: nothing to read a trailer from.
  f.client.endpoint().post_send(f.server.addr(), hg::kTagRequest,
                                std::vector<std::byte>(10), 0);
  f.server.endpoint().post_send(f.client.addr(), hg::kTagResponse,
                                std::vector<std::byte>(3), 0);
  f.eng.run();
  EXPECT_EQ(f.server.progress(), 2u);  // the arrival + its own send event
  EXPECT_EQ(f.client.progress(), 2u);
  EXPECT_FALSE(dispatched);
  EXPECT_EQ(f.server.malformed_drops(), 1u);
  EXPECT_EQ(f.client.malformed_drops(), 1u);
  EXPECT_EQ(f.server.num_rpcs_handled(), 0u);
}
