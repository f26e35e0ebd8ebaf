// Tests for the closed-loop adaptive controller: elastic handler pools
// (grow under backlog, shrink when idle), admission control with the
// kFlagBusy early-reject + retry/backoff protocol, the writable PVAR
// tuning channel, and the action spans that make every adaptation
// observable in the stitched trace.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "margolite/policy.hpp"
#include "services/sdskv/sdskv.hpp"
#include "simkit/cluster.hpp"
#include "sofi/fabric.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/breadcrumb.hpp"

namespace sim = sym::sim;
namespace ofi = sym::ofi;
namespace abt = sym::abt;
namespace hg = sym::hg;
namespace margo = sym::margo;
namespace prof = sym::prof;
namespace sdskv = sym::sdskv;

namespace {

struct World {
  explicit World(margo::InstanceConfig server_cfg = {}, std::uint64_t seed = 7)
      : eng(seed),
        cluster(eng, sim::ClusterParams{.node_count = 2}),
        fabric(cluster) {
    server_cfg.server = true;
    auto& sproc = cluster.spawn_process(0, "server");
    server = std::make_unique<margo::Instance>(fabric, sproc, server_cfg);
    auto& cproc = cluster.spawn_process(1, "client");
    client = std::make_unique<margo::Instance>(fabric, cproc,
                                               margo::InstanceConfig{});
  }

  sim::Engine eng;
  sim::Cluster cluster;
  ofi::Fabric fabric;
  std::unique_ptr<margo::Instance> server;
  std::unique_ptr<margo::Instance> client;
};

margo::InstanceConfig server_with_es(unsigned handler_es) {
  margo::InstanceConfig cfg;
  cfg.handler_es = handler_es;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Elastic handler pool
// ---------------------------------------------------------------------------

TEST(AdaptivePool, GrowsUnderBacklog) {
  World w(server_with_es(2));
  int handled = 0;
  w.server->register_rpc("slow_rpc", 1, [&](margo::Request& req) {
    abt::compute(sim::usec(400));
    ++handled;
    req.respond({});
  });
  const auto rpc = w.client->register_client_rpc("slow_rpc");

  margo::PolicyEngine engine(*w.server, sim::usec(200));
  engine.add_rule("autoscale", margo::PolicyEngine::handler_autoscale(
                                   /*backlog_per_es=*/2.0, /*consecutive=*/2,
                                   /*max_es=*/8));
  w.server->start();
  engine.start();
  w.client->start();
  w.client->spawn([&] {
    std::vector<margo::PendingOpPtr> ops;
    for (int i = 0; i < 64; ++i) {
      ops.push_back(w.client->forward_async(w.server->addr(), 1, rpc, {}));
    }
    for (auto& op : ops) op->wait();
    w.client->finalize();
    w.server->finalize();
  });
  w.eng.run();

  EXPECT_EQ(handled, 64);
  EXPECT_GT(w.server->handler_es_count(), 2u);
  ASSERT_FALSE(engine.actions().empty());
  EXPECT_EQ(engine.actions()[0].rule, "autoscale");
  EXPECT_NE(engine.actions()[0].description.find("scaling"),
            std::string::npos);
}

TEST(AdaptivePool, ShrinksWhenIdle) {
  World w(server_with_es(4));
  margo::PolicyEngine engine(*w.server, sim::usec(100));
  engine.add_rule("downscale", margo::PolicyEngine::handler_downscale(
                                   /*consecutive=*/3, /*min_es=*/1));
  w.server->start();
  engine.start();
  w.client->start();
  w.eng.after(sim::msec(3), [&] {
    w.server->finalize();
    w.client->finalize();
  });
  w.eng.run();

  // An idle 4-ES pool parks down to the floor, one ES per firing.
  EXPECT_EQ(w.server->handler_es_count(), 1u);
  ASSERT_GE(engine.actions().size(), 3u);
  EXPECT_NE(engine.actions()[0].description.find("parking"),
            std::string::npos);
}

TEST(AdaptivePool, GrowThenShrinkIsElastic) {
  World w(server_with_es(2));
  w.server->register_rpc("slow_rpc", 1, [&](margo::Request& req) {
    abt::compute(sim::usec(400));
    req.respond({});
  });
  const auto rpc = w.client->register_client_rpc("slow_rpc");

  margo::PolicyEngine engine(*w.server, sim::usec(200));
  engine.add_rule("up", margo::PolicyEngine::handler_autoscale(2.0, 2, 8));
  engine.add_rule("down", margo::PolicyEngine::handler_downscale(4, 2));
  w.server->start();
  engine.start();
  w.client->start();
  unsigned peak_es = 0;
  w.client->spawn([&] {
    std::vector<margo::PendingOpPtr> ops;
    for (int i = 0; i < 64; ++i) {
      ops.push_back(w.client->forward_async(w.server->addr(), 1, rpc, {}));
    }
    for (auto& op : ops) op->wait();
    peak_es = w.server->handler_es_count();
    abt::sleep_for(sim::msec(6));  // idle: the pool must drain back down
    w.client->finalize();
    w.server->finalize();
  });
  w.eng.run();

  EXPECT_GT(peak_es, 2u);
  EXPECT_EQ(w.server->handler_es_count(), 2u);  // back at the floor
  bool grew = false, shrank = false;
  for (const auto& a : engine.actions()) {
    if (a.rule == "up") grew = true;
    if (a.rule == "down") shrank = true;
  }
  EXPECT_TRUE(grew);
  EXPECT_TRUE(shrank);
}

// ---------------------------------------------------------------------------
// Admission control / backpressure
// ---------------------------------------------------------------------------

TEST(Admission, RejectsBeyondWatermarkWithBusyFlag) {
  World w(server_with_es(1));
  int handled = 0;
  w.server->register_rpc("slow_rpc", 1, [&](margo::Request& req) {
    abt::compute(sim::usec(300));
    ++handled;
    req.respond({});
  });
  const auto rpc = w.client->register_client_rpc("slow_rpc");
  w.server->set_admission_limit(2);

  w.server->start();
  w.client->start();
  int busy = 0, ok = 0;
  w.client->spawn([&] {
    std::vector<margo::PendingOpPtr> ops;
    for (int i = 0; i < 32; ++i) {
      ops.push_back(w.client->forward_async(w.server->addr(), 1, rpc, {}));
    }
    for (auto& op : ops) {
      op->wait();
      (op->busy() ? busy : ok)++;
    }
    w.client->finalize();
    w.server->finalize();
  });
  w.eng.run();

  EXPECT_GT(busy, 0);                      // backpressure engaged
  EXPECT_GT(ok, 0);                        // but some work got through
  EXPECT_EQ(ok, handled);
  EXPECT_EQ(w.server->admission_rejects(), static_cast<std::uint64_t>(busy));
}

TEST(Admission, ForwardRetryBacksOffUntilAccepted) {
  World w(server_with_es(1));
  int handled = 0;
  w.server->register_rpc("slow_rpc", 1, [&](margo::Request& req) {
    abt::compute(sim::usec(200));
    ++handled;
    // Echo the input back: a retried request must carry the original one.
    req.respond_value<int>(req.body().size() == sizeof(int)
                               ? hg::decode<int>(req.body()) + 42
                               : -1);
  });
  const auto rpc = w.client->register_client_rpc("slow_rpc");
  w.server->set_admission_limit(2);

  w.server->start();
  w.client->start();
  int done = 0;
  unsigned max_attempts_seen = 0;
  constexpr int kClients = 16;
  for (int i = 0; i < kClients; ++i) {
    w.client->spawn([&, i] {
      auto r = w.client->forward_retry(w.server->addr(), 1, rpc,
                                       hg::encode(i),
                                       /*max_attempts=*/20,
                                       /*initial_backoff=*/sim::usec(100));
      EXPECT_FALSE(r.busy);  // every caller eventually gets through
      EXPECT_EQ(hg::decode<int>(r.response), i + 42);
      max_attempts_seen = std::max(max_attempts_seen, r.attempts);
      if (++done == kClients) {
        w.client->finalize();
        w.server->finalize();
      }
    });
  }
  w.eng.run();

  EXPECT_EQ(done, kClients);
  EXPECT_EQ(handled, kClients);
  EXPECT_GT(max_attempts_seen, 1u);  // someone actually had to back off
  EXPECT_GT(w.server->admission_rejects(), 0u);
}

TEST(Admission, RetriedPutPackedStoresEveryPairOnce) {
  // A busy reject hands the batch back with the input, so the retry ships
  // the same pairs; the accepted attempt's handler moves them into the
  // database.
  World w(server_with_es(1));
  sdskv::Provider kv(*w.server, 1, sdskv::ProviderConfig{});
  sdskv::Client cl(*w.client);
  w.server->set_admission_limit(2);
  constexpr int kClients = 12;
  constexpr int kPairs = 5;
  auto key_of = [](int c, int i) {
    return "c" + std::to_string(c) + "/k" + std::to_string(i);
  };
  auto value_of = [](int c, int i) {
    return std::string(200 + 10 * i, static_cast<char>('a' + c));
  };

  w.server->start();
  w.client->start();
  int done = 0;
  for (int c = 0; c < kClients; ++c) {
    w.client->spawn([&, c] {
      std::vector<sdskv::KeyValue> kvs;
      for (int i = 0; i < kPairs; ++i) {
        kvs.emplace_back(key_of(c, i), value_of(c, i));
      }
      EXPECT_EQ(cl.put_packed(w.server->addr(), 1, 0, std::move(kvs)),
                sdskv::Status::kOk);
      if (++done < kClients) return;
      // Every batch landed: read each pair back through the RPC stack.
      for (int cc = 0; cc < kClients; ++cc) {
        for (int i = 0; i < kPairs; ++i) {
          std::string v;
          EXPECT_EQ(cl.get(w.server->addr(), 1, 0, key_of(cc, i), &v),
                    sdskv::Status::kOk);
          EXPECT_EQ(v, value_of(cc, i));
        }
      }
      w.client->finalize();
      w.server->finalize();
    });
  }
  w.eng.run();

  ASSERT_EQ(done, kClients);
  EXPECT_GT(w.server->admission_rejects(), 0u);  // some batches retried
  // Each batch ran its handler once, and the store holds each pair once.
  EXPECT_EQ(w.server->requests_handled(),
            static_cast<std::uint64_t>(kClients + kClients * kPairs));
  EXPECT_EQ(kv.db(0).size(), static_cast<std::size_t>(kClients * kPairs));
  std::uint64_t bytes = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPairs; ++i) {
      bytes += key_of(c, i).size() + value_of(c, i).size();
    }
  }
  EXPECT_EQ(kv.db(0).stored_bytes(), bytes);
}

TEST(Admission, WatermarkRuleEngagesAndLifts) {
  World w(server_with_es(1));
  w.server->register_rpc("slow_rpc", 1, [&](margo::Request& req) {
    abt::compute(sim::usec(300));
    req.respond({});
  });
  const auto rpc = w.client->register_client_rpc("slow_rpc");

  margo::PolicyEngine engine(*w.server, sim::usec(100));
  engine.add_rule("admission",
                  margo::PolicyEngine::admission_watermark(/*high=*/8,
                                                           /*low=*/1));
  w.server->start();
  engine.start();
  w.client->start();
  int done = 0;
  constexpr int kClients = 48;
  for (int i = 0; i < kClients; ++i) {
    w.client->spawn([&] {
      auto r = w.client->forward_retry(w.server->addr(), 1, rpc, {},
                                       /*max_attempts=*/30,
                                       /*initial_backoff=*/sim::usec(100));
      EXPECT_FALSE(r.busy);
      if (++done == kClients) {
        w.client->spawn([&] {
          abt::sleep_for(sim::msec(2));  // idle so the rule can disengage
          w.client->finalize();
          w.server->finalize();
        });
      }
    });
  }
  w.eng.run();

  EXPECT_EQ(done, kClients);
  EXPECT_EQ(w.server->admission_limit(), 0u);  // lifted after the drain
  bool engaged = false, lifted = false;
  for (const auto& a : engine.actions()) {
    if (a.description.find("engaging") != std::string::npos) engaged = true;
    if (a.description.find("lifting") != std::string::npos) lifted = true;
  }
  EXPECT_TRUE(engaged);
  EXPECT_TRUE(lifted);
  EXPECT_GT(w.server->admission_rejects(), 0u);
}

// ---------------------------------------------------------------------------
// Writable PVARs (the §VII tuning channel)
// ---------------------------------------------------------------------------

TEST(WritablePvar, EagerThresholdTunableThroughSession) {
  World w;
  auto session = w.client->hg_class().pvar_session_init();
  const auto pv = session.alloc("eager_buffer_size");
  ASSERT_GT(session.read(pv), 0.0);
  session.write(pv, 4096.0);
  EXPECT_EQ(session.read(pv), 4096.0);
  EXPECT_EQ(w.client->hg_class().config().eager_limit, 4096u);
}

TEST(WritablePvar, ReadOnlyPvarRejectsWrites) {
  World w;
  auto session = w.client->hg_class().pvar_session_init();
  const auto pv = session.alloc("num_rpcs_invoked");
  EXPECT_THROW(session.write(pv, 1.0), std::logic_error);
}

TEST(WritablePvar, AutotuneRuleRaisesEagerThreshold) {
  margo::InstanceConfig server_cfg;
  World w(server_cfg);
  // Tiny origin-side eager buffer: every 512 B request overflows to RDMA.
  w.client->hg_class().set_eager_limit(64);
  w.server->register_rpc("put_rpc", 1,
                         [](margo::Request& req) { req.respond({}); });
  const auto rpc = w.client->register_client_rpc("put_rpc");

  margo::PolicyEngine engine(*w.client, sim::usec(100));
  engine.add_rule("eager_autotune", margo::PolicyEngine::eager_threshold_autotune(
                                        /*overflow_frac=*/0.25, /*cap=*/4096));
  w.server->start();
  w.client->start();
  engine.start();
  w.client->spawn([&] {
    for (int round = 0; round < 30; ++round) {
      std::vector<margo::PendingOpPtr> ops;
      for (int i = 0; i < 8; ++i) {
        ops.push_back(w.client->forward_async(
            w.server->addr(), 1, rpc, std::vector<std::byte>(512)));
      }
      for (auto& op : ops) op->wait();
    }
    w.client->finalize();
    w.server->finalize();
  });
  w.eng.run();

  EXPECT_GT(w.client->hg_class().config().eager_limit, 64u);
  ASSERT_FALSE(engine.actions().empty());
  EXPECT_NE(engine.actions()[0].description.find("eager_buffer_size"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Action spans in the trace
// ---------------------------------------------------------------------------

TEST(ActionSpans, AdaptationVisibleInTraceSummary) {
  World w(server_with_es(2));
  margo::PolicyEngine engine(*w.server, sim::usec(100));
  engine.add_rule("rss", margo::PolicyEngine::rss_watermark(16ULL << 20));
  w.server->start();
  engine.start();
  w.client->start();
  w.eng.after(sim::usec(250), [&] { w.server->process().add_rss(32 << 20); });
  w.eng.after(sim::msec(2), [&] {
    w.server->finalize();
    w.client->finalize();
  });
  w.eng.run();
  ASSERT_EQ(engine.actions().size(), 1u);

  const auto summary =
      prof::TraceSummary::build({&w.server->trace(), &w.client->trace()});
  const auto bc = static_cast<prof::Breadcrumb>(prof::hash16("policy:rss"));
  const prof::Span* action_span = nullptr;
  for (const auto& rt : summary.requests) {
    for (const auto& sp : rt.spans) {
      if (sp.breadcrumb == bc) action_span = &sp;
    }
  }
  ASSERT_NE(action_span, nullptr);
  // Self-targeted: the adapting process is both origin and target, and all
  // four timestamps stitched.
  EXPECT_EQ(action_span->origin_ep, action_span->target_ep);
  EXPECT_EQ(action_span->origin_ep, w.server->addr());
  EXPECT_GT(action_span->origin_start, 0u);
  EXPECT_GE(action_span->origin_end, action_span->origin_start);

  // And it renders by name in the Gantt view (Fig. 5 equivalent).
  const auto* rt = summary.find(action_span->request_id);
  ASSERT_NE(rt, nullptr);
  EXPECT_NE(summary.format_request(*rt).find("policy:rss"),
            std::string::npos);
}
