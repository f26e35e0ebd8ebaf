// Tests for the extension components: SSG group membership, REMI data
// migration and the policy-driven dynamic reconfiguration engine (the
// paper's §VII future work).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "margolite/policy.hpp"
#include "services/remi/remi.hpp"
#include "services/sdskv/sdskv.hpp"
#include "services/ssg/ssg.hpp"
#include "simkit/cluster.hpp"
#include "sofi/fabric.hpp"
#include "symbiosys/breadcrumb.hpp"

namespace sim = sym::sim;
namespace ofi = sym::ofi;
namespace margo = sym::margo;
namespace ssg = sym::ssg;
namespace remi = sym::remi;
namespace sdskv = sym::sdskv;
namespace prof = sym::prof;

namespace {

struct MultiWorld {
  explicit MultiWorld(std::size_t servers, std::uint64_t seed = 31)
      : eng(seed),
        cluster(eng, sim::ClusterParams{
                         .node_count =
                             static_cast<std::uint32_t>(servers + 1)}),
        fabric(cluster) {
    for (std::size_t i = 0; i < servers; ++i) {
      auto& proc = cluster.spawn_process(static_cast<sim::NodeId>(i),
                                         "server-" + std::to_string(i));
      margo::InstanceConfig mc;
      mc.server = true;
      mc.handler_es = 2;
      instances.push_back(
          std::make_unique<margo::Instance>(fabric, proc, mc));
    }
    auto& cproc = cluster.spawn_process(
        static_cast<sim::NodeId>(servers), "client");
    client = std::make_unique<margo::Instance>(fabric, cproc,
                                               margo::InstanceConfig{});
  }

  void run_client(std::function<void()> body) {
    for (auto& s : instances) s->start();
    client->start();
    client->spawn([this, body = std::move(body)] {
      body();
      client->finalize();
      for (auto& s : instances) s->finalize();
    });
    eng.run();
  }

  sim::Engine eng;
  sim::Cluster cluster;
  ofi::Fabric fabric;
  std::vector<std::unique_ptr<margo::Instance>> instances;
  std::unique_ptr<margo::Instance> client;
};

}  // namespace

// ---------------------------------------------------------------------------
// SSG
// ---------------------------------------------------------------------------

TEST(Ssg, BootstrapViewRanks) {
  MultiWorld w(3);
  std::vector<ofi::EpAddr> addrs;
  for (auto& s : w.instances) addrs.push_back(s->addr());
  std::vector<std::unique_ptr<ssg::Member>> members;
  for (auto& s : w.instances) {
    members.push_back(std::make_unique<ssg::Member>(*s, "grp", addrs));
  }
  EXPECT_EQ(members[0]->self_rank(), 0);
  EXPECT_EQ(members[2]->self_rank(), 2);
  EXPECT_EQ(members[1]->view().size(), 3u);
  EXPECT_EQ(members[1]->member(2), addrs[2]);
  EXPECT_EQ(members[0]->view().rank_of(9999), -1);
}

TEST(Ssg, ObserverFetchesView) {
  MultiWorld w(3);
  std::vector<ofi::EpAddr> addrs;
  for (auto& s : w.instances) addrs.push_back(s->addr());
  std::vector<std::unique_ptr<ssg::Member>> members;
  for (auto& s : w.instances) {
    members.push_back(std::make_unique<ssg::Member>(*s, "hepnos-grp", addrs));
  }
  ssg::Observer observer(*w.client);
  ssg::GroupView seen;
  ssg::GroupView unknown;
  w.run_client([&] {
    seen = observer.observe(addrs[1], "hepnos-grp");
    unknown = observer.observe(addrs[1], "no-such-group");
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.members, addrs);
  EXPECT_EQ(seen.name, "hepnos-grp");
  EXPECT_EQ(unknown.size(), 0u);
}

TEST(Ssg, DynamicJoinPropagatesView) {
  MultiWorld w(3);
  std::vector<ofi::EpAddr> founding{w.instances[0]->addr(),
                                    w.instances[1]->addr()};
  auto m0 = std::make_unique<ssg::Member>(*w.instances[0], "grp", founding);
  auto m1 = std::make_unique<ssg::Member>(*w.instances[1], "grp", founding);
  std::unique_ptr<ssg::Member> joiner;
  // instances[2] joins through instance 0; it must learn the full view and
  // instance 1 must be told about the new member.
  for (auto& s : w.instances) s->start();
  w.client->start();
  w.instances[2]->spawn([&] {
    joiner = ssg::Member::join(*w.instances[2], "grp",
                               w.instances[0]->addr());
    w.client->finalize();
    for (auto& s : w.instances) s->finalize();
  });
  w.eng.run();

  ASSERT_NE(joiner, nullptr);
  EXPECT_EQ(joiner->view().size(), 3u);
  EXPECT_EQ(joiner->self_rank(), 2);
  EXPECT_EQ(m0->view().size(), 3u);
  EXPECT_EQ(m1->view().size(), 3u);  // propagated update
  EXPECT_GE(m1->updates_received(), 1u);
  EXPECT_GT(m0->view().version, 1u);
}

// ---------------------------------------------------------------------------
// REMI
// ---------------------------------------------------------------------------

TEST(Remi, MigratesDatabaseBetweenProviders) {
  MultiWorld w(2);
  sdskv::Provider kv_src(*w.instances[0], 1, sdskv::ProviderConfig{.db_count = 2});
  sdskv::Provider kv_dst(*w.instances[1], 1, sdskv::ProviderConfig{.db_count = 2});
  remi::Provider remi_src(*w.instances[0], 7, kv_src, 1);
  remi::Provider remi_dst(*w.instances[1], 7, kv_dst, 1);
  remi::Client rc(*w.client);
  sdskv::Client kvc(*w.client);

  remi::MigrationResult result;
  w.run_client([&] {
    // Seed the source database via the RPC path.
    std::vector<sdskv::KeyValue> kvs;
    for (int i = 0; i < 300; ++i) {
      kvs.emplace_back("mig-" + std::to_string(i), std::string(64, 'm'));
    }
    kvc.put_packed(w.instances[0]->addr(), 1, 0, std::move(kvs));

    result = rc.migrate(w.instances[0]->addr(), 7, /*src_db=*/0,
                        w.instances[1]->addr(), 7, /*dst_db=*/1,
                        /*erase_source=*/true);

    // Data must now live on the destination, not the source.
    std::string v;
    EXPECT_EQ(kvc.get(w.instances[1]->addr(), 1, 1, "mig-42", &v),
              sdskv::Status::kOk);
    EXPECT_EQ(v.size(), 64u);
    EXPECT_EQ(kvc.get(w.instances[0]->addr(), 1, 0, "mig-42", &v),
              sdskv::Status::kNotFound);
  });

  EXPECT_EQ(result.status, remi::Status::kOk);
  EXPECT_EQ(result.items, 300u);
  EXPECT_GT(result.bytes, 300u * 64u);
  EXPECT_EQ(kv_dst.db(1).size(), 300u);
  EXPECT_EQ(kv_src.db(0).size(), 0u);
  EXPECT_EQ(remi_src.migrations_served(), 1u);
  EXPECT_EQ(remi_dst.receives_served(), 1u);
}

// The source hands its only reference to the batch over with the request:
// the destination's handler owns the attachment alone, so it can move the
// encoded pairs on. Here a bare handler stands in for the destination REMI
// provider to look at what arrives.
TEST(Remi, DestinationOwnsTheMigratedBatch) {
  MultiWorld w(2);
  sdskv::Provider kv_src(*w.instances[0], 1, sdskv::ProviderConfig{});
  remi::Provider remi_src(*w.instances[0], 7, kv_src, 1);
  remi::Client rc(*w.client);
  sdskv::Client kvc(*w.client);
  long owners = 0;
  std::vector<sdskv::KeyValue> received;
  w.instances[1]->register_rpc("remi_receive_rpc", 7, [&](margo::Request& req) {
    auto r = req.reader();
    std::uint32_t dst_db = 0, items = 0;
    std::uint64_t bytes = 0;
    sym::hg::get(r, dst_db);
    sym::hg::get(r, items);
    sym::hg::get(r, bytes);
    req.bulk_pull(bytes);
    owners = req.handle()->attachment.use_count();
    if (const auto* kvs = req.handle()->attached<sdskv::KeyValueList>()) {
      for (const auto [k, v] : *kvs) received.emplace_back(k, v);
    }
    req.respond_value(static_cast<std::uint8_t>(remi::Status::kOk));
  });

  std::vector<sdskv::KeyValue> sent;
  for (int i = 0; i < 600; ++i) {
    sent.emplace_back("mv-" + std::to_string(1000 + i),
                      std::string(i % 3 == 0 ? 512 : 16, 'v'));
  }
  remi::MigrationResult result;
  w.run_client([&] {
    kvc.put_packed(w.instances[0]->addr(), 1, 0, sent);
    result = rc.migrate(w.instances[0]->addr(), 7, 0, w.instances[1]->addr(),
                        7, 0, /*erase_source=*/true);
  });

  EXPECT_EQ(result.status, remi::Status::kOk);
  EXPECT_EQ(result.items, 600u);
  EXPECT_EQ(owners, 1) << "the source kept a reference to the batch";
  EXPECT_EQ(received, sent);  // every pair, in key order
  EXPECT_EQ(kv_src.db(0).size(), 0u);
  EXPECT_EQ(kv_src.db(0).stored_bytes(), 0u);
}

// A migration carries the source's scan chunks to the destination in the
// put_packed encoding, undecoded. Every pair must arrive byte-equal: binary
// values (every byte value, NULs included), empty values, and a database
// spanning several 256-pair scan chunks and several store pages.
TEST(Remi, MigrationRoundTripIsByteExact) {
  MultiWorld w(2);
  sdskv::Provider kv_src(*w.instances[0], 1, sdskv::ProviderConfig{});
  sdskv::Provider kv_dst(*w.instances[1], 1, sdskv::ProviderConfig{});
  remi::Provider remi_src(*w.instances[0], 7, kv_src, 1);
  remi::Provider remi_dst(*w.instances[1], 7, kv_dst, 1);
  remi::Client rc(*w.client);
  sdskv::Client kvc(*w.client);

  std::map<std::string, std::string> want;
  for (int i = 0; i < 700; ++i) {
    std::string key = "rt-" + std::to_string(100000 + i);
    if (i % 5 == 0) key.push_back('\0');  // keys may hold NULs too
    std::string value;
    if (i % 7 != 0) {
      value.resize(static_cast<std::size_t>(1 + (i * 37) % 700));
      for (std::size_t b = 0; b < value.size(); ++b) {
        value[b] = static_cast<char>((i + b) % 256);
      }
    }
    want.emplace(std::move(key), std::move(value));
  }
  std::vector<sdskv::KeyValue> seed(want.begin(), want.end());

  remi::MigrationResult result;
  std::map<std::string, std::string> got;
  w.run_client([&] {
    ASSERT_EQ(kvc.put_packed(w.instances[0]->addr(), 1, 0, seed),
              sdskv::Status::kOk);
    result = rc.migrate(w.instances[0]->addr(), 7, 0, w.instances[1]->addr(),
                        7, 0, /*erase_source=*/true);
    std::string cursor;
    for (;;) {
      const auto chunk =
          kvc.list_keyvals(w.instances[1]->addr(), 1, 0, cursor, 128);
      if (chunk.empty()) break;
      for (const auto [k, v] : chunk) got.emplace(k, v);
      cursor = std::prev(got.end())->first;
    }
  });

  EXPECT_EQ(result.status, remi::Status::kOk);
  EXPECT_EQ(result.items, want.size());
  std::uint64_t bytes = 0;
  for (const auto& [k, v] : want) bytes += 8 + k.size() + v.size();
  EXPECT_EQ(result.bytes, bytes);
  EXPECT_EQ(got, want);
  EXPECT_EQ(kv_dst.db(0).stored_bytes(), bytes - 8 * want.size());
  EXPECT_EQ(kv_src.db(0).size(), 0u);
}

TEST(Remi, CopySemanticsKeepSource) {
  MultiWorld w(2);
  sdskv::Provider kv_src(*w.instances[0], 1, sdskv::ProviderConfig{});
  sdskv::Provider kv_dst(*w.instances[1], 1, sdskv::ProviderConfig{});
  remi::Provider remi_src(*w.instances[0], 7, kv_src, 1);
  remi::Provider remi_dst(*w.instances[1], 7, kv_dst, 1);
  remi::Client rc(*w.client);
  sdskv::Client kvc(*w.client);
  w.run_client([&] {
    kvc.put(w.instances[0]->addr(), 1, 0, "keep-me", "v");
    const auto result = rc.migrate(w.instances[0]->addr(), 7, 0,
                                   w.instances[1]->addr(), 7, 0,
                                   /*erase_source=*/false);
    EXPECT_EQ(result.status, remi::Status::kOk);
    EXPECT_EQ(result.items, 1u);
  });
  EXPECT_EQ(kv_src.db(0).size(), 1u);
  EXPECT_EQ(kv_dst.db(0).size(), 1u);
}

TEST(Remi, BadDatabaseReported) {
  MultiWorld w(2);
  sdskv::Provider kv_src(*w.instances[0], 1, sdskv::ProviderConfig{});
  sdskv::Provider kv_dst(*w.instances[1], 1, sdskv::ProviderConfig{});
  remi::Provider remi_src(*w.instances[0], 7, kv_src, 1);
  remi::Provider remi_dst(*w.instances[1], 7, kv_dst, 1);
  remi::Client rc(*w.client);
  remi::MigrationResult result;
  w.run_client([&] {
    result = rc.migrate(w.instances[0]->addr(), 7, /*src_db=*/5,
                        w.instances[1]->addr(), 7, 0);
  });
  EXPECT_EQ(result.status, remi::Status::kBadDb);
}

TEST(Remi, MigrationProducesDepthThreeCallpaths) {
  MultiWorld w(2);
  sdskv::Provider kv_src(*w.instances[0], 1, sdskv::ProviderConfig{});
  sdskv::Provider kv_dst(*w.instances[1], 1, sdskv::ProviderConfig{});
  remi::Provider remi_src(*w.instances[0], 7, kv_src, 1);
  remi::Provider remi_dst(*w.instances[1], 7, kv_dst, 1);
  remi::Client rc(*w.client);
  sdskv::Client kvc(*w.client);
  w.run_client([&] {
    kvc.put(w.instances[0]->addr(), 1, 0, "x", "y");
    rc.migrate(w.instances[0]->addr(), 7, 0, w.instances[1]->addr(), 7, 0);
  });
  // remi_migrate_rpc => remi_receive_rpc => sdskv_put_packed_rpc recorded
  // on the destination's own SDSKV target side.
  const auto expected = prof::extend(
      prof::extend(prof::hash16("remi_migrate_rpc"),
                   prof::hash16("remi_receive_rpc")),
      prof::hash16("sdskv_put_packed_rpc"));
  bool found = false;
  for (const auto& [key, stats] : w.instances[1]->profile().entries()) {
    if (key.breadcrumb == expected) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(prof::depth(expected), 3);
}

// ---------------------------------------------------------------------------
// Policy engine
// ---------------------------------------------------------------------------

TEST(Policy, HandlerAutoscaleAddsExecutionStreams) {
  MultiWorld w(1);
  auto& server = *w.instances[0];  // 2 handler ESs
  int slow_count = 0;
  server.register_rpc("slow_rpc", 1, [&](margo::Request& req) {
    sym::abt::compute(sim::usec(400));
    ++slow_count;
    req.respond({});
  });
  const auto rpc = w.client->register_client_rpc("slow_rpc");

  margo::PolicyEngine engine(server, sim::usec(200));
  engine.add_rule("autoscale",
                  margo::PolicyEngine::handler_autoscale(
                      /*backlog_per_es=*/2.0, /*consecutive=*/2));
  w.instances[0]->start();
  engine.start();
  w.client->start();
  w.client->spawn([&] {
    // Flood with 64 concurrent slow requests: 2 ESs cannot keep up.
    std::vector<margo::PendingOpPtr> ops;
    for (int i = 0; i < 64; ++i) {
      ops.push_back(w.client->forward_async(server.addr(), 1, rpc, {}));
    }
    for (auto& op : ops) op->wait();
    w.client->finalize();
    server.finalize();
  });
  w.eng.run();

  EXPECT_EQ(slow_count, 64);
  EXPECT_GT(server.handler_es_count(), 2u);  // the policy scaled us up
  ASSERT_FALSE(engine.actions().empty());
  EXPECT_NE(engine.actions()[0].description.find("scaling"),
            std::string::npos);
  EXPECT_GT(engine.samples_taken(), 0u);
}

TEST(Policy, AdaptiveMaxEventsRaisesThreshold) {
  // Client-side policy: shared progress ES + tiny RPCs pin the OFI reads at
  // the threshold; the rule must raise OFI_max_events.
  MultiWorld w(1);
  auto& server = *w.instances[0];
  server.register_rpc("tiny_rpc", 1,
                      [](margo::Request& req) { req.respond({}); });
  const auto rpc = w.client->register_client_rpc("tiny_rpc");

  margo::PolicyEngine engine(*w.client, sim::usec(100));
  engine.add_rule("adaptive_max_events",
                  margo::PolicyEngine::adaptive_max_events(
                      /*consecutive=*/2, /*cap=*/128));
  server.start();
  w.client->start();
  engine.start();
  w.client->spawn([&] {
    for (int round = 0; round < 60; ++round) {
      std::vector<margo::PendingOpPtr> ops;
      for (int i = 0; i < 48; ++i) {
        ops.push_back(w.client->forward_async(server.addr(), 1, rpc, {}));
      }
      for (auto& op : ops) op->wait();
    }
    w.client->finalize();
    server.finalize();
  });
  w.eng.run();

  EXPECT_GT(w.client->hg_class().config().max_events, 16u);
  ASSERT_FALSE(engine.actions().empty());
  EXPECT_NE(engine.actions()[0].description.find("OFI_max_events"),
            std::string::npos);
}

TEST(Policy, RssWatermarkFiresOncePerCrossing) {
  MultiWorld w(1);
  auto& server = *w.instances[0];
  margo::PolicyEngine engine(server, sim::usec(100));
  engine.add_rule("rss", margo::PolicyEngine::rss_watermark(16ULL << 20));
  server.start();
  engine.start();
  w.client->start();
  // Push RSS above 16 MiB shortly after start.
  w.eng.after(sim::usec(250), [&] { server.process().add_rss(32 << 20); });
  w.eng.after(sim::msec(2), [&] {
    server.finalize();
    w.client->finalize();
  });
  w.eng.run();
  ASSERT_EQ(engine.actions().size(), 1u);  // fires once, not per sample
  EXPECT_NE(engine.actions()[0].description.find("watermark"),
            std::string::npos);
}

TEST(Policy, NoFalsePositivesWhenIdle) {
  MultiWorld w(1);
  auto& server = *w.instances[0];
  margo::PolicyEngine engine(server, sim::usec(100));
  engine.add_rule("autoscale", margo::PolicyEngine::handler_autoscale());
  engine.add_rule("adaptive", margo::PolicyEngine::adaptive_max_events());
  server.start();
  engine.start();
  w.client->start();
  w.eng.after(sim::msec(2), [&] {
    server.finalize();
    w.client->finalize();
  });
  w.eng.run();
  EXPECT_TRUE(engine.actions().empty());
  EXPECT_GT(engine.samples_taken(), 10u);
}
