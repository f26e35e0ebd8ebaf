// Integration tests for the services layer: SDSKV (all three backends),
// BAKE, Sonata, Mobject and HEPnOS, all running over the full
// margolite/merclite/sofi/argolite stack.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "margolite/instance.hpp"
#include "services/bake/bake.hpp"
#include "services/hepnos/hepnos.hpp"
#include "services/mobject/mobject.hpp"
#include "services/sdskv/sdskv.hpp"
#include "services/sdskv/store.hpp"
#include "services/sonata/sonata.hpp"
#include "simkit/cluster.hpp"
#include "simkit/rng.hpp"
#include "sofi/fabric.hpp"

namespace sim = sym::sim;
namespace ofi = sym::ofi;
namespace hg = sym::hg;
namespace margo = sym::margo;
namespace sdskv = sym::sdskv;
namespace bake = sym::bake;
namespace sonata = sym::sonata;
namespace mobject = sym::mobject;
namespace hepnos = sym::hepnos;

namespace {

struct ServiceWorld {
  explicit ServiceWorld(unsigned handler_es = 4, std::uint64_t seed = 21)
      : eng(seed),
        cluster(eng, sim::ClusterParams{.node_count = 2}),
        fabric(cluster),
        sproc(cluster.spawn_process(0, "server")),
        cproc(cluster.spawn_process(1, "client")),
        server(fabric, sproc,
               margo::InstanceConfig{.server = true,
                                     .handler_es = handler_es}),
        client(fabric, cproc, margo::InstanceConfig{}) {}

  void run_client(std::function<void()> body) {
    server.start();
    client.start();
    client.spawn([this, body = std::move(body)] {
      body();
      client.finalize();
      server.finalize();
    });
    eng.run();
  }

  sim::Engine eng;
  sim::Cluster cluster;
  ofi::Fabric fabric;
  sim::Process& sproc;
  sim::Process& cproc;
  margo::Instance server;
  margo::Instance client;
};

/// Decode the pairs of a backend scan (must run in a ULT).
std::vector<sdskv::KeyValue> collect(sdskv::Backend& db,
                                     const std::string& start_key,
                                     std::size_t max) {
  hg::BufWriter w;
  const std::size_t n = db.list_keyvals(start_key, max, w);
  hg::BufReader r(w.buffer());
  std::vector<sdskv::KeyValue> out(n);
  for (auto& kv : out) hg::get(r, kv);
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

/// Copy the pairs of a list_keyvals response out.
std::vector<sdskv::KeyValue> collect(const sdskv::KeyValueList& list) {
  std::vector<sdskv::KeyValue> out;
  for (const auto& [k, v] : list) out.emplace_back(k, v);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SDSKV backends (direct, inside a ULT)
// ---------------------------------------------------------------------------

class BackendTest
    : public ::testing::TestWithParam<sdskv::BackendType> {};

TEST_P(BackendTest, PutGetEraseListSemantics) {
  ServiceWorld w;
  auto backend = sdskv::make_backend(GetParam(), w.sproc);
  bool done = false;
  // Drive backend calls from a ULT (they charge compute / take locks).
  sym::abt::Runtime rt(w.eng, w.sproc);
  auto& pool = rt.create_pool("p");
  rt.create_xstream({&pool});
  rt.create_ult(pool, [&] {
    backend->put("b", "2");
    backend->put("a", "1");
    backend->put("c", "3");
    backend->put("a", "1bis");  // overwrite
    EXPECT_EQ(backend->size(), 3u);

    std::string v;
    EXPECT_TRUE(backend->get("a", &v));
    EXPECT_EQ(v, "1bis");
    EXPECT_FALSE(backend->get("zz", &v));

    const auto scan = collect(*backend, "", 10);
    ASSERT_EQ(scan.size(), 3u);
    EXPECT_EQ(scan[0].first, "a");  // sorted ascending
    EXPECT_EQ(scan[2].first, "c");

    const auto bounded = collect(*backend, "a", 1);
    ASSERT_EQ(bounded.size(), 1u);
    EXPECT_EQ(bounded[0].first, "b");  // strictly greater than start key

    EXPECT_TRUE(backend->erase("b"));
    EXPECT_FALSE(backend->erase("b"));
    EXPECT_EQ(backend->size(), 2u);
    done = true;
  });
  w.eng.run();
  EXPECT_TRUE(done);
}

TEST_P(BackendTest, PutMultiStoresAll) {
  ServiceWorld w;
  auto backend = sdskv::make_backend(GetParam(), w.sproc);
  sym::abt::Runtime rt(w.eng, w.sproc);
  auto& pool = rt.create_pool("p");
  rt.create_xstream({&pool});
  rt.create_ult(pool, [&] {
    std::vector<sdskv::KeyValue> kvs;
    for (int i = 0; i < 100; ++i) {
      kvs.emplace_back("k" + std::to_string(i), std::string(64, 'v'));
    }
    backend->put_multi(sdskv::KeyValueList(hg::encode(kvs)));
    EXPECT_EQ(backend->size(), 100u);
    EXPECT_GT(backend->stored_bytes(), 6400u);
  });
  w.eng.run();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(sdskv::BackendType::kMap,
                                           sdskv::BackendType::kLevelDb,
                                           sdskv::BackendType::kBerkeleyDb));

TEST(SdskvBackend, MapSerializesWriters) {
  // Two writers on two ESs against one map db: never concurrent.
  ServiceWorld w;
  sdskv::MapBackend backend(w.sproc);
  sym::abt::Runtime rt(w.eng, w.sproc);
  auto& pool = rt.create_pool("p");
  rt.create_xstream({&pool});
  rt.create_xstream({&pool});
  std::uint64_t max_waiters = 0;
  for (int i = 0; i < 4; ++i) {
    rt.create_ult(pool, [&, i] {
      std::vector<sdskv::KeyValue> kvs;
      for (int k = 0; k < 50; ++k) {
        kvs.emplace_back("w" + std::to_string(i) + "-" + std::to_string(k),
                         std::string(512, 'x'));
      }
      backend.put_multi(sdskv::KeyValueList(hg::encode(kvs)));
      max_waiters = std::max<std::uint64_t>(max_waiters,
                                            backend.lock_waiters());
    });
  }
  w.eng.run();
  EXPECT_EQ(backend.size(), 200u);
}

TEST(SdskvBackend, LevelDbFlushesOnMemtableLimit) {
  ServiceWorld w;
  sdskv::LevelDbBackend backend(w.sproc);
  sym::abt::Runtime rt(w.eng, w.sproc);
  auto& pool = rt.create_pool("p");
  rt.create_xstream({&pool});
  rt.create_ult(pool, [&] {
    const std::string big(64 * 1024, 'x');
    for (int i = 0; i < 100; ++i) {  // ~6.4 MB > 4 MB memtable limit
      backend.put("k" + std::to_string(i), big);
    }
    EXPECT_GE(backend.flush_count(), 1u);
    // Data must survive the flush.
    std::string v;
    EXPECT_TRUE(backend.get("k0", &v));
    EXPECT_EQ(backend.size(), 100u);
  });
  w.eng.run();
}

// The paged store against a std::map model, over seeded random operations:
// inserts, overwrites that keep, grow or shrink a value, erases, lookups,
// and scans from random starts with random bounds that cross pages. Values
// run up to a little over HEPnOS's 512 bytes, so the store holds dozens of
// pages that split, compact and empty out.
TEST(SdskvStore, MatchesAMapModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    sdskv::Store store;
    std::map<std::string, std::string> model;
    const auto draw_key = [&rng] {
      return "key/" + std::to_string(10000 + rng.uniform(3000));
    };
    const auto draw_value = [&rng](int op) {
      const std::uint64_t lengths[] = {0, 1 + rng.uniform(40), 512, 512,
                                       512 + rng.uniform(100)};
      return std::string(lengths[rng.uniform(5)],
                         static_cast<char>('a' + op % 26));
    };
    const auto check_scan = [&](const std::string& start, std::size_t max) {
      hg::BufWriter want;
      std::size_t n = 0;
      for (auto it = model.upper_bound(start); it != model.end() && n < max;
           ++it, ++n) {
        hg::put(want, *it);
      }
      hg::BufWriter got;
      EXPECT_EQ(store.scan(start, max, got), n) << start << " max " << max;
      EXPECT_EQ(got.buffer(), want.buffer()) << start << " max " << max;
    };
    const auto nth_key = [&](std::uint64_t bound) {
      return std::next(model.begin(),
                       static_cast<std::ptrdiff_t>(rng.uniform(bound)))
          ->first;
    };
    const auto check_all = [&] {
      ASSERT_EQ(store.size(), model.size());
      check_scan("", model.size() + 1);
      for (int i = 0; i < 4; ++i) {
        const std::string start =
            rng.uniform(2) == 0 || model.empty() ? draw_key()
                                                 : nth_key(model.size());
        check_scan(start, rng.uniform(700));
      }
    };

    std::size_t most_pages = 0;
    for (int op = 0; op < 30000; ++op) {
      const std::string key = draw_key();
      const auto it = model.find(key);
      const std::uint64_t kind = rng.uniform(10);
      if (kind < 6) {
        const std::string value = draw_value(op);
        EXPECT_EQ(store.put(key, value), it == model.end()) << key;
        model[key] = value;
      } else if (kind < 8) {
        const auto erased = store.erase(key);
        ASSERT_EQ(erased.has_value(), it != model.end()) << key;
        if (erased) {
          EXPECT_EQ(*erased, key.size() + it->second.size());
          model.erase(it);
        }
      } else {
        std::string value;
        ASSERT_EQ(store.get(key, &value), it != model.end()) << key;
        if (it != model.end()) {
          EXPECT_EQ(value, it->second);
        }
      }
      most_pages = std::max(most_pages, store.page_count());
      if (op % 500 == 0) check_all();
    }
    check_all();
    EXPECT_GT(most_pages, 10u) << "the model run must cross many pages";

    // Erase a contiguous third of the keys, emptying whole pages, then
    // everything else in a random order.
    std::vector<std::string> keys;
    for (const auto& kv : model) keys.push_back(kv.first);
    const std::size_t pages_before = store.page_count();
    for (std::size_t i = keys.size() / 3; i < 2 * keys.size() / 3; ++i) {
      ASSERT_TRUE(store.erase(keys[i]));
      model.erase(keys[i]);
    }
    EXPECT_LT(store.page_count(), pages_before);
    check_all();
    while (!model.empty()) {
      const std::string victim = nth_key(model.size());
      ASSERT_TRUE(store.erase(victim));
      model.erase(victim);
      if (model.size() % 97 == 0) check_all();
    }
    EXPECT_EQ(store.page_count(), 0u);
    hg::BufWriter none;
    EXPECT_EQ(store.scan("", 10, none), 0u);
    EXPECT_EQ(none.size(), 0u);
    EXPECT_FALSE(store.erase("key/10000"));
    EXPECT_FALSE(store.get("key/10000", nullptr));
  }
}

// ---------------------------------------------------------------------------
// SDSKV over RPC
// ---------------------------------------------------------------------------

TEST(Sdskv, EndToEndPutGet) {
  ServiceWorld w;
  sdskv::Provider provider(w.server, 1,
                           sdskv::ProviderConfig{.db_count = 2});
  sdskv::Client cl(w.client);
  w.run_client([&] {
    EXPECT_EQ(cl.put(w.server.addr(), 1, 0, "key", "value"),
              sdskv::Status::kOk);
    std::string v;
    EXPECT_EQ(cl.get(w.server.addr(), 1, 0, "key", &v), sdskv::Status::kOk);
    EXPECT_EQ(v, "value");
    EXPECT_EQ(cl.get(w.server.addr(), 1, 1, "key", &v),
              sdskv::Status::kNotFound);  // other db
    EXPECT_EQ(cl.get(w.server.addr(), 1, 9, "key", &v),
              sdskv::Status::kBadDb);
    std::uint64_t len = 0;
    EXPECT_EQ(cl.length(w.server.addr(), 1, 0, "key", &len),
              sdskv::Status::kOk);
    EXPECT_EQ(len, 5u);
    EXPECT_EQ(cl.erase(w.server.addr(), 1, 0, "key"), sdskv::Status::kOk);
    EXPECT_EQ(cl.get(w.server.addr(), 1, 0, "key", &v),
              sdskv::Status::kNotFound);
  });
}

TEST(Sdskv, PutPackedMovesContentViaBulk) {
  ServiceWorld w;
  sdskv::Provider provider(w.server, 1, sdskv::ProviderConfig{});
  sdskv::Client cl(w.client);
  const auto rdma_before = w.server.hg_class().endpoint().rdma_ops();
  w.run_client([&] {
    std::vector<sdskv::KeyValue> kvs;
    for (int i = 0; i < 256; ++i) {
      kvs.emplace_back("k" + std::to_string(i), std::string(512, 'p'));
    }
    EXPECT_EQ(cl.put_packed(w.server.addr(), 1, 0, std::move(kvs)),
              sdskv::Status::kOk);
    std::string v;
    EXPECT_EQ(cl.get(w.server.addr(), 1, 0, "k17", &v), sdskv::Status::kOk);
    EXPECT_EQ(v.size(), 512u);
  });
  EXPECT_EQ(provider.db(0).size(), 256u);
  // The content moved through a bulk RDMA pull by the target.
  EXPECT_GT(w.server.hg_class().endpoint().rdma_ops(), rdma_before);
  EXPECT_GT(w.server.hg_class().bulk_bytes_total(), 128u * 1024u);
}

TEST(Sdskv, ListKeyvalsOverRpc) {
  ServiceWorld w;
  sdskv::Provider provider(w.server, 1, sdskv::ProviderConfig{});
  sdskv::Client cl(w.client);
  w.run_client([&] {
    for (const char* k : {"alpha", "beta", "gamma"}) {
      cl.put(w.server.addr(), 1, 0, k, "v");
    }
    const auto scan =
        collect(cl.list_keyvals(w.server.addr(), 1, 0, "alpha", 10));
    ASSERT_EQ(scan.size(), 2u);
    EXPECT_EQ(scan[0].first, "beta");
    EXPECT_EQ(scan[1].first, "gamma");
  });
}

// The provider serializes list_keyvals straight from the store. Its bytes
// must be exactly hg::encode(std::vector<KeyValue>) of the same scan, and
// the scan must cost the same virtual time, on every backend.
class InPlaceScanTest
    : public ::testing::TestWithParam<sdskv::BackendType> {};

TEST_P(InPlaceScanTest, BytesAndCostMatchTheEncodedVector) {
  ServiceWorld w;
  sdskv::Provider provider(
      w.server, 1, sdskv::ProviderConfig{.backend = GetParam(), .db_count = 2});
  sdskv::Client cl(w.client);
  const sim::DurationNs list_base =
      GetParam() == sdskv::BackendType::kLevelDb ? 5000 : 2500;
  w.run_client([&] {
    std::map<std::string, std::string> model;  // what a scan must see
    auto& db = provider.db(0);
    const auto put = [&](const std::string& k, const std::string& v) {
      db.put(k, v);
      model[k] = v;
    };
    // Four 1 MiB values fill the LevelDB memtable and charge its flush;
    // the later overwrite must shadow the first value of big/1, and each
    // 1 MiB record outgrows a store page on its own.
    for (int i = 0; i < 4; ++i) {
      put("big/" + std::to_string(i),
          std::string(1 << 20, static_cast<char>('a' + i)));
    }
    for (int i = 0; i < 40; ++i) {
      put("k" + std::to_string(10 + i), "v" + std::to_string(i));
    }
    put("big/1", "shadowed");
    if (auto* lsm = dynamic_cast<sdskv::LevelDbBackend*>(&db)) {
      ASSERT_EQ(lsm->flush_count(), 1u);
    }

    const auto expected = [&](const std::string& start, std::size_t max) {
      std::vector<sdskv::KeyValue> out;
      for (auto it = model.upper_bound(start);
           it != model.end() && out.size() < max; ++it) {
        out.emplace_back(it->first, it->second);
      }
      return out;
    };
    const std::pair<std::string, std::uint32_t> scans[] = {
        {"", 512}, {"big/0", 3}, {"k20", 5}, {"", 0}, {"k49", 10}, {"zz", 4}};
    for (const auto& [start, max] : scans) {
      const auto want = expected(start, max);
      const auto got = cl.list_keyvals(w.server.addr(), 1, 0, start, max);
      EXPECT_EQ(got.bytes(), hg::encode(want)) << start << " max " << max;
      EXPECT_EQ(got.size(), want.size());
      EXPECT_EQ(collect(got), want);

      // Virtual cost: the backend's base plus a per-pair charge.
      const sim::TimeNs t0 = w.eng.now();
      hg::BufWriter scanned;
      const std::size_t n = db.list_keyvals(start, max, scanned);
      EXPECT_EQ(n, want.size());
      EXPECT_EQ(w.eng.now() - t0,
                list_base + static_cast<sim::DurationNs>(2000 * n));
    }
    const auto none = hg::encode(std::vector<sdskv::KeyValue>{});
    EXPECT_EQ(cl.list_keyvals(w.server.addr(), 1, 1, "", 10).bytes(), none)
        << "empty database";
    const auto bad = cl.list_keyvals(w.server.addr(), 1, 7, "", 10);
    EXPECT_EQ(bad.bytes(), none) << "unknown database id";
    EXPECT_TRUE(bad.empty());
    EXPECT_EQ(bad.begin(), bad.end());
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, InPlaceScanTest,
                         ::testing::Values(sdskv::BackendType::kMap,
                                           sdskv::BackendType::kLevelDb,
                                           sdskv::BackendType::kBerkeleyDb));

// A list built pair by pair holds the bytes hg::encode gives the same pairs.
// (Its capacity may exceed them: appends grow it geometrically.)
TEST(Sdskv, KeyValueListAppendMatchesEncode) {
  std::vector<sdskv::KeyValue> kvs = {
      {"ds%01", std::string(512, 'x')}, {"", "v"}, {"k", ""},
      {std::string("a\0b", 3), std::string("\0\xff", 2)}};
  sdskv::KeyValueList list;
  EXPECT_EQ(list.pair_bytes(), 0u);
  for (const auto& [k, v] : kvs) {
    list.append(std::string_view(k).substr(0, k.size() / 2),
                std::string_view(k).substr(k.size() / 2), v);
  }
  const auto encoded = hg::encode(kvs);
  EXPECT_EQ(list.bytes(), encoded);
  EXPECT_EQ(list.size(), kvs.size());
  EXPECT_EQ(list.pair_bytes(), encoded.size() - sizeof(std::uint32_t));
  EXPECT_EQ(collect(list), kvs);
}

TEST(Sdskv, KeyValueListRejectsMalformedResponses) {
  auto truncated = hg::encode(std::vector<sdskv::KeyValue>{{"key", "value"}});
  truncated.pop_back();
  EXPECT_THROW(sdskv::KeyValueList{truncated}, std::out_of_range);
  EXPECT_THROW(sdskv::KeyValueList{std::vector<std::byte>{}},
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// BAKE
// ---------------------------------------------------------------------------

TEST(Bake, CreateWritePersistRead) {
  ServiceWorld w;
  bake::Provider provider(w.server, 2);
  bake::Client cl(w.client);
  w.run_client([&] {
    const auto rid = cl.create(w.server.addr(), 2, 1024);
    EXPECT_GT(rid, 0u);
    std::vector<std::byte> blob(1024, std::byte{0xAB});
    EXPECT_EQ(cl.write(w.server.addr(), 2, rid, 0,
                       std::make_shared<std::vector<std::byte>>(blob)),
              bake::Status::kOk);
    EXPECT_EQ(cl.persist(w.server.addr(), 2, rid), bake::Status::kOk);
    const auto back = cl.read(w.server.addr(), 2, rid, 0, 1024);
    ASSERT_EQ(back.size(), 1024u);
    EXPECT_EQ(back[77], std::byte{0xAB});
    EXPECT_EQ(cl.probe(w.server.addr(), 2), 1u);
    EXPECT_EQ(cl.persist(w.server.addr(), 2, 999), bake::Status::kNoRegion);
  });
  ASSERT_NE(provider.region(1), nullptr);
  EXPECT_TRUE(provider.region(1)->persisted);
  EXPECT_EQ(provider.device().bytes_written(), 1024u);
}

TEST(Bake, ReadReturnsExactBytesAtAnyOffset) {
  ServiceWorld w;
  bake::Provider provider(w.server, 2);
  bake::Client cl(w.client);
  w.run_client([&] {
    auto blob = std::make_shared<std::vector<std::byte>>(10000);
    for (std::size_t i = 0; i < blob->size(); ++i) {
      (*blob)[i] = static_cast<std::byte>(i % 251);
    }
    const auto addr = w.server.addr();
    const auto rid = cl.create(addr, 2, blob->size());
    ASSERT_EQ(cl.write(addr, 2, rid, 0, blob), bake::Status::kOk);
    const auto slice = [&](std::size_t off, std::size_t len) {
      return std::vector<std::byte>(blob->begin() + off,
                                    blob->begin() + off + len);
    };
    EXPECT_EQ(cl.read(addr, 2, rid, 0, 10000), *blob);
    EXPECT_EQ(cl.read(addr, 2, rid, 4321, 1000), slice(4321, 1000));
    EXPECT_TRUE(cl.read(addr, 2, rid, 100, 0).empty());      // zero length
    EXPECT_EQ(cl.read(addr, 2, rid, 9990, 64), slice(9990, 10));  // clipped
    EXPECT_TRUE(cl.read(addr, 2, rid, 10000, 16).empty());   // at the end
    EXPECT_TRUE(cl.read(addr, 2, rid, 20000, 16).empty());   // past the end
    EXPECT_TRUE(cl.read(addr, 2, 999, 0, 16).empty());       // no region
  });
}

TEST(Bake, WriteWhoseEndWrapsIsRejected) {
  ServiceWorld w;
  bake::Provider provider(w.server, 2);
  bake::Client cl(w.client);
  w.run_client([&] {
    const auto addr = w.server.addr();
    const auto rid = cl.create(addr, 2, 0);
    auto blob = std::make_shared<std::vector<std::byte>>(16, std::byte{0x7E});
    // offset + 16 wraps to 8 in 64 bits.
    EXPECT_EQ(cl.write(addr, 2, rid, UINT64_MAX - 7, blob),
              bake::Status::kOutOfRange);
    EXPECT_EQ(cl.write(addr, 2, rid, 32, blob), bake::Status::kOk);
    EXPECT_EQ(cl.read(addr, 2, rid, 32, 16), *blob);
  });
  ASSERT_NE(provider.region(1), nullptr);
  EXPECT_EQ(provider.region(1)->data.size(), 48u);
}

TEST(Bake, CreateWritePersistComposite) {
  ServiceWorld w;
  bake::Provider provider(w.server, 2);
  bake::Client cl(w.client);
  w.run_client([&] {
    std::vector<std::byte> blob(64 * 1024, std::byte{0x5A});
    const auto rid = cl.create_write_persist(w.server.addr(), 2,
                                             std::move(blob));
    const auto back = cl.read(w.server.addr(), 2, rid, 1024, 16);
    ASSERT_EQ(back.size(), 16u);
    EXPECT_EQ(back[0], std::byte{0x5A});
  });
}

TEST(Bake, DeviceSerializesConcurrentPersists) {
  ServiceWorld w;
  bake::Provider provider(w.server, 2);
  bake::Client cl(w.client);
  sim::TimeNs elapsed = 0;
  w.run_client([&] {
    const auto t0 = w.eng.now();
    std::vector<std::byte> blob(1 << 20, std::byte{1});
    // Two 1 MiB composite writes: device bandwidth 2 B/ns => >= 1 ms total.
    cl.create_write_persist(w.server.addr(), 2, blob);
    cl.create_write_persist(w.server.addr(), 2, blob);
    elapsed = w.eng.now() - t0;
  });
  EXPECT_GE(elapsed, sim::usec(900));
  EXPECT_EQ(provider.device().bytes_written(), 2u << 20);
}

// ---------------------------------------------------------------------------
// Sonata
// ---------------------------------------------------------------------------

TEST(Sonata, StoreFetchRoundTrip) {
  ServiceWorld w;
  sonata::Provider provider(w.server, 3);
  sonata::Client cl(w.client);
  w.run_client([&] {
    cl.create_collection(w.server.addr(), 3, "docs");
    std::uint64_t id = 99;
    EXPECT_EQ(cl.store(w.server.addr(), 3, "docs", R"({"a": [1,2,3]})", &id),
              sonata::Status::kOk);
    EXPECT_EQ(id, 0u);
    std::string text;
    EXPECT_EQ(cl.fetch(w.server.addr(), 3, "docs", id, &text),
              sonata::Status::kOk);
    EXPECT_TRUE(sym::json::parse(text) == sym::json::parse(R"({"a":[1,2,3]})"));
    EXPECT_EQ(cl.fetch(w.server.addr(), 3, "docs", 42, &text),
              sonata::Status::kNotFound);
    EXPECT_EQ(cl.store(w.server.addr(), 3, "nope", "{}", &id),
              sonata::Status::kNoCollection);
    EXPECT_EQ(cl.store(w.server.addr(), 3, "docs", "{broken", &id),
              sonata::Status::kBadJson);
  });
}

TEST(Sonata, StoreMultiAndFilter) {
  ServiceWorld w;
  sonata::Provider provider(w.server, 3);
  sonata::Client cl(w.client);
  w.run_client([&] {
    cl.create_collection(w.server.addr(), 3, "events");
    std::string arr = "[";
    for (int i = 0; i < 100; ++i) {
      if (i != 0) arr += ",";
      arr += R"({"pt": )" + std::to_string(i) + R"(, "det": "D)" +
             std::to_string(i % 4) + "\"}";
    }
    arr += "]";
    std::uint32_t stored = 0;
    EXPECT_EQ(cl.store_multi(w.server.addr(), 3, "events", arr, &stored),
              sonata::Status::kOk);
    EXPECT_EQ(stored, 100u);
    EXPECT_EQ(cl.size(w.server.addr(), 3, "events"), 100u);

    std::vector<std::string> matches;
    EXPECT_EQ(cl.filter(w.server.addr(), 3, "events",
                        "$pt >= 90 && $det == \"D2\"", &matches),
              sonata::Status::kOk);
    // pt in [90,99] with pt%4==2: 90, 94, 98.
    EXPECT_EQ(matches.size(), 3u);

    EXPECT_EQ(cl.filter(w.server.addr(), 3, "events", "$$bad((", &matches),
              sonata::Status::kBadFilter);
  });
}

TEST(Sonata, LargeStoreMultiTakesInternalRdmaPath) {
  ServiceWorld w;
  sonata::Provider provider(w.server, 3);
  sonata::Client cl(w.client);
  w.run_client([&] {
    cl.create_collection(w.server.addr(), 3, "big");
    std::string arr = "[";
    for (int i = 0; i < 500; ++i) {
      if (i != 0) arr += ",";
      arr += R"({"payload": ")" + std::string(100, 'x') + "\"}";
    }
    arr += "]";
    ASSERT_GT(arr.size(), 4096u);  // beyond the eager limit
    std::uint32_t stored = 0;
    cl.store_multi(w.server.addr(), 3, "big", arr, &stored);
    EXPECT_EQ(stored, 500u);
  });
  EXPECT_GE(w.client.hg_class().eager_overflows(), 1u);
}

// ---------------------------------------------------------------------------
// Mobject
// ---------------------------------------------------------------------------

TEST(Mobject, WriteThenReadObject) {
  ServiceWorld w(8);
  mobject::Server srv(w.server);
  mobject::Client cl(w.client);
  w.run_client([&] {
    std::vector<std::byte> data(4096, std::byte{0x42});
    const auto seq =
        cl.write_op(w.server.addr(), 1, "obj-1", std::move(data));
    EXPECT_GE(seq, 1u);
    const auto back = cl.read_op(w.server.addr(), 1, "obj-1");
    ASSERT_EQ(back.size(), 4096u);
    EXPECT_EQ(back[123], std::byte{0x42});
  });
  EXPECT_EQ(srv.write_ops(), 1u);
  EXPECT_EQ(srv.read_ops(), 1u);
}

TEST(Mobject, ReadOpReturnsTheLastWrittenObjectsBytes) {
  ServiceWorld w(8);
  mobject::Server srv(w.server);
  mobject::Client cl(w.client);
  w.run_client([&] {
    std::vector<std::byte> first(3000, std::byte{0x01});
    std::vector<std::byte> last(5000);
    for (std::size_t i = 0; i < last.size(); ++i) {
      last[i] = static_cast<std::byte>(i * 7);
    }
    cl.write_op(w.server.addr(), 1, "obj-a", first);
    cl.write_op(w.server.addr(), 1, "obj-b", last);
    EXPECT_EQ(cl.read_op(w.server.addr(), 1, "obj-b"), last);
  });
  EXPECT_EQ(srv.read_ops(), 1u);
}

TEST(Mobject, WriteOpFansOutIntoTwelveChildCalls) {
  ServiceWorld w(8);
  mobject::Server srv(w.server);
  mobject::Client cl(w.client);
  w.run_client([&] {
    cl.write_op(w.server.addr(), 1, "obj-x", std::vector<std::byte>(256));
  });
  // Count depth-2 target-side callpaths under mobject_write_op.
  const auto root = sym::prof::hash16("mobject_write_op");
  std::uint64_t child_calls = 0;
  for (const auto& [key, stats] : w.server.profile().entries()) {
    if (key.side != sym::prof::Side::kTarget) continue;
    if (sym::prof::depth(key.breadcrumb) != 2) continue;
    if (static_cast<std::uint16_t>((key.breadcrumb >> 16) & 0xFFFF) != root) {
      continue;
    }
    child_calls += stats.at(sym::prof::Interval::kTargetExec).count;
  }
  EXPECT_EQ(child_calls, 12u);  // the paper's Fig. 5 structure
}

// ---------------------------------------------------------------------------
// HEPnOS
// ---------------------------------------------------------------------------

TEST(Hepnos, EventKeyEncodesHierarchy) {
  hepnos::EventId a{.dataset = "NOvA", .run = 1, .subrun = 2, .event = 3};
  hepnos::EventId b{.dataset = "NOvA", .run = 1, .subrun = 2, .event = 4};
  EXPECT_NE(a.key(), b.key());
  EXPECT_EQ(a.key().substr(0, 4), "NOvA");
  // Keys of the same subrun sort adjacently.
  EXPECT_LT(a.key(), b.key());
}

// Event keys hash to databases, so their bytes must not change: the hex
// formatter writes what "%08x%08x%016llx" printed.
TEST(Hepnos, EventKeyMatchesPrintfFormat) {
  sim::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    hepnos::EventId id{.dataset = i % 2 == 0 ? "NOvA" : "",
                       .run = static_cast<std::uint32_t>(rng.next()),
                       .subrun = static_cast<std::uint32_t>(rng.next() >> 7),
                       .event = rng.next() >> (i % 64)};
    if (i == 0) id.run = id.subrun = 0, id.event = ~std::uint64_t{0};
    char buf[64];
    std::snprintf(buf, sizeof buf, "%%%08x%%%08x%%%016llx", id.run, id.subrun,
                  static_cast<unsigned long long>(id.event));
    EXPECT_EQ(id.key(), id.dataset + buf);
  }
}

TEST(Hepnos, StoreAndLoadEvent) {
  ServiceWorld w;
  hepnos::Server srv(w.server, hepnos::ServerConfig{.databases = 4});
  hepnos::DataStore store(w.client, {w.server.addr()}, 1, 4);
  w.run_client([&] {
    hepnos::EventId id{.dataset = "ds", .run = 7, .subrun = 0, .event = 11};
    store.store_event(id, "payload-bytes");
    std::string back;
    EXPECT_TRUE(store.load_event(id, &back));
    EXPECT_EQ(back, "payload-bytes");
    hepnos::EventId missing{.dataset = "ds", .run = 9, .subrun = 9,
                            .event = 9};
    EXPECT_FALSE(store.load_event(missing, &back));
  });
  EXPECT_EQ(srv.events_stored(), 1u);
}

TEST(Hepnos, WriteBatchGroupsByDatabase) {
  ServiceWorld w;
  hepnos::Server srv(w.server, hepnos::ServerConfig{.databases = 4});
  hepnos::DataStore store(w.client, {w.server.addr()}, 1, 4);
  const auto rpcs_before = w.client.hg_class().num_rpcs_invoked();
  w.run_client([&] {
    hepnos::DataStore::WriteBatch batch(store);
    for (std::uint64_t e = 0; e < 64; ++e) {
      batch.store(hepnos::EventId{.dataset = "ds", .run = 0, .subrun = 0,
                                  .event = e},
                  std::string(128, 'e'));
    }
    EXPECT_EQ(batch.pending(), 64u);
    batch.flush();
    EXPECT_EQ(batch.pending(), 0u);
  });
  EXPECT_EQ(srv.events_stored(), 64u);
  // At most one put_packed per database: <= 4 RPCs for 64 events.
  EXPECT_LE(w.client.hg_class().num_rpcs_invoked() - rpcs_before, 4u);
}

TEST(Hepnos, DataLoaderStoresEveryEvent) {
  ServiceWorld w;
  hepnos::Server srv(w.server, hepnos::ServerConfig{.databases = 4});
  hepnos::DataStore store(w.client, {w.server.addr()}, 1, 4);
  hepnos::DataLoaderStats stats;
  w.run_client([&] {
    hepnos::EventFileModel model;
    model.events_per_file = 200;
    model.payload_bytes = 64;
    stats = hepnos::run_data_loader(store, model, /*files=*/2,
                                    /*batch_size=*/50, "ds", 0);
  });
  EXPECT_EQ(stats.events, 400u);
  EXPECT_EQ(srv.events_stored(), 400u);
  EXPECT_GT(stats.rpcs, 0u);
  EXPECT_GT(stats.elapsed, 0u);
}

TEST(Hepnos, EventsDistributeAcrossDatabases) {
  ServiceWorld w;
  hepnos::Server srv(w.server, hepnos::ServerConfig{.databases = 8});
  hepnos::DataStore store(w.client, {w.server.addr()}, 1, 8);
  w.run_client([&] {
    hepnos::DataStore::WriteBatch batch(store);
    for (std::uint64_t e = 0; e < 512; ++e) {
      batch.store(hepnos::EventId{.dataset = "ds", .run = 0, .subrun = 0,
                                  .event = e},
                  "v");
    }
    batch.flush();
  });
  // Every database should have received a reasonable share.
  std::size_t nonempty = 0;
  for (std::uint32_t d = 0; d < 8; ++d) {
    if (srv.kv().db(d).size() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 8u);
}
