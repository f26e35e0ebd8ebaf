// Tests for the fast-path measurement pipeline: the flat-hash ProfileStore
// and its memo under rehash, chunked trace buffers (iteration order, chunk
// growth), and the CallpathKeyHash bucket distribution under power-of-two
// masking.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "symbiosys/analysis.hpp"
#include "symbiosys/chunked_buffer.hpp"
#include "symbiosys/records.hpp"

namespace prof = sym::prof;

namespace {

prof::CallpathKey make_key(std::uint64_t bc, prof::Side side,
                           std::uint32_t self_ep, std::uint32_t peer_ep) {
  return prof::CallpathKey{bc, side, self_ep, peer_ep};
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfileStore: flat hash + memo
// ---------------------------------------------------------------------------

// Interleave re-records of early keys with inserts of fresh keys so the
// table rehashes several times while the memo holds live pointers. Every
// count must still be exact — this guards the generation flush that keeps
// memo entries from dangling across a rehash.
TEST(ProfileStore, MemoStaysCoherentAcrossRehashes) {
  prof::ProfileStore store;
  constexpr std::uint32_t kKeys = 300;  // forces several doublings from 16
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    store.record(make_key(0x9000, prof::Side::kTarget, 100, k),
                 prof::Interval::kTargetExec, 1.0);
    // Re-touch an early key right after the insert that may have rehashed.
    store.record(make_key(0x9000, prof::Side::kTarget, 100, k / 2),
                 prof::Interval::kTargetExec, 1.0);
  }
  EXPECT_EQ(store.size(), kKeys);
  std::uint64_t total = 0;
  for (const auto& [key, stats] : store.entries()) {
    total += stats.at(prof::Interval::kTargetExec).count;
  }
  EXPECT_EQ(total, 2 * kKeys);
}

TEST(ProfileStore, RecordBatchEqualsSequentialRecords) {
  const auto key = make_key(0x77, prof::Side::kOrigin, 3, 9);
  prof::ProfileStore singles, batched;
  for (int r = 0; r < 100; ++r) {
    const double ns = static_cast<double>(10 + r);
    singles.record(key, prof::Interval::kOriginExec, ns);
    singles.record(key, prof::Interval::kInputSer, ns / 2);
    singles.record(key, prof::Interval::kOriginCallback, ns / 4);
    batched.record_batch(
        key, prof::IntervalSample{prof::Interval::kOriginExec, ns},
        prof::IntervalSample{prof::Interval::kInputSer, ns / 2},
        prof::IntervalSample{prof::Interval::kOriginCallback, ns / 4});
  }
  const auto* a = singles.entries().find(key);
  const auto* b = batched.entries().find(key);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (int i = 0; i < static_cast<int>(prof::Interval::kCount); ++i) {
    const auto iv = static_cast<prof::Interval>(i);
    EXPECT_EQ(a->at(iv).count, b->at(iv).count);
    EXPECT_EQ(a->at(iv).sum_ns, b->at(iv).sum_ns);
    EXPECT_EQ(a->at(iv).min_ns, b->at(iv).min_ns);
    EXPECT_EQ(a->at(iv).max_ns, b->at(iv).max_ns);
  }
}

TEST(ProfileStore, ClearDropsMemoAndEntries) {
  prof::ProfileStore store;
  const auto key = make_key(0x5, prof::Side::kOrigin, 1, 1);
  store.record(key, prof::Interval::kOriginExec, 3.0);
  store.clear();
  EXPECT_TRUE(store.empty());
  // A record after clear must re-insert, not write through a stale memo.
  store.record(key, prof::Interval::kOriginExec, 4.0);
  const auto* stats = store.entries().find(key);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->at(prof::Interval::kOriginExec).count, 1u);
  EXPECT_EQ(stats->at(prof::Interval::kOriginExec).sum_ns, 4.0);
}

namespace {

/// Ordered reference store: one std::map per ProfileStore.
using RefKey = std::tuple<prof::Breadcrumb, prof::Side, std::uint32_t,
                          std::uint32_t>;
using RefStore = std::map<RefKey, prof::CallpathStats>;

void ref_record(RefStore& ref, const prof::CallpathKey& k, prof::Interval iv,
                double ns) {
  ref[RefKey{k.breadcrumb, k.side, k.self_ep, k.peer_ep}].at(iv).add(ns);
}

void expect_matches_reference(const prof::ProfileStore& store,
                              const RefStore& ref) {
  ASSERT_EQ(store.size(), ref.size());
  for (const auto& [k, want] : ref) {
    const auto& [bc, side, self_ep, peer_ep] = k;
    const auto* got =
        store.entries().find(prof::CallpathKey{bc, side, self_ep, peer_ep});
    ASSERT_NE(got, nullptr);
    for (int i = 0; i < static_cast<int>(prof::Interval::kCount); ++i) {
      const auto iv = static_cast<prof::Interval>(i);
      EXPECT_EQ(got->at(iv).count, want.at(iv).count);
      EXPECT_EQ(got->at(iv).sum_ns, want.at(iv).sum_ns);
      EXPECT_EQ(got->at(iv).min_ns, want.at(iv).min_ns);
      EXPECT_EQ(got->at(iv).max_ns, want.at(iv).max_ns);
    }
  }
}

}  // namespace

// The record stream a deployment produces: 16 client instances, each with
// its own store, interleaving op by op against one provider store. Per op
// the origin completion records four intervals, the target completion five
// and the response's on_sent callback one more: ten records per op. The
// flat store, driven through the batched calls the runtime makes, must
// hold exactly what an ordered map fed record by record holds.
TEST(ProfileStore, RecordStreamMatchesMapReference) {
  using S = prof::IntervalSample;
  using Iv = prof::Interval;
  constexpr std::uint32_t kClients = 16;
  constexpr std::size_t kOps = 20'000;
  const auto bc = prof::extend(0x1111, 0x55AA);
  std::vector<prof::ProfileStore> clients(kClients);
  prof::ProfileStore server;
  std::vector<RefStore> ref_clients(kClients);
  RefStore ref_server;
  std::uint32_t c = 0;
  for (std::size_t r = 0; r < kOps; ++r) {
    const double ns = static_cast<double>(1 + (r & 0xFF));
    const prof::CallpathKey ok{bc, prof::Side::kOrigin, c, 100};
    const prof::CallpathKey tk{bc, prof::Side::kTarget, 100, c};
    clients[c].record_batch(ok, S{Iv::kOriginExec, ns}, S{Iv::kInputSer, ns},
                            S{Iv::kOriginCallback, ns},
                            S{Iv::kOutputDeser, ns});
    server.record_batch(tk, S{Iv::kHandlerWait, ns}, S{Iv::kTargetExec, ns},
                        S{Iv::kInputDeser, ns}, S{Iv::kOutputSer, ns},
                        S{Iv::kInternalRdma, ns});
    server.record(tk, Iv::kTargetCallback, ns);
    for (const auto iv : {Iv::kOriginExec, Iv::kInputSer, Iv::kOriginCallback,
                          Iv::kOutputDeser}) {
      ref_record(ref_clients[c], ok, iv, ns);
    }
    for (const auto iv : {Iv::kHandlerWait, Iv::kTargetExec, Iv::kInputDeser,
                          Iv::kOutputSer, Iv::kInternalRdma,
                          Iv::kTargetCallback}) {
      ref_record(ref_server, tk, iv, ns);
    }
    if (++c == kClients) c = 0;
  }
  for (std::uint32_t i = 0; i < kClients; ++i) {
    expect_matches_reference(clients[i], ref_clients[i]);
  }
  expect_matches_reference(server, ref_server);
}

// ---------------------------------------------------------------------------
// Chunked trace buffers
// ---------------------------------------------------------------------------

// Append across several chunk boundaries; iteration and operator[] must
// walk oldest to newest with no seam at the boundaries.
TEST(ChunkedBuffer, IterationOrderStableAcrossChunks) {
  prof::TraceStore store;
  constexpr std::size_t kEvents = 2500;  // chunk capacity is 1024
  for (std::size_t i = 0; i < kEvents; ++i) {
    prof::TraceEvent ev;
    ev.request_id = i;
    store.append(ev);
  }
  ASSERT_EQ(store.size(), kEvents);
  EXPECT_GE(store.events().chunk_count(), 3u);
  std::size_t expect = 0;
  for (const auto& ev : store.events()) {
    ASSERT_EQ(ev.request_id, expect);
    ++expect;
  }
  EXPECT_EQ(expect, kEvents);
  EXPECT_EQ(store.events()[0].request_id, 0u);
  EXPECT_EQ(store.events()[kEvents - 1].request_id, kEvents - 1);
}

TEST(ChunkedBuffer, GrowsOneChunkAtATime) {
  prof::ChunkedBuffer<int, 4> buf;
  for (int i = 0; i < 64; ++i) buf.push_back(i);
  EXPECT_EQ(buf.size(), 64u);
  EXPECT_EQ(buf.chunk_count(), 16u);
}

// ---------------------------------------------------------------------------
// CallpathKeyHash distribution
// ---------------------------------------------------------------------------

// The flat table masks the hash with (power-of-two - 1), so the *low* bits
// must spread keys that differ only in adjacent endpoint ids — exactly the
// key population a provider sees (one breadcrumb, a dense client grid).
// The old hash packed endpoints into overlapping shifted bit ranges and
// clustered badly under this test.
TEST(CallpathKeyHash, AdjacentEndpointGridSpreadsUnderMasking) {
  prof::CallpathKeyHash hash;
  std::vector<prof::CallpathKey> keys;
  for (std::uint64_t bc : {0x11115AA5ULL, 0x22221234ULL}) {
    for (auto side : {prof::Side::kOrigin, prof::Side::kTarget}) {
      for (std::uint32_t self_ep = 0; self_ep < 32; ++self_ep) {
        for (std::uint32_t peer_ep = 0; peer_ep < 32; ++peer_ep) {
          keys.push_back(make_key(bc, side, self_ep, peer_ep));
        }
      }
    }
  }
  const std::size_t n = keys.size();  // 4096 keys
  const std::size_t buckets = 2 * n;  // load factor 0.5, power of two
  std::vector<std::uint32_t> load(buckets, 0);
  for (const auto& k : keys) ++load[hash(k) & (buckets - 1)];

  // Sum of C(load, 2) pairs sharing a bucket; uniform hashing expects about
  // n^2 / (2 * buckets) = n / 4. Allow 2x before calling it clustered.
  std::size_t pair_collisions = 0;
  std::uint32_t max_load = 0;
  for (const auto l : load) {
    pair_collisions += static_cast<std::size_t>(l) * (l - (l > 0 ? 1 : 0)) / 2;
    max_load = std::max(max_load, l);
  }
  EXPECT_LT(pair_collisions, n / 2) << "hash clusters under masking";
  // A uniform throw of n balls into 2n bins essentially never stacks 8.
  EXPECT_LE(max_load, 7u);
}

// ---------------------------------------------------------------------------
// D2 regression: report emission must not depend on hash layout
// ---------------------------------------------------------------------------

// The same measurement multiset ingested into two stores whose hash tables
// end up with different layouts (key first-touch order reversed). Before
// the consolidation paths switched to sorted-key emission (symlint rule D2)
// the report's callpath and per-endpoint ordering followed the unordered
// map layout; now the output must be byte-for-byte identical. Durations
// are integer-valued so double addition is exact in any order — anything
// that differs is ordering, which is exactly the regression under test.
TEST(ProfileSummaryDeterminism, ReportIsHashLayoutInvariant) {
  std::vector<prof::CallpathKey> keys;
  for (std::uint64_t bc : {0x10ABCULL, 0x25AA5ULL, 0x31234ULL, 0x4FEEDULL}) {
    for (std::uint32_t ep = 0; ep < 6; ++ep) {
      keys.push_back(make_key(bc, prof::Side::kOrigin, ep, 100 + ep));
      keys.push_back(make_key(bc, prof::Side::kTarget, 100 + ep, ep));
    }
  }

  // First touch in opposite orders: different insertion (and rehash)
  // history, hence different open-addressing layouts.
  prof::ProfileStore fwd;
  prof::ProfileStore rev;
  for (const auto& k : keys) fwd.record(k, prof::Interval::kOriginExec, 0.0);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    rev.record(*it, prof::Interval::kOriginExec, 0.0);
  }

  // The samples proper, identical per-key order for both stores.
  double salt = 1.0;
  for (const auto& k : keys) {
    const double ns = 1000.0 + 16.0 * salt;
    salt += 1.0;
    for (prof::ProfileStore* s : {&fwd, &rev}) {
      s->record(k, prof::Interval::kOriginExec, ns);
      s->record(k, prof::Interval::kInputSer, ns / 2.0);
      s->record(k, prof::Interval::kTargetExec, ns / 4.0);
    }
  }

  const auto a = prof::ProfileSummary::build({&fwd});
  const auto b = prof::ProfileSummary::build({&rev});

  EXPECT_EQ(a.format(64), b.format(64));  // byte-for-byte
  EXPECT_EQ(a.total_ns, b.total_ns);
  ASSERT_EQ(a.callpaths.size(), b.callpaths.size());
  for (std::size_t i = 0; i < a.callpaths.size(); ++i) {
    EXPECT_EQ(a.callpaths[i].breadcrumb, b.callpaths[i].breadcrumb) << i;
    EXPECT_EQ(a.callpaths[i].per_origin_ns, b.callpaths[i].per_origin_ns)
        << i;
    EXPECT_EQ(a.callpaths[i].per_target_ns, b.callpaths[i].per_target_ns)
        << i;
  }
}
