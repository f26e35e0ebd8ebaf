// micro_benchmarks: google-benchmark measurements of the infrastructure
// primitives underlying the simulator and the SYMBIOSYS instrumentation.
// These quantify the *host-side* cost of the building blocks (fiber
// switches, event dispatch, breadcrumb hashing, PVAR sampling, proc
// serialization, JSON parsing, jx9 filters) and serve as ablation data for
// the design choices called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "argolite/runtime.hpp"
#include "bench/common.hpp"
#include "margolite/instance.hpp"
#include "merclite/core.hpp"
#include "merclite/proc.hpp"
#include "services/sdskv/sdskv.hpp"
#include "services/sonata/json.hpp"
#include "services/sonata/jx9lite.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"
#include "simkit/fiber.hpp"
#include "simkit/rng.hpp"
#include "sofi/fabric.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/breadcrumb.hpp"
#include "symbiosys/records.hpp"
#include "symbiosys/zipkin.hpp"

namespace sim = sym::sim;
namespace hg = sym::hg;
namespace prof = sym::prof;
namespace ofi = sym::ofi;
namespace margo = sym::margo;
namespace sdskv = sym::sdskv;

// ---------------------------------------------------------------------------
// simkit primitives
// ---------------------------------------------------------------------------

static void BM_EngineScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.at(static_cast<sim::TimeNs>(i), [] {});
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleAndRun);

static void BM_FiberSwitchPair(benchmark::State& state) {
  sim::Fiber fiber([] {
    while (true) sim::Fiber::switch_out();
  });
  for (auto _ : state) {
    fiber.switch_in();  // in + out = one round trip
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSwitchPair);

// Host cost of one abt::compute on a ULT. Arg(0): an otherwise idle lane,
// so each compute is the lane's next event and continues in place (no
// resume event, no fiber switch). Arg(1): a competing tick falls inside
// every compute and forces the scheduled path (heap push/pop, SmallFn,
// fiber switch pair); its own empty event is included in the time, and
// so is one engine/runtime/ULT setup per kComputes computes.
static void BM_ComputeChain(benchmark::State& state) {
  namespace abt = sym::abt;
  constexpr int kComputes = 1000;
  constexpr sim::DurationNs kStep = 1000;
  const bool competing = state.range(0) != 0;
  std::uint64_t continued = 0;
  for (auto _ : state) {
    sim::Engine eng;
    sim::Cluster cluster(eng, sim::ClusterParams{});
    abt::Runtime rt(eng, cluster.spawn_process(0, "bench"));
    abt::Pool& pool = rt.create_pool("p");
    rt.create_xstream({&pool});
    rt.create_ult(pool, [] {
      for (int i = 0; i < kComputes; ++i) abt::compute(kStep);
    });
    if (competing) {
      // The ULT starts one dispatch overhead in; tick half-way through
      // each of its computes.
      struct Tick {
        sim::Engine& eng;
        int left;
        void operator()() {
          if (--left > 0) eng.after(kStep, Tick{eng, left});
        }
      };
      eng.at(abt::kDispatchOverheadNs + kStep / 2, Tick{eng, kComputes});
    }
    eng.run();
    continued = eng.events_continued();
    benchmark::DoNotOptimize(continued);
  }
  state.SetItemsProcessed(state.iterations() * kComputes);
  state.counters["continued_per_compute"] =
      static_cast<double>(continued) / kComputes;
}
BENCHMARK(BM_ComputeChain)->Arg(0)->Arg(1);

// Host cost of waking a pool: push one ULT into a pool that Arg(k) idle
// ESs share and run the engine until the ULT has finished. The push wakes
// every idle ES; each wake is one dispatch step (k - 1 of them find the
// pool empty), all of them from a single heap entry.
static void BM_PoolWake(benchmark::State& state) {
  namespace abt = sym::abt;
  const auto k = static_cast<int>(state.range(0));
  sim::Engine eng;
  sim::Cluster cluster(eng, sim::ClusterParams{});
  abt::Runtime rt(eng, cluster.spawn_process(0, "bench"));
  abt::Pool& pool = rt.create_pool("p");
  for (int i = 0; i < k; ++i) rt.create_xstream({&pool});
  for (auto _ : state) {
    rt.create_ult(pool, [] {});
    eng.run();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_wake"] =
      static_cast<double>(eng.events_processed()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PoolWake)->Arg(1)->Arg(8)->Arg(30);

// Host cost of one handler ULT's life: spawn, dispatch, run and finish of
// an empty ULT whose closure is the size of margolite's handler closure
// (instance pointer, handle, handler reference, t4), on one ES. The stack
// comes from the per-thread pool, so what remains is the ULT itself.
static void BM_UltSpawn(benchmark::State& state) {
  namespace abt = sym::abt;
  sim::Engine eng;
  sim::Cluster cluster(eng, sim::ClusterParams{});
  abt::Runtime rt(eng, cluster.spawn_process(0, "bench"));
  abt::Pool& pool = rt.create_pool("handlers");
  rt.create_xstream({&pool});
  auto handle = std::make_shared<int>(0);
  for (auto _ : state) {
    rt.create_ult(pool, [&rt, h = handle, &pool, t4 = eng.now()] {
      benchmark::DoNotOptimize(h.get());
      benchmark::DoNotOptimize(t4);
      benchmark::DoNotOptimize(&rt);
      benchmark::DoNotOptimize(&pool);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UltSpawn);

// The Lane event heap's sift primitives (simkit/dheap.hpp): push/pop a
// fixed pseudo-random schedule. The workload mirrors the Lane event heap —
// a mixed stream where every pop is chased by a push, keeping the heap near
// its steady-state size rather than draining it.
static void BM_DHeapPushPop(benchmark::State& state) {
  const auto keep = static_cast<std::size_t>(state.range(0));
  const auto before = [](std::uint64_t a, std::uint64_t b) { return a < b; };
  sim::Rng seed_rng(11);
  std::vector<std::uint64_t> draws(keep * 4);
  for (auto& d : draws) d = seed_rng.next();
  std::vector<std::uint64_t> heap;
  heap.reserve(keep + 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    heap.clear();
    std::size_t i = 0;
    for (; i < keep; ++i) sim::dheap_push(heap, draws[i], before);
    for (; i < draws.size(); ++i) {
      sink ^= sim::dheap_pop(heap, before);
      sim::dheap_push(heap, draws[i], before);
    }
    while (!heap.empty()) sink ^= sim::dheap_pop(heap, before);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(draws.size()));
}
BENCHMARK(BM_DHeapPushPop)->Arg(256)->Arg(4096);

static void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.next();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngNext);

// Windowed execution with a ring of cross-lane posts: every lane keeps one
// chain hopping to its neighbor, so each window has exactly `lanes` live
// (dst, src) mailbox pairs out of lanes^2 possible. Items processed counts
// the pairs the sparse merge actually visited — the dense sweep this
// replaced would have visited lanes^2 per window regardless.
static void BM_WindowMerge(benchmark::State& state) {
  const auto lanes = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t pairs = 0;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.lane_count = lanes;
    cfg.worker_count = 1;
    sim::Engine eng(7, cfg);
    eng.set_lookahead(sim::usec(2));
    struct Chain {
      sim::Engine* eng;
      std::uint32_t lanes;
      void hop(std::uint32_t lane, int remaining) {
        if (remaining == 0) return;
        const std::uint32_t next = (lane + 1) % lanes;
        eng->after_on(next, eng->lookahead(),
                      [this, next, remaining] { hop(next, remaining - 1); });
      }
    };
    Chain chain{&eng, lanes};
    for (std::uint32_t l = 0; l < lanes; ++l) {
      eng.at_on(l, 1, [&chain, l] { chain.hop(l, 32); });
    }
    eng.run();
    pairs += eng.merge_pairs_visited();
    windows += eng.windows_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
  state.counters["pairs_per_window"] =
      windows == 0 ? 0.0
                   : static_cast<double>(pairs) / static_cast<double>(windows);
}
BENCHMARK(BM_WindowMerge)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------------
// SYMBIOSYS instrumentation primitives
// ---------------------------------------------------------------------------

static void BM_BreadcrumbHashAndExtend(benchmark::State& state) {
  prof::Breadcrumb bc = 0;
  for (auto _ : state) {
    bc = prof::extend(bc, prof::hash16("sdskv_put_packed_rpc"));
    benchmark::DoNotOptimize(bc);
  }
}
BENCHMARK(BM_BreadcrumbHashAndExtend);

static void BM_ProfileStoreRecordSameKey(benchmark::State& state) {
  // The memo fast path: a handler recording intervals back to back on one
  // callpath key (the dominant pattern on the measurement hot path).
  prof::ProfileStore store;
  const prof::CallpathKey key{prof::extend(0x1111, 0x55AA),
                              prof::Side::kTarget, 100, 3};
  double ns = 1;
  for (auto _ : state) {
    store.record(key, prof::Interval::kTargetExec, ns);
    ns += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileStoreRecordSameKey);

static void BM_ProfileStoreRecordWorkingSet(benchmark::State& state) {
  // Cycling over a working set of callpath keys: every record misses the
  // memo and exercises the open-addressing probe.
  prof::ProfileStore store;
  std::vector<prof::CallpathKey> keys;
  for (std::uint32_t c = 0; c < 64; ++c) {
    keys.push_back({prof::extend(0x1111, 0x55AA), prof::Side::kOrigin, c, 100});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    store.record(keys[i % keys.size()], prof::Interval::kOriginExec, 5.0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileStoreRecordWorkingSet);

static void BM_TraceStoreAppend(benchmark::State& state) {
  // Chunked-arena append: constant-time, never a full-buffer reallocation.
  prof::TraceStore store;
  prof::TraceEvent ev;
  ev.request_id = 7;
  ev.breadcrumb = 0x1234;
  for (auto _ : state) {
    ev.local_ts += 10;
    store.append(ev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceStoreAppend);

static void BM_PvarSessionRead(benchmark::State& state) {
  sim::Engine eng;
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  ofi::Fabric fabric{cluster};
  auto& proc = cluster.spawn_process(0, "bench");
  hg::Class cls(fabric, proc);
  auto session = cls.pvar_session_init();
  const auto h = session.alloc("completion_queue_size");
  double sink = 0;
  for (auto _ : state) {
    sink += session.read(h);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_PvarSessionRead);

static void BM_TraceSummaryBuild(benchmark::State& state) {
  // Trace stitching over two skewed stores: the origin process (ep 1)
  // records t1/t14 and the target (ep 2, clock 250 us ahead) records
  // t5/t8. Each request is one root span plus three nested child spans, so
  // the skew estimate, the per-request assembly and the parent resolution
  // all run over the whole span count.
  const auto root = prof::hash16("bench_root_rpc");
  const auto child = prof::extend(root, prof::hash16("bench_child_rpc"));
  constexpr sim::TimeNs kSkew = 250'000;
  prof::TraceStore origin;
  prof::TraceStore target;
  const auto n_spans = static_cast<std::uint64_t>(state.range(0));
  sim::Rng rng(7);
  auto emit = [&](std::uint64_t rid, prof::Breadcrumb bc, std::uint32_t order,
                  sim::TimeNs t1, sim::TimeNs t14) {
    const sim::TimeNs fwd = 1'000 + rng.uniform(500);
    const sim::TimeNs bwd = 1'000 + rng.uniform(500);
    const auto span = prof::make_action_span(rid, bc, 1, t1, t14, 4 * order);
    for (std::uint32_t k = 0; k < 4; ++k) {
      prof::TraceEvent ev = span[k];
      ev.order = order + k;
      ev.peer_ep = 2;
      if (k == 1 || k == 2) {
        ev.self_ep = 2;
        ev.peer_ep = 1;
        ev.local_ts = (k == 1 ? t1 + fwd : t14 - bwd) + kSkew;
      }
      (k == 1 || k == 2 ? target : origin).append(ev);
    }
  };
  for (std::uint64_t i = 0; i < n_spans / 4; ++i) {
    const sim::TimeNs t0 = 1'000'000 + 20'000 * i;
    emit(i + 1, root, 0, t0, t0 + 18'000);
    for (std::uint32_t c = 0; c < 3; ++c) {
      const sim::TimeNs t1 = t0 + 1'000 + 5'000 * c;
      emit(i + 1, child, 4 * (c + 1), t1, t1 + 4'800);
    }
  }
  const std::uint64_t faults0 = bench::minor_faults();
  for (auto _ : state) {
    auto summary = prof::TraceSummary::build({&origin, &target});
    benchmark::DoNotOptimize(summary);
  }
  // Faults per build: glibc trims and re-grows the heap around each one,
  // and this tells that cost apart from the stitching.
  state.counters["minor_faults"] = benchmark::Counter(
      static_cast<double>(bench::minor_faults() - faults0),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_spans));
}
BENCHMARK(BM_TraceSummaryBuild)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

static void BM_ZipkinExport(benchmark::State& state) {
  // Incremental export path: parent links come precomputed from
  // TraceSummary::build, leaf names are resolved once per call and the
  // output string is reserved once, so each span is a handful of direct
  // appends into that string — no heap churn.
  prof::NameRegistry::global().register_name("bench_rpc");
  const auto bc = prof::hash16("bench_rpc");
  prof::TraceStore store;
  const auto n_spans = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n_spans; ++i) {
    const auto span = prof::make_action_span(
        /*request_id=*/i + 1, bc, /*self_ep=*/3, /*start_ts=*/1000 * (i + 1),
        /*end_ts=*/1000 * (i + 1) + 500, /*lamport_base=*/4 * i);
    for (const auto& ev : span) store.append(ev);
  }
  const auto summary = prof::TraceSummary::build({&store});
  for (auto _ : state) {
    auto json = prof::to_zipkin_json(summary);
    // If the up-front reserve had under-estimated, the append loop would
    // have reallocated; output fitting inside the reserve proves it didn't.
    if (json.size() > 8 + summary.total_spans * 512) {
      state.SkipWithError("zipkin export outgrew its reserve (heap churn)");
      break;
    }
    benchmark::DoNotOptimize(json);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(summary.total_spans));
}
BENCHMARK(BM_ZipkinExport)->Arg(64)->Arg(1024);

// ---------------------------------------------------------------------------
// Wire serialization
// ---------------------------------------------------------------------------

static void BM_ProcEncodeKvBatch(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 64; ++i) {
    kvs.emplace_back("key-" + std::to_string(i), std::string(512, 'v'));
  }
  for (auto _ : state) {
    auto buf = hg::encode(kvs);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          520);
}
BENCHMARK(BM_ProcEncodeKvBatch);

static void BM_ProcDecodeKvBatch(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 64; ++i) {
    kvs.emplace_back("key-" + std::to_string(i), std::string(512, 'v'));
  }
  const auto buf = hg::encode(kvs);
  for (auto _ : state) {
    auto out = hg::decode<decltype(kvs)>(buf);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ProcDecodeKvBatch);

static void BM_RpcHeaderRoundTrip(benchmark::State& state) {
  hg::RpcHeader h;
  h.rpc_id = 0x1234;
  h.breadcrumb = 0xAABBCCDD;
  for (auto _ : state) {
    hg::BufWriter w;
    hg::put(w, h);
    hg::BufReader r(w.buffer());
    hg::RpcHeader out;
    hg::get(r, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RpcHeaderRoundTrip);

// Full eager-path request/response round trip driven without margolite,
// measuring the host-side ns/send of the RPC layer. Payloads are written
// through a BufWriter, as services do, so both messages go on the wire in
// their own buffers (frames_in_place counts them) and each receiver adopts
// the buffer it was sent.
static void BM_MercliteEagerSend(benchmark::State& state) {
  sim::Engine eng;
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  ofi::Fabric fabric{cluster};
  auto& cproc = cluster.spawn_process(0, "bench-origin");
  auto& sproc = cluster.spawn_process(0, "bench-target");
  hg::Class client(fabric, cproc);
  hg::Class server(fabric, sproc);
  const auto payload = [](std::size_t n) {
    hg::BufWriter w;
    w.write_zeros(n);
    return w.take();
  };
  server.register_rpc("bench_echo", [&server, &payload](hg::HandlePtr h) {
    server.respond(h, payload(256), nullptr);
  });
  const auto rpc = client.register_rpc("bench_echo", nullptr);
  std::uint64_t completed = 0;
  for (auto _ : state) {
    auto h = client.create_handle(server.addr(), rpc, 0);
    client.forward(h, payload(1024),
                   [&completed](const hg::HandlePtr&) { ++completed; });
    eng.run();          // deliver the request
    server.progress();  // arrival callback -> respond()
    eng.run();          // deliver the response
    client.progress();
    client.trigger();
  }
  if (completed != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("rpc round trips did not complete");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["frames_in_place"] = static_cast<double>(
      client.frames_in_place() + server.frames_in_place());
}
BENCHMARK(BM_MercliteEagerSend);

// One 512-entry sdskv_list_keyvals round trip through margolite/merclite on
// one lane — the dominant call of Mobject's read path. The provider writes
// the pairs straight from its map into the response and the client walks
// them in place. The benchmark loop runs inside the client ULT, so each
// iteration is a full simulated RPC; instrumentation is off to time the
// message path alone.
static void BM_SdskvListKeyvals(benchmark::State& state) {
  sim::Engine eng;
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  ofi::Fabric fabric{cluster};
  auto& sproc = cluster.spawn_process(0, "bench-kv");
  auto& cproc = cluster.spawn_process(0, "bench-client");
  margo::Instance server(
      fabric, sproc,
      margo::InstanceConfig{.server = true, .instr = prof::Level::kOff});
  margo::Instance client(fabric, cproc,
                         margo::InstanceConfig{.instr = prof::Level::kOff});
  sdskv::Provider provider(server, 1, sdskv::ProviderConfig{});
  sdskv::Client kv(client);
  std::size_t pairs = 0;
  server.start();
  client.start();
  client.spawn([&] {
    for (int i = 0; i < 512; ++i) {
      kv.put(server.addr(), 1, 0,
             "extent/ior-obj-" + std::to_string(i) + "/0000000000000001",
             std::to_string(1000 + i));
    }
    for (auto _ : state) {
      const auto list = kv.list_keyvals(server.addr(), 1, 0, "extent/", 512);
      for (const auto& kvp : list) {
        benchmark::DoNotOptimize(kvp);
        ++pairs;
      }
    }
    client.finalize();
    server.finalize();
  });
  eng.run();
  if (pairs != 512 * static_cast<std::size_t>(state.iterations())) {
    state.SkipWithError("scan did not return 512 pairs");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SdskvListKeyvals);

// HEPnOS-shaped put_packed batches through margolite/merclite on one lane:
// 256 pairs per batch, 39-byte event keys from 56 interleaved loaders and
// 512-byte values, into one provider's 128 map databases in turn. Four
// batches per database (131,072 pairs, about 70 MiB stored) put about as
// many pairs in each database as the HEPnOS ingest does; the count is fixed
// so the store's size, and so the cost per pair, does not depend on the
// timing. Instrumentation is off to time the message path and the inserts.
static void BM_SdskvPutPacked(benchmark::State& state) {
  constexpr std::uint32_t kDbs = 128;
  constexpr int kBatch = 256;
  constexpr unsigned kLoaders = 56;
  sim::Engine eng;
  sim::Cluster cluster(eng, sim::ClusterParams{.node_count = 1});
  ofi::Fabric fabric{cluster};
  auto& sproc = cluster.spawn_process(0, "bench-kv");
  auto& cproc = cluster.spawn_process(0, "bench-client");
  margo::Instance server(
      fabric, sproc,
      margo::InstanceConfig{.server = true, .instr = prof::Level::kOff});
  margo::Instance client(fabric, cproc,
                         margo::InstanceConfig{.instr = prof::Level::kOff});
  sdskv::Provider provider(server, 1, sdskv::ProviderConfig{.db_count = kDbs});
  sdskv::Client kv(client);
  std::uint64_t event = 0;
  bool ok = true;
  server.start();
  client.start();
  client.spawn([&] {
    std::uint32_t db = 0;
    const std::uint64_t faults0 = bench::minor_faults();
    for (auto _ : state) {
      std::vector<sdskv::KeyValue> batch;
      batch.reserve(kBatch);
      for (int i = 0; i < kBatch; ++i, ++event) {
        char key[48];
        std::snprintf(key, sizeof key, "ds00%%%08x%%%08x%%%016llx",
                      static_cast<unsigned>(event % kLoaders), 0u,
                      static_cast<unsigned long long>(event / kLoaders));
        batch.emplace_back(key, std::string(512, 'e'));
      }
      ok &= kv.put_packed(server.addr(), 1, db, std::move(batch)) ==
            sdskv::Status::kOk;
      db = (db + 1) % kDbs;
    }
    // Faults per batch: the encoded batch meets glibc's mmap threshold, so
    // each one may cost fresh pages as well as the store's inserts.
    state.counters["minor_faults"] = benchmark::Counter(
        static_cast<double>(bench::minor_faults() - faults0),
        benchmark::Counter::kAvgIterations);
    client.finalize();
    server.finalize();
  });
  eng.run();
  if (!ok || provider.total_size() != event) {
    state.SkipWithError("put_packed did not store every pair");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(event));
}
BENCHMARK(BM_SdskvPutPacked)
    ->Iterations(4 * 128)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sonata JSON / jx9lite
// ---------------------------------------------------------------------------

namespace {

std::string make_record_array(int n) {
  std::string arr = "[";
  for (int i = 0; i < n; ++i) {
    if (i != 0) arr += ",";
    arr += R"({"id": )" + std::to_string(i) +
           R"(, "pt": 12.5, "detector": "EMCAL", "vertex": {"z": 3.14}})";
  }
  arr += "]";
  return arr;
}

}  // namespace

static void BM_JsonParseRecordArray(benchmark::State& state) {
  const auto text = make_record_array(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto v = sym::json::parse(text);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParseRecordArray)->Arg(10)->Arg(100)->Arg(1000);

static void BM_JsonDump(benchmark::State& state) {
  const auto v = sym::json::parse(make_record_array(100));
  for (auto _ : state) {
    auto text = sym::json::dump(v);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_JsonDump);

static void BM_Jx9FilterEval(benchmark::State& state) {
  const auto filter = sym::jx9::Filter::compile(
      "$pt > 10 && $detector == \"EMCAL\" && exists($vertex.z)");
  const auto rec = sym::json::parse(
      R"({"pt": 12.5, "detector": "EMCAL", "vertex": {"z": 3.14}})");
  bool sink = false;
  for (auto _ : state) {
    sink ^= filter.matches(rec);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Jx9FilterEval);

BENCHMARK_MAIN();
