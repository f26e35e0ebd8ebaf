// Allocation budget of a client request. This binary replaces the global
// operator new with a counting one, runs a small HEPnOS and a small Mobject
// deployment and checks the operator new calls made during run() per
// client-issued RPC against a fixed bound. The bounds are the counts of the
// current code plus a small margin, so an RPC path that starts allocating
// again fails here before it shows as lost throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>

#include "services/sdskv/backend.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/mobject_world.hpp"
#include "workloads/table4.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

namespace wl = sym::workloads;

struct Count {
  std::uint64_t news = 0;
  std::uint64_t requests = 0;
  [[nodiscard]] double per_request() const {
    return static_cast<double>(news) / static_cast<double>(requests);
  }
};

template <typename World>
Count count_run(World& world) {
  std::uint64_t before_rpcs = 0;
  for (std::size_t i = 0; i < world.client_count(); ++i) {
    before_rpcs += world.client_instance(i).hg_class().num_rpcs_invoked();
  }
  const std::uint64_t before = g_news.load();
  world.run();
  Count c;
  c.news = g_news.load() - before;
  for (std::size_t i = 0; i < world.client_count(); ++i) {
    c.requests += world.client_instance(i).hg_class().num_rpcs_invoked();
  }
  c.requests -= before_rpcs;
  return c;
}

}  // namespace

// The hepnos_ingest deployment of the repo benchmark (56 loaders, 8
// providers, 128 databases, batch 256, 512-byte events) with 512 events
// per loader instead of 2048: about 2.25 events per put_packed.
TEST(AllocBudget, HepnosRequest) {
  auto cfg = wl::overhead_study_config();
  cfg.total_clients = 56;
  cfg.total_servers = 8;
  cfg.databases = 8 * 16;
  cfg.batch_size = 256;
  wl::HepnosWorld::Params p;
  p.config = cfg;
  p.file_model.events_per_file = 512;
  p.file_model.payload_bytes = 512;
  p.file_model.read_latency = sym::sim::msec(1);
  p.files_per_client = 1;
  p.seed = 1;
  wl::HepnosWorld world(p);
  const Count c = count_run(world);
  ASSERT_EQ(world.events_stored(), 56u * 512u);
  ASSERT_GT(c.requests, 10000u);
  std::printf("hepnos: %llu operator new over %llu requests = %.2f each\n",
              static_cast<unsigned long long>(c.news),
              static_cast<unsigned long long>(c.requests), c.per_request());
  // Measured 14.91; 15.36 while fiber stacks came from operator new and
  // batches grew to exact size, 30.42 before the op table and the encoded
  // batches.
  EXPECT_LE(c.per_request(), 16.0);
}

// The mobject_rw deployment (16 ior clients, 64 KiB objects, half reads)
// with 64 operations per client, one client RPC each.
TEST(AllocBudget, MobjectRequest) {
  wl::MobjectWorld::Params p;
  p.ior.clients = 16;
  p.ior.ops_per_client = 64;
  p.ior.object_bytes = 64 * 1024;
  p.ior.read_fraction = 0.5;
  p.seed = 1;
  wl::MobjectWorld world(p);
  const Count c = count_run(world);
  ASSERT_EQ(c.requests, 16u * 64u);
  std::printf("mobject: %llu operator new over %llu requests = %.2f each\n",
              static_cast<unsigned long long>(c.news),
              static_cast<unsigned long long>(c.requests), c.per_request());
  // Measured 116.88 (197.04 before the op table).
  EXPECT_LE(c.per_request(), 120.0);
}

// REMI appends whole migration chunks to one list, so appends must grow
// its buffer geometrically: about log2(4096) allocations, not one per pair.
TEST(AllocBudget, KeyValueListAppendGrowsGeometrically) {
  sym::sdskv::KeyValueList list;
  const std::string value(64, 'v');
  char tail[16];
  const std::uint64_t before = g_news.load();
  for (unsigned i = 0; i < 4096; ++i) {
    const int n = std::snprintf(tail, sizeof tail, "%08x", i);
    list.append("event%", std::string_view(tail, static_cast<std::size_t>(n)),
                value);
  }
  const std::uint64_t news = g_news.load() - before;
  ASSERT_EQ(list.size(), 4096u);
  std::printf("key-value list: %llu operator new over 4096 appends\n",
              static_cast<unsigned long long>(news));
  EXPECT_LE(news, 16u);
}
