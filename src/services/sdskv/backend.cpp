#include "services/sdskv/backend.hpp"

#include <cmath>
#include <utility>

#include "argolite/runtime.hpp"

namespace sym::sdskv {
namespace {

// Cost model (virtual CPU time). Values are representative of in-memory
// KV engines on a KNL-class core.
constexpr sim::DurationNs kMapPutBase = sim::nsec(150);
constexpr double kMapPutPerByte = 0.05;
constexpr sim::DurationNs kMapGetBase = sim::nsec(1200);
constexpr sim::DurationNs kListBase = sim::nsec(2500);
constexpr sim::DurationNs kListPerItem = sim::nsec(2000);
constexpr sim::DurationNs kWalAppendBase = sim::nsec(700);
constexpr double kWalPerByte = 0.2;
constexpr sim::DurationNs kMemtableInsert = sim::nsec(900);
constexpr sim::DurationNs kFlushCost = sim::usec(400);
constexpr sim::DurationNs kBtreeBase = sim::nsec(1500);
constexpr double kBtreePerByte = 0.4;
constexpr sim::DurationNs kPageSplitCost = sim::usec(25);
constexpr std::uint64_t kSplitEvery = 128;

}  // namespace

const char* to_string(BackendType t) noexcept {
  switch (t) {
    case BackendType::kMap: return "map";
    case BackendType::kLevelDb: return "leveldb";
    case BackendType::kBerkeleyDb: return "berkeleydb";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

void Backend::put_multi(std::vector<KeyValue> kvs) {
  for (const auto& [k, v] : kvs) put(k, v);
}

bool Backend::get(const std::string& key, std::string* value) {
  abt::compute(costs_.get);
  return store_.get(key, value);
}

std::size_t Backend::list_keyvals(const std::string& start_key,
                                  std::size_t max, hg::BufWriter& out) {
  const std::size_t n = store_.scan(start_key, max, out);
  abt::compute(costs_.scan_base + kListPerItem * n);
  return n;
}

bool Backend::erase(const std::string& key) {
  abt::LockGuard g(lock_);
  abt::compute(costs_.erase);
  const auto bytes = store_.erase(key);
  if (!bytes) return false;
  stored_bytes_ -= *bytes;
  process_.add_rss(-static_cast<std::int64_t>(*bytes));
  return true;
}

void Backend::insert(const std::string& key, const std::string& value) {
  if (!store_.put(key, value)) return;
  const auto bytes = key.size() + value.size();
  stored_bytes_ += bytes;
  process_.add_rss(static_cast<std::int64_t>(bytes));
}

// ---------------------------------------------------------------------------
// MapBackend
// ---------------------------------------------------------------------------

MapBackend::MapBackend(sim::Process& process)
    : Backend(process, {.get = kMapGetBase,
                        .scan_base = kListBase,
                        .erase = kMapGetBase}) {}

void MapBackend::put_locked(const std::string& key, const std::string& value) {
  const auto bytes = key.size() + value.size();
  abt::compute(kMapPutBase + static_cast<sim::DurationNs>(
                                 std::llround(bytes * kMapPutPerByte)));
  insert(key, value);
}

void MapBackend::put(const std::string& key, const std::string& value) {
  abt::LockGuard g(lock_);
  put_locked(key, value);
}

void MapBackend::put_multi(std::vector<KeyValue> kvs) {
  // The whole batch inserts under one lock acquisition — batching pays off,
  // but concurrent batches to the same database fully serialize.
  abt::LockGuard g(lock_);
  for (const auto& [k, v] : kvs) put_locked(k, v);
}

// ---------------------------------------------------------------------------
// LevelDbBackend
// ---------------------------------------------------------------------------

LevelDbBackend::LevelDbBackend(sim::Process& process)
    : Backend(process,
              {.get = kMapGetBase + kMapGetBase / 2,  // memtable + level probe
               .scan_base = 2 * kListBase,            // merge of both
               .erase = kWalAppendBase}) {}

void LevelDbBackend::put(const std::string& key, const std::string& value) {
  const auto bytes = key.size() + value.size();
  {
    // Short WAL critical section.
    abt::LockGuard g(lock_);
    abt::compute(kWalAppendBase + static_cast<sim::DurationNs>(
                                      std::llround(bytes * kWalPerByte)));
  }
  abt::compute(kMemtableInsert);
  insert(key, value);
  memtable_bytes_ += bytes;
  if (memtable_bytes_ >= kMemtableLimit) {
    // Flush stall: the writer that filled the memtable pays for the flush.
    abt::LockGuard g(lock_);
    abt::compute(kFlushCost);
    memtable_bytes_ = 0;
    ++flushes_;
  }
}

// ---------------------------------------------------------------------------
// BerkeleyDbBackend
// ---------------------------------------------------------------------------

BerkeleyDbBackend::BerkeleyDbBackend(sim::Process& process)
    : Backend(process, {.get = kBtreeBase,
                        .scan_base = kListBase,
                        .erase = kBtreeBase}) {}

void BerkeleyDbBackend::put(const std::string& key, const std::string& value) {
  abt::LockGuard g(lock_);
  const auto bytes = key.size() + value.size();
  const double logn =
      size() == 0 ? 1.0 : std::log2(static_cast<double>(size()) + 2);
  abt::compute(kBtreeBase +
               static_cast<sim::DurationNs>(std::llround(
                   bytes * kBtreePerByte + 120.0 * logn)));
  if (++inserts_since_split_ >= kSplitEvery) {
    inserts_since_split_ = 0;
    abt::compute(kPageSplitCost);
  }
  insert(key, value);
}

// ---------------------------------------------------------------------------

std::unique_ptr<Backend> make_backend(BackendType type,
                                      sim::Process& process) {
  switch (type) {
    case BackendType::kMap: return std::make_unique<MapBackend>(process);
    case BackendType::kLevelDb:
      return std::make_unique<LevelDbBackend>(process);
    case BackendType::kBerkeleyDb:
      return std::make_unique<BerkeleyDbBackend>(process);
  }
  return nullptr;
}

}  // namespace sym::sdskv
