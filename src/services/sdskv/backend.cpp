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

std::size_t scan(const std::map<std::string, std::string>& m,
                 const std::string& start_key, std::size_t max,
                 const ScanVisitor& visit) {
  std::size_t n = 0;
  for (auto it = m.upper_bound(start_key); it != m.end() && n < max;
       ++it, ++n) {
    visit(it->first, it->second);
  }
  return n;
}

}  // namespace

const char* to_string(BackendType t) noexcept {
  switch (t) {
    case BackendType::kMap: return "map";
    case BackendType::kLevelDb: return "leveldb";
    case BackendType::kBerkeleyDb: return "berkeleydb";
  }
  return "?";
}

void Backend::put_multi(std::vector<KeyValue> kvs) {
  for (const auto& [k, v] : kvs) put(k, v);
}

// ---------------------------------------------------------------------------
// MapBackend
// ---------------------------------------------------------------------------

template <typename Key, typename Value>
void MapBackend::put_locked(Key&& key, Value&& value) {
  const auto bytes = key.size() + value.size();
  abt::compute(kMapPutBase + static_cast<sim::DurationNs>(
                                 std::llround(bytes * kMapPutPerByte)));
  auto [it, inserted] = map_.insert_or_assign(std::forward<Key>(key),
                                              std::forward<Value>(value));
  (void)it;
  if (inserted) account(static_cast<std::int64_t>(bytes));
}

void MapBackend::put(const std::string& key, const std::string& value) {
  abt::LockGuard g(write_lock_);
  put_locked(key, value);
}

void MapBackend::put_multi(std::vector<KeyValue> kvs) {
  // The whole batch inserts under one lock acquisition — batching pays off,
  // but concurrent batches to the same database fully serialize.
  abt::LockGuard g(write_lock_);
  for (auto& [k, v] : kvs) put_locked(std::move(k), std::move(v));
}

bool MapBackend::get(const std::string& key, std::string* value) {
  abt::compute(kMapGetBase);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  if (value != nullptr) *value = it->second;
  return true;
}

std::size_t MapBackend::list_keyvals(const std::string& start_key,
                                     std::size_t max,
                                     const ScanVisitor& visit) {
  const std::size_t n = scan(map_, start_key, max, visit);
  abt::compute(kListBase + kListPerItem * n);
  return n;
}

bool MapBackend::erase(const std::string& key) {
  abt::LockGuard g(write_lock_);
  abt::compute(kMapGetBase);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  account(-static_cast<std::int64_t>(it->first.size() + it->second.size()));
  map_.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// LevelDbBackend
// ---------------------------------------------------------------------------

void LevelDbBackend::put(const std::string& key, const std::string& value) {
  const auto bytes = key.size() + value.size();
  {
    // Short WAL critical section.
    abt::LockGuard g(wal_lock_);
    abt::compute(kWalAppendBase + static_cast<sim::DurationNs>(
                                      std::llround(bytes * kWalPerByte)));
  }
  abt::compute(kMemtableInsert);
  auto [it, inserted] = memtable_.insert_or_assign(key, value);
  (void)it;
  if (inserted) account(static_cast<std::int64_t>(bytes));
  memtable_bytes_ += bytes;
  if (memtable_bytes_ >= kMemtableLimit) {
    // Flush stall: the writer that filled the memtable pays for the flush.
    abt::LockGuard g(wal_lock_);
    abt::compute(kFlushCost);
    for (auto& [k, v] : memtable_) levels_.insert_or_assign(k, std::move(v));
    memtable_.clear();
    memtable_bytes_ = 0;
    ++flushes_;
  }
}

bool LevelDbBackend::get(const std::string& key, std::string* value) {
  abt::compute(kMapGetBase + kMapGetBase / 2);  // memtable + level probe
  if (auto it = memtable_.find(key); it != memtable_.end()) {
    if (value != nullptr) *value = it->second;
    return true;
  }
  if (auto it = levels_.find(key); it != levels_.end()) {
    if (value != nullptr) *value = it->second;
    return true;
  }
  return false;
}

std::size_t LevelDbBackend::list_keyvals(const std::string& start_key,
                                         std::size_t max,
                                         const ScanVisitor& visit) {
  // Merge-scan of memtable and levels; on equal keys the memtable's newer
  // value shadows the level's.
  auto lv = levels_.upper_bound(start_key);
  auto mt = memtable_.upper_bound(start_key);
  std::size_t n = 0;
  for (; n < max && (lv != levels_.end() || mt != memtable_.end()); ++n) {
    if (mt == memtable_.end() ||
        (lv != levels_.end() && lv->first < mt->first)) {
      visit(lv->first, lv->second);
      ++lv;
      continue;
    }
    if (lv != levels_.end() && lv->first == mt->first) ++lv;
    visit(mt->first, mt->second);
    ++mt;
  }
  abt::compute(2 * kListBase + kListPerItem * n);
  return n;
}

bool LevelDbBackend::erase(const std::string& key) {
  abt::LockGuard g(wal_lock_);
  abt::compute(kWalAppendBase);
  bool existed = false;
  if (auto it = memtable_.find(key); it != memtable_.end()) {
    account(-static_cast<std::int64_t>(it->first.size() + it->second.size()));
    memtable_.erase(it);
    existed = true;
  }
  if (auto it = levels_.find(key); it != levels_.end()) {
    if (!existed) {
      account(
          -static_cast<std::int64_t>(it->first.size() + it->second.size()));
    }
    levels_.erase(it);
    existed = true;
  }
  return existed;
}

std::size_t LevelDbBackend::size() const noexcept {
  std::size_t n = levels_.size();
  for (const auto& [k, v] : memtable_) {
    if (levels_.count(k) == 0) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// BerkeleyDbBackend
// ---------------------------------------------------------------------------

void BerkeleyDbBackend::put(const std::string& key, const std::string& value) {
  abt::LockGuard g(lock_);
  const auto bytes = key.size() + value.size();
  const double logn =
      tree_.empty() ? 1.0 : std::log2(static_cast<double>(tree_.size()) + 2);
  abt::compute(kBtreeBase +
               static_cast<sim::DurationNs>(std::llround(
                   bytes * kBtreePerByte + 120.0 * logn)));
  if (++inserts_since_split_ >= kSplitEvery) {
    inserts_since_split_ = 0;
    abt::compute(kPageSplitCost);
  }
  auto [it, inserted] = tree_.insert_or_assign(key, value);
  (void)it;
  if (inserted) account(static_cast<std::int64_t>(bytes));
}

bool BerkeleyDbBackend::get(const std::string& key, std::string* value) {
  abt::compute(kBtreeBase);
  auto it = tree_.find(key);
  if (it == tree_.end()) return false;
  if (value != nullptr) *value = it->second;
  return true;
}

std::size_t BerkeleyDbBackend::list_keyvals(const std::string& start_key,
                                            std::size_t max,
                                            const ScanVisitor& visit) {
  const std::size_t n = scan(tree_, start_key, max, visit);
  abt::compute(kListBase + kListPerItem * n);
  return n;
}

bool BerkeleyDbBackend::erase(const std::string& key) {
  abt::LockGuard g(lock_);
  abt::compute(kBtreeBase);
  auto it = tree_.find(key);
  if (it == tree_.end()) return false;
  account(-static_cast<std::int64_t>(it->first.size() + it->second.size()));
  tree_.erase(it);
  return true;
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
