#include "services/sdskv/backend.hpp"

#include <cmath>
#include <cstring>
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
// KeyValueList
// ---------------------------------------------------------------------------

namespace {

std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string_view view_at(const std::byte* p) noexcept {
  return {reinterpret_cast<const char*>(p + sizeof(std::uint32_t)),
          load_u32(p)};
}

}  // namespace

KeyValueList::KeyValueList(std::vector<std::byte> encoded)
    : buf_(std::move(encoded)) {
  // Walk the whole list once, so iteration never needs a bounds check.
  hg::BufReader r(buf_);
  hg::get(r, count_);
  for (std::uint64_t i = 0; i < 2 * std::uint64_t{count_}; ++i) {
    std::uint32_t n = 0;
    hg::get(r, n);
    r.skip(n);
  }
  end_ = r.position();
}

void KeyValueList::append(std::string_view key_head, std::string_view key_tail,
                          std::string_view value) {
  const auto klen =
      static_cast<std::uint32_t>(key_head.size() + key_tail.size());
  const auto vlen = static_cast<std::uint32_t>(value.size());
  if (end_ == 0) end_ = sizeof count_;
  const std::size_t size = end_ + 2 * sizeof(std::uint32_t) + klen + vlen;
  buf_.resize(size);
  ++count_;
  std::memcpy(buf_.data(), &count_, sizeof count_);
  std::byte* p = buf_.data() + end_;
  for (const std::string_view part :
       {std::string_view(reinterpret_cast<const char*>(&klen), sizeof klen),
        key_head, key_tail,
        std::string_view(reinterpret_cast<const char*>(&vlen), sizeof vlen),
        value}) {
    if (!part.empty()) std::memcpy(p, part.data(), part.size());
    p += part.size();
  }
  end_ = size;
}

KeyValueList::iterator KeyValueList::begin() const noexcept {
  return iterator(buf_.data() + (count_ == 0 ? end_ : sizeof(count_)));
}

KeyValueList::iterator KeyValueList::end() const noexcept {
  return iterator(buf_.data() + end_);
}

KeyValueList::value_type KeyValueList::iterator::operator*() const noexcept {
  const std::string_view key = view_at(p_);
  return {key, view_at(p_ + sizeof(std::uint32_t) + key.size())};
}

KeyValueList::iterator& KeyValueList::iterator::operator++() noexcept {
  const auto [key, value] = **this;
  p_ += 2 * sizeof(std::uint32_t) + key.size() + value.size();
  return *this;
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

void Backend::put_multi(const KeyValueList& kvs) {
  for (const auto [k, v] : kvs) put(k, v);
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

void Backend::insert(std::string_view key, std::string_view value) {
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

void MapBackend::put_locked(std::string_view key, std::string_view value) {
  const auto bytes = key.size() + value.size();
  abt::compute(kMapPutBase + static_cast<sim::DurationNs>(
                                 std::llround(bytes * kMapPutPerByte)));
  insert(key, value);
}

void MapBackend::put(std::string_view key, std::string_view value) {
  abt::LockGuard g(lock_);
  put_locked(key, value);
}

void MapBackend::put_multi(const KeyValueList& kvs) {
  // The whole batch inserts under one lock acquisition — batching pays off,
  // but concurrent batches to the same database fully serialize.
  abt::LockGuard g(lock_);
  for (const auto [k, v] : kvs) put_locked(k, v);
}

// ---------------------------------------------------------------------------
// LevelDbBackend
// ---------------------------------------------------------------------------

LevelDbBackend::LevelDbBackend(sim::Process& process)
    : Backend(process,
              {.get = kMapGetBase + kMapGetBase / 2,  // memtable + level probe
               .scan_base = 2 * kListBase,            // merge of both
               .erase = kWalAppendBase}) {}

void LevelDbBackend::put(std::string_view key, std::string_view value) {
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

void BerkeleyDbBackend::put(std::string_view key, std::string_view value) {
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
