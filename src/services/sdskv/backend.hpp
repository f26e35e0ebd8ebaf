// services/sdskv/backend.hpp
//
// SDSKV storage backends. The paper's HEPnOS study uses the *map* backend,
// whose defining property is that it is "not capable of parallel
// insertions": writes serialize on a per-database lock, which is the root
// cause of the Fig. 10 write-serialization pattern. The leveldb-sim and
// bdb-sim backends model LevelDB (LSM: cheap WAL append + memtable, with
// periodic flush stalls) and BerkeleyDB (BTree with page-split overheads),
// matching the three backends SDSKV supports.
//
// All backend calls must run in ULT context: they charge CPU via
// abt::compute and block on abt::Mutex, so contention becomes visible to
// SYMBIOSYS through the blocked-ULT counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "argolite/sync.hpp"
#include "simkit/cluster.hpp"
#include "simkit/time.hpp"

namespace sym::sdskv {

enum class BackendType : std::uint8_t { kMap, kLevelDb, kBerkeleyDb };

[[nodiscard]] const char* to_string(BackendType t) noexcept;

using KeyValue = std::pair<std::string, std::string>;

/// Receives the pairs of a range scan in ascending key order. The
/// references point into the store and are valid only during the call, so
/// a visitor copies what it keeps and must not block.
using ScanVisitor =
    std::function<void(const std::string& key, const std::string& value)>;

class Backend {
 public:
  explicit Backend(sim::Process& process) : process_(process) {}
  virtual ~Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] virtual BackendType type() const noexcept = 0;

  /// Insert or overwrite one pair.
  virtual void put(const std::string& key, const std::string& value) = 0;

  /// Insert a batch (put_packed), taking its pairs. Default: sequential
  /// puts; backends may amortize locking and move the pairs in.
  virtual void put_multi(std::vector<KeyValue> kvs);

  /// Lookup. Returns false if absent.
  virtual bool get(const std::string& key, std::string* value) = 0;

  /// Range scan: visit up to `max` pairs with key > `start_key`, in
  /// ascending order, in place, then charge the scan's cost. Returns the
  /// number of pairs visited.
  virtual std::size_t list_keyvals(const std::string& start_key,
                                   std::size_t max,
                                   const ScanVisitor& visit) = 0;

  /// Remove a key; returns true if it existed.
  virtual bool erase(const std::string& key) = 0;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return stored_bytes_;
  }

  /// Writers currently blocked on this backend's lock (contention metric).
  [[nodiscard]] virtual std::size_t lock_waiters() const noexcept = 0;

 protected:
  void account(std::int64_t delta) {
    stored_bytes_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(stored_bytes_) + delta);
    process_.add_rss(delta);
  }

  sim::Process& process_;
  std::uint64_t stored_bytes_ = 0;
};

/// In-memory std::map with a single writer lock per database.
class MapBackend final : public Backend {
 public:
  explicit MapBackend(sim::Process& process) : Backend(process) {}

  [[nodiscard]] BackendType type() const noexcept override {
    return BackendType::kMap;
  }
  void put(const std::string& key, const std::string& value) override;
  void put_multi(std::vector<KeyValue> kvs) override;
  bool get(const std::string& key, std::string* value) override;
  std::size_t list_keyvals(const std::string& start_key, std::size_t max,
                           const ScanVisitor& visit) override;
  bool erase(const std::string& key) override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return map_.size();
  }
  [[nodiscard]] std::size_t lock_waiters() const noexcept override {
    return write_lock_.waiters();
  }

 private:
  template <typename Key, typename Value>
  void put_locked(Key&& key, Value&& value);

  std::map<std::string, std::string> map_;
  abt::Mutex write_lock_;  ///< map backend: no parallel insertions
};

/// LSM-tree model: WAL append under a short lock, lock-free memtable
/// insert, periodic flush that stalls the inserting writer.
class LevelDbBackend final : public Backend {
 public:
  explicit LevelDbBackend(sim::Process& process) : Backend(process) {}

  [[nodiscard]] BackendType type() const noexcept override {
    return BackendType::kLevelDb;
  }
  void put(const std::string& key, const std::string& value) override;
  bool get(const std::string& key, std::string* value) override;
  std::size_t list_keyvals(const std::string& start_key, std::size_t max,
                           const ScanVisitor& visit) override;
  bool erase(const std::string& key) override;
  [[nodiscard]] std::size_t size() const noexcept override;
  [[nodiscard]] std::size_t lock_waiters() const noexcept override {
    return wal_lock_.waiters();
  }

  [[nodiscard]] std::uint64_t flush_count() const noexcept {
    return flushes_;
  }

 private:
  static constexpr std::uint64_t kMemtableLimit = 4ULL << 20;

  std::map<std::string, std::string> memtable_;
  std::map<std::string, std::string> levels_;
  std::uint64_t memtable_bytes_ = 0;
  std::uint64_t flushes_ = 0;
  abt::Mutex wal_lock_;
};

/// BTree model: per-operation lock, logarithmic cost, periodic page splits.
class BerkeleyDbBackend final : public Backend {
 public:
  explicit BerkeleyDbBackend(sim::Process& process) : Backend(process) {}

  [[nodiscard]] BackendType type() const noexcept override {
    return BackendType::kBerkeleyDb;
  }
  void put(const std::string& key, const std::string& value) override;
  bool get(const std::string& key, std::string* value) override;
  std::size_t list_keyvals(const std::string& start_key, std::size_t max,
                           const ScanVisitor& visit) override;
  bool erase(const std::string& key) override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return tree_.size();
  }
  [[nodiscard]] std::size_t lock_waiters() const noexcept override {
    return lock_.waiters();
  }

 private:
  std::map<std::string, std::string> tree_;
  abt::Mutex lock_;
  std::uint64_t inserts_since_split_ = 0;
};

[[nodiscard]] std::unique_ptr<Backend> make_backend(BackendType type,
                                                    sim::Process& process);

}  // namespace sym::sdskv
