// services/sdskv/backend.hpp
//
// SDSKV storage backends. The paper's HEPnOS study uses the *map* backend,
// whose defining property is that it is "not capable of parallel
// insertions": writes serialize on a per-database lock, which is the root
// cause of the Fig. 10 write-serialization pattern. The leveldb-sim and
// bdb-sim backends model LevelDB (LSM: cheap WAL append + memtable, with
// periodic flush stalls) and BerkeleyDB (BTree with page-split overheads),
// matching the three backends SDSKV supports. They are cost and locking
// models over one data structure: every database keeps its pairs in a
// Store (store.hpp), so the models agree on every result.
//
// All backend calls must run in ULT context: they charge CPU via
// abt::compute and block on abt::Mutex, so contention becomes visible to
// SYMBIOSYS through the blocked-ULT counters.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "argolite/sync.hpp"
#include "merclite/proc.hpp"
#include "services/sdskv/store.hpp"
#include "simkit/cluster.hpp"
#include "simkit/time.hpp"

namespace sym::sdskv {

enum class BackendType : std::uint8_t { kMap, kLevelDb, kBerkeleyDb };

[[nodiscard]] const char* to_string(BackendType t) noexcept;

using KeyValue = std::pair<std::string, std::string>;

/// An encoded pair list viewed in place: a list_keyvals response or a
/// put_packed batch. It owns the buffer (encoded exactly like
/// hg::encode(std::vector<KeyValue>): u32 count, then per pair u32 key
/// length, key, u32 value length, value — the records a Store page holds)
/// and iterates (key, value) string_views into it, so a reader copies only
/// the pairs it keeps. The views live as long as the list.
class KeyValueList {
 public:
  using value_type = std::pair<std::string_view, std::string_view>;

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;  // yields by value
    using value_type = KeyValueList::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    iterator() = default;
    [[nodiscard]] value_type operator*() const noexcept;
    iterator& operator++() noexcept;
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const noexcept { return p_ == o.p_; }

   private:
    friend class KeyValueList;
    explicit iterator(const std::byte* p) noexcept : p_(p) {}
    const std::byte* p_ = nullptr;
  };

  KeyValueList() = default;
  /// Adopt an encoded pair list; throws std::out_of_range if malformed.
  explicit KeyValueList(std::vector<std::byte> encoded);

  /// Append one pair whose key is `key_head` followed by `key_tail`, so a
  /// caller can compose a key without building it. The buffer grows
  /// geometrically, so n appends copy O(n) bytes in all.
  void append(std::string_view key_head, std::string_view key_tail,
              std::string_view value);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Bytes of the pair records, without the count: what put_packed moves.
  [[nodiscard]] std::uint64_t pair_bytes() const noexcept {
    return end_ > sizeof(count_) ? end_ - sizeof(count_) : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] iterator begin() const noexcept;
  [[nodiscard]] iterator end() const noexcept;
  /// The encoded list, as received.
  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buf_;
  }

 private:
  std::vector<std::byte> buf_;
  std::uint32_t count_ = 0;
  std::size_t end_ = 0;  ///< offset just past the last pair
};

/// A database: one ordered Store, one lock, and a backend's cost model.
/// The backends differ only in what a put costs and how it locks, and in
/// the fixed charges of a lookup, a scan and an erase.
class Backend {
 public:
  virtual ~Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] virtual BackendType type() const noexcept = 0;

  /// Insert or overwrite one pair.
  virtual void put(std::string_view key, std::string_view value) = 0;

  /// Insert a batch (put_packed) straight from its encoding. Default:
  /// sequential puts; backends may amortize locking.
  virtual void put_multi(const KeyValueList& kvs);

  /// Lookup. Returns false if absent.
  bool get(const std::string& key, std::string* value);

  /// Range scan: append to `out` the list_keyvals encodings of up to `max`
  /// pairs with key > `start_key`, in ascending order, copied from the
  /// store, then charge the scan's cost. Returns the number of pairs.
  std::size_t list_keyvals(const std::string& start_key, std::size_t max,
                           hg::BufWriter& out);

  /// Remove a key; returns true if it existed.
  bool erase(const std::string& key);

  [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }

  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return stored_bytes_;
  }

  /// Writers currently blocked on this backend's lock (contention metric).
  [[nodiscard]] std::size_t lock_waiters() const noexcept {
    return lock_.waiters();
  }

 protected:
  /// Fixed virtual CPU charges of the operations every backend shares.
  struct Costs {
    sim::DurationNs get;
    sim::DurationNs scan_base;
    sim::DurationNs erase;
  };

  Backend(sim::Process& process, Costs costs)
      : process_(process), costs_(costs) {}

  /// Insert or overwrite a pair. A new pair adds its key and value bytes
  /// to the accounting; an overwrite changes no accounting.
  void insert(std::string_view key, std::string_view value);

  sim::Process& process_;
  const Costs costs_;
  Store store_;
  /// The map's writer lock, LevelDB's WAL lock, the BTree's lock.
  abt::Mutex lock_;
  std::uint64_t stored_bytes_ = 0;
};

/// In-memory map with a single writer lock per database.
class MapBackend final : public Backend {
 public:
  explicit MapBackend(sim::Process& process);

  [[nodiscard]] BackendType type() const noexcept override {
    return BackendType::kMap;
  }
  void put(std::string_view key, std::string_view value) override;
  void put_multi(const KeyValueList& kvs) override;

 private:
  void put_locked(std::string_view key, std::string_view value);
};

/// LSM-tree model: WAL append under a short lock, lock-free memtable
/// insert, periodic flush that stalls the inserting writer.
class LevelDbBackend final : public Backend {
 public:
  explicit LevelDbBackend(sim::Process& process);

  [[nodiscard]] BackendType type() const noexcept override {
    return BackendType::kLevelDb;
  }
  void put(std::string_view key, std::string_view value) override;

  [[nodiscard]] std::uint64_t flush_count() const noexcept {
    return flushes_;
  }

 private:
  static constexpr std::uint64_t kMemtableLimit = 4ULL << 20;

  /// Bytes put since the last flush (overwrites included).
  std::uint64_t memtable_bytes_ = 0;
  std::uint64_t flushes_ = 0;
};

/// BTree model: per-operation lock, logarithmic cost, periodic page splits.
class BerkeleyDbBackend final : public Backend {
 public:
  explicit BerkeleyDbBackend(sim::Process& process);

  [[nodiscard]] BackendType type() const noexcept override {
    return BackendType::kBerkeleyDb;
  }
  void put(std::string_view key, std::string_view value) override;

 private:
  std::uint64_t inserts_since_split_ = 0;
};

[[nodiscard]] std::unique_ptr<Backend> make_backend(BackendType type,
                                                    sim::Process& process);

}  // namespace sym::sdskv
