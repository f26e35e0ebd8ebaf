// services/sdskv/sdskv.hpp
//
// SDSKV: the Mochi microservice enabling RPC-based access to key-value
// backends. A provider hosts one or more databases (Table IV's "Databases"
// column); clients address (provider, database) pairs.
//
// RPCs:
//   sdskv_put_rpc           single pair, eager payload
//   sdskv_get_rpc           lookup
//   sdskv_put_packed_rpc    key-value list; content moves via the bulk
//                           interface (target-issued RDMA pull), as used by
//                           the HEPnOS data-loader
//   sdskv_list_keyvals_rpc  range scan (Mobject's dominant dependency)
//   sdskv_length_rpc        value length probe
//   sdskv_erase_rpc         delete
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "margolite/instance.hpp"
#include "services/sdskv/backend.hpp"

namespace sym::sdskv {

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kBadDb = 2,
  /// Still early-rejected by target-side admission control after the
  /// retry/backoff schedule was exhausted.
  kBusy = 3,
};

struct ProviderConfig {
  BackendType backend = BackendType::kMap;
  std::uint32_t db_count = 1;
};

/// A list_keyvals response viewed in place. It owns the response buffer
/// (encoded exactly like hg::encode(std::vector<KeyValue>)) and iterates
/// (key, value) string_views into it, so a caller copies only the pairs it
/// keeps. The views live as long as the list.
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

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] iterator begin() const noexcept;
  [[nodiscard]] iterator end() const noexcept;
  /// The encoded response, as received.
  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buf_;
  }

 private:
  std::vector<std::byte> buf_;
  std::uint32_t count_ = 0;
  std::size_t end_ = 0;  ///< offset just past the last pair
};

/// Server-side SDSKV provider: registers handlers on a margolite instance.
class Provider {
 public:
  Provider(margo::Instance& mid, std::uint16_t provider_id,
           ProviderConfig config);
  Provider(const Provider&) = delete;
  Provider& operator=(const Provider&) = delete;

  [[nodiscard]] std::uint16_t provider_id() const noexcept {
    return provider_id_;
  }
  [[nodiscard]] std::uint32_t db_count() const noexcept {
    return static_cast<std::uint32_t>(dbs_.size());
  }
  [[nodiscard]] Backend& db(std::uint32_t id) { return *dbs_.at(id); }

  /// Total pairs stored across all databases.
  [[nodiscard]] std::size_t total_size() const noexcept;

 private:
  void handle_put(margo::Request& req);
  void handle_get(margo::Request& req);
  void handle_put_packed(margo::Request& req);
  void handle_list_keyvals(margo::Request& req);
  void handle_length(margo::Request& req);
  void handle_erase(margo::Request& req);
  [[nodiscard]] Backend* db_or_null(std::uint32_t id) {
    return id < dbs_.size() ? dbs_[id].get() : nullptr;
  }

  margo::Instance& mid_;
  std::uint16_t provider_id_;
  std::vector<std::unique_ptr<Backend>> dbs_;
};

/// Client-side SDSKV API.
class Client {
 public:
  explicit Client(margo::Instance& mid);

  Status put(ofi::EpAddr target, std::uint16_t provider, std::uint32_t db,
             const std::string& key, const std::string& value);
  Status get(ofi::EpAddr target, std::uint16_t provider, std::uint32_t db,
             const std::string& key, std::string* value);

  /// Batched put: the pair list content is exposed as a registered-memory
  /// attachment and pulled by the target through the bulk interface.
  Status put_packed(ofi::EpAddr target, std::uint16_t provider,
                    std::uint32_t db, std::vector<KeyValue> kvs);

  /// Asynchronous put_packed; complete with finish_put_packed(op).
  margo::PendingOpPtr iput_packed(ofi::EpAddr target, std::uint16_t provider,
                                  std::uint32_t db, std::vector<KeyValue> kvs);
  static Status finish_put_packed(const margo::PendingOpPtr& op);

  /// Up to `max` pairs with key > `start_key`, ascending. An unknown
  /// database gives an empty list.
  KeyValueList list_keyvals(ofi::EpAddr target, std::uint16_t provider,
                            std::uint32_t db, const std::string& start_key,
                            std::uint32_t max);
  Status length(ofi::EpAddr target, std::uint16_t provider, std::uint32_t db,
                const std::string& key, std::uint64_t* len);
  Status erase(ofi::EpAddr target, std::uint16_t provider, std::uint32_t db,
               const std::string& key);

  [[nodiscard]] margo::Instance& instance() noexcept { return mid_; }

 private:
  margo::Instance& mid_;
  hg::RpcId put_id_, get_id_, put_packed_id_, list_id_, length_id_, erase_id_;
};

/// Byte volume of a kv list (used for bulk sizing on both sides).
[[nodiscard]] std::uint64_t payload_bytes(const std::vector<KeyValue>& kvs);

}  // namespace sym::sdskv
