// services/sdskv/sdskv.hpp
//
// SDSKV: the Mochi microservice enabling RPC-based access to key-value
// backends. A provider hosts one or more databases (Table IV's "Databases"
// column); clients address (provider, database) pairs.
//
// RPCs:
//   sdskv_put_rpc           single pair, eager payload
//   sdskv_get_rpc           lookup
//   sdskv_put_packed_rpc    key-value list in the list_keyvals encoding;
//                           content moves via the bulk interface (target-
//                           issued RDMA pull), as used by the HEPnOS
//                           data-loader
//   sdskv_list_keyvals_rpc  range scan (Mobject's dominant dependency)
//   sdskv_length_rpc        value length probe
//   sdskv_erase_rpc         delete
#pragma once

#include <cstdint>
#include <memory>
#include <string>
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

  /// Batched put: the encoded pair list is exposed as a registered-memory
  /// attachment, pulled by the target through the bulk interface and
  /// inserted from its encoding. The batch goes to the provider.
  Status put_packed(ofi::EpAddr target, std::uint16_t provider,
                    std::uint32_t db, KeyValueList kvs);
  /// Convenience for tests and benchmarks: encodes `kvs` and sends it as
  /// above.
  Status put_packed(ofi::EpAddr target, std::uint16_t provider,
                    std::uint32_t db, const std::vector<KeyValue>& kvs);

  /// Asynchronous put_packed; complete with finish_put_packed(op).
  margo::PendingOpPtr iput_packed(ofi::EpAddr target, std::uint16_t provider,
                                  std::uint32_t db, KeyValueList kvs);
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

}  // namespace sym::sdskv
