// services/hepnos/hepnos.hpp
//
// HEPnOS: the Mochi storage service for high-energy-physics event data
// (Fermilab workflows). Data is arranged in a hierarchy of datasets, runs,
// subruns and events; each service provider node hosts one BAKE provider
// (object data) and one SDSKV provider (object metadata), and clients talk
// to both directly through a C++ API (paper §V-C, Fig. 8).
//
// The study's workload is the *data-loader* step: it reads event files and
// writes batches of serialized events into the service with
// `sdskv_put_packed`, hashing each key over the configured databases.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "margolite/instance.hpp"
#include "services/bake/bake.hpp"
#include "services/sdskv/sdskv.hpp"

namespace sym::hepnos {

struct ServerConfig {
  std::uint16_t sdskv_provider = 1;
  std::uint16_t bake_provider = 2;
  sdskv::BackendType backend = sdskv::BackendType::kMap;
  std::uint32_t databases = 8;  ///< Table IV "Databases" (per provider)
};

/// One HEPnOS service provider process: one SDSKV + one BAKE provider.
class Server {
 public:
  Server(margo::Instance& mid, ServerConfig config = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] sdskv::Provider& kv() noexcept { return *kv_; }
  [[nodiscard]] bake::Provider& blob() noexcept { return *blob_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }

  /// Total events stored across this provider's databases.
  [[nodiscard]] std::size_t events_stored() const noexcept {
    return kv_->total_size();
  }

 private:
  margo::Instance& mid_;
  ServerConfig cfg_;
  std::unique_ptr<sdskv::Provider> kv_;
  std::unique_ptr<bake::Provider> blob_;
};

/// Hierarchical event identifier.
struct EventId {
  std::string dataset;
  std::uint32_t run = 0;
  std::uint32_t subrun = 0;
  std::uint64_t event = 0;

  /// The dataset name followed by kKeySuffixBytes of
  /// "%<run:08x>%<subrun:08x>%<event:016x>" (lowercase hex).
  [[nodiscard]] std::string key() const;

  static constexpr std::size_t kKeySuffixBytes = 1 + 8 + 1 + 8 + 1 + 16;
  /// Write this event's key suffix at `out` (kKeySuffixBytes, no NUL).
  void write_key_suffix(char* out) const noexcept;
};

/// Client-side view of a deployed HEPnOS service: a set of provider
/// endpoints, each with `dbs_per_server` databases, addressed by hashing
/// event keys over all databases (the data-loader's distribution scheme).
class DataStore {
 public:
  DataStore(margo::Instance& mid, std::vector<ofi::EpAddr> servers,
            std::uint16_t sdskv_provider, std::uint32_t dbs_per_server);

  [[nodiscard]] std::uint32_t total_databases() const noexcept {
    return static_cast<std::uint32_t>(servers_.size()) * dbs_per_server_;
  }
  /// The database of the key `key` followed by `key_tail`.
  [[nodiscard]] std::uint32_t db_of_key(std::string_view key,
                                        std::string_view key_tail = {}) const;

  /// Synchronous single-event store (batch size 1 path).
  void store_event(const EventId& id, std::string_view payload);

  /// A batch of events accumulated client-side, grouped per database and
  /// flushed as one sdskv_put_packed per non-empty group, in ascending
  /// database order. Each group is a put_packed list in its wire encoding,
  /// in a buffer of exactly its size: store() writes the event's key and
  /// payload into it, and flushing sends it as it is.
  class WriteBatch {
   public:
    explicit WriteBatch(DataStore& store)
        : store_(store), groups_(store.total_databases()) {}

    void store(const EventId& id, std::string_view payload);
    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

    /// Issue all put_packed RPCs asynchronously, then wait for every one.
    void flush();

    /// Issue all put_packed RPCs asynchronously and hand back the pending
    /// operations (the data-loader pipelines small batches this way).
    [[nodiscard]] std::vector<margo::PendingOpPtr> flush_async();

   private:
    DataStore& store_;
    std::vector<sdskv::KeyValueList> groups_;  ///< by database
    std::size_t pending_ = 0;
  };

  /// Read an event back (for verification paths).
  bool load_event(const EventId& id, std::string* payload);

  /// Raw key-value access used by the hierarchical object API. Keys are
  /// routed to (server, database) by the same hash scheme as events.
  void put_raw(const std::string& key, std::string value);
  bool get_raw(const std::string& key, std::string* value);
  /// Scan every database for keys strictly greater than `start` that begin
  /// with `prefix` (hierarchy listings must visit all databases since keys
  /// are hash-distributed).
  [[nodiscard]] std::vector<sdskv::KeyValue> scan_prefix(
      const std::string& prefix, std::uint32_t max_per_db = 256);

  [[nodiscard]] sdskv::Client& kv() noexcept { return kv_; }
  [[nodiscard]] margo::Instance& instance() noexcept { return mid_; }

 private:
  friend class WriteBatch;

  margo::Instance& mid_;
  sdskv::Client kv_;
  std::vector<ofi::EpAddr> servers_;
  std::uint16_t sdskv_provider_;
  std::uint32_t dbs_per_server_;
};

// ---------------------------------------------------------------------------
// Hierarchical object API (mirrors HEPnOS's C++ client interface):
// DataSets contain Runs contain SubRuns contain Events; Events hold named
// products. All metadata and products live in the SDSKV providers, keyed by
// the hierarchy path and distributed by the same hashing scheme the
// data-loader uses.
// ---------------------------------------------------------------------------

class Run;
class SubRun;
class Event;

class DataSet {
 public:
  DataSet(DataStore& store, std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Create (idempotently) and open a run.
  Run create_run(std::uint32_t number);
  /// True if the run's marker exists.
  [[nodiscard]] bool has_run(std::uint32_t number);

 private:
  DataStore& store_;
  std::string name_;
};

class Run {
 public:
  Run(DataStore& store, std::string dataset, std::uint32_t number)
      : store_(store), dataset_(std::move(dataset)), number_(number) {}

  [[nodiscard]] std::uint32_t number() const noexcept { return number_; }
  SubRun create_subrun(std::uint32_t number);

 private:
  friend class DataSet;
  DataStore& store_;
  std::string dataset_;
  std::uint32_t number_;
};

class SubRun {
 public:
  SubRun(DataStore& store, std::string dataset, std::uint32_t run,
         std::uint32_t number)
      : store_(store),
        dataset_(std::move(dataset)),
        run_(run),
        number_(number) {}

  [[nodiscard]] std::uint32_t number() const noexcept { return number_; }
  Event create_event(std::uint64_t number);

 private:
  DataStore& store_;
  std::string dataset_;
  std::uint32_t run_;
  std::uint32_t number_;
};

/// An event handle: products are serialized C++ objects stored by label.
class Event {
 public:
  Event(DataStore& store, EventId id) : store_(store), id_(std::move(id)) {}

  [[nodiscard]] const EventId& id() const noexcept { return id_; }

  /// Store a named product (serialized object bytes).
  void store_product(const std::string& label, std::string data);

  /// Load a named product; false if absent.
  bool load_product(const std::string& label, std::string* data);

  /// List the labels of all products attached to this event.
  [[nodiscard]] std::vector<std::string> product_labels();

 private:
  DataStore& store_;
  EventId id_;
};

/// Synthetic stand-in for the HDF5 event files the paper's data-loader
/// reads from a parallel file system: per-file event counts and payload
/// geometry are configurable; "reading" costs IO wait plus per-event
/// serialization CPU.
struct EventFileModel {
  std::uint32_t events_per_file = 4096;
  std::uint32_t payload_bytes = 512;       ///< serialized event size
  sim::DurationNs read_latency = sim::msec(2);
  double read_bw_bytes_per_ns = 1.0;       ///< PFS streaming bandwidth
  sim::DurationNs serialize_per_event = sim::nsec(800);
};

/// The data-loader client step: reads `files` synthetic event files and
/// writes every event into the data store in batches of `batch_size`.
struct DataLoaderStats {
  std::uint64_t events = 0;
  std::uint64_t rpcs = 0;
  sim::DurationNs elapsed = 0;
};

/// `pipeline_ops` put_packed operations are kept in flight before the
/// loader drains (0 = drain after every batch flush). `start_delay` models
/// natural client desynchronization (staggered job launch / PFS variance).
DataLoaderStats run_data_loader(DataStore& store, const EventFileModel& model,
                                std::uint32_t files, std::uint32_t batch_size,
                                const std::string& dataset,
                                std::uint32_t client_rank,
                                std::uint32_t pipeline_ops = 0,
                                sim::DurationNs start_delay = 0);

}  // namespace sym::hepnos
