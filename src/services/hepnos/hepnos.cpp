#include "services/hepnos/hepnos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "argolite/runtime.hpp"
#include "simkit/rng.hpp"

namespace sym::hepnos {

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(margo::Instance& mid, ServerConfig config)
    : mid_(mid), cfg_(config) {
  kv_ = std::make_unique<sdskv::Provider>(
      mid_, cfg_.sdskv_provider,
      sdskv::ProviderConfig{.backend = cfg_.backend,
                            .db_count = cfg_.databases});
  blob_ = std::make_unique<bake::Provider>(mid_, cfg_.bake_provider);
}

// ---------------------------------------------------------------------------
// EventId / DataStore
// ---------------------------------------------------------------------------

void EventId::write_key_suffix(char* out) const noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  const auto field = [&out](std::uint64_t v, int digits) {
    *out++ = '%';
    for (int i = digits - 1; i >= 0; --i, v >>= 4) out[i] = kHex[v & 0xF];
    out += digits;
  };
  field(run, 8);
  field(subrun, 8);
  field(event, 16);
}

std::string EventId::key() const {
  std::string k(dataset.size() + kKeySuffixBytes, '\0');
  dataset.copy(k.data(), dataset.size());
  write_key_suffix(k.data() + dataset.size());
  return k;
}

DataStore::DataStore(margo::Instance& mid, std::vector<ofi::EpAddr> servers,
                     std::uint16_t sdskv_provider,
                     std::uint32_t dbs_per_server)
    : mid_(mid),
      kv_(mid),
      servers_(std::move(servers)),
      sdskv_provider_(sdskv_provider),
      dbs_per_server_(dbs_per_server) {}

std::uint32_t DataStore::db_of_key(std::string_view key,
                                   std::string_view key_tail) const {
  const auto h = sim::fnv1a64(key_tail.data(), key_tail.size(),
                              sim::fnv1a64(key.data(), key.size()));
  return static_cast<std::uint32_t>(h % total_databases());
}

void DataStore::store_event(const EventId& id, std::string_view payload) {
  WriteBatch batch(*this);
  batch.store(id, payload);
  batch.flush();
}

bool DataStore::load_event(const EventId& id, std::string* payload) {
  const std::string key = id.key();
  const std::uint32_t db = db_of_key(key);
  const std::uint32_t server = db / dbs_per_server_;
  return kv_.get(servers_.at(server), sdskv_provider_, db % dbs_per_server_,
                 key, payload) == sdskv::Status::kOk;
}

void DataStore::WriteBatch::store(const EventId& id,
                                  std::string_view payload) {
  char suffix[EventId::kKeySuffixBytes];
  id.write_key_suffix(suffix);
  const std::string_view tail(suffix, sizeof suffix);
  groups_[store_.db_of_key(id.dataset, tail)].append(id.dataset, tail,
                                                     payload);
  ++pending_;
}

std::vector<margo::PendingOpPtr> DataStore::WriteBatch::flush_async() {
  // One put_packed per non-empty database group, all in flight at once —
  // this is why "more databases" means "more RPCs" (paper §V-C3).
  std::vector<margo::PendingOpPtr> ops;
  ops.reserve(std::min(pending_, groups_.size()));
  for (std::uint32_t db = 0; db < groups_.size(); ++db) {
    if (groups_[db].empty()) continue;
    const std::uint32_t server = db / store_.dbs_per_server_;
    ops.push_back(store_.kv_.iput_packed(store_.servers_.at(server),
                                         store_.sdskv_provider_,
                                         db % store_.dbs_per_server_,
                                         std::exchange(groups_[db], {})));
  }
  pending_ = 0;
  return ops;
}

void DataStore::WriteBatch::flush() {
  auto ops = flush_async();
  for (auto& op : ops) sdskv::Client::finish_put_packed(op);
}

// ---------------------------------------------------------------------------
// Data loader
// ---------------------------------------------------------------------------

DataLoaderStats run_data_loader(DataStore& store, const EventFileModel& model,
                                std::uint32_t files, std::uint32_t batch_size,
                                const std::string& dataset,
                                std::uint32_t client_rank,
                                std::uint32_t pipeline_ops,
                                sim::DurationNs start_delay) {
  DataLoaderStats stats;
  auto& mid = store.instance();
  if (start_delay > 0) abt::sleep_for(start_delay);
  const sim::TimeNs t0 = mid.engine().now();
  const std::uint64_t before_rpcs = mid.hg_class().num_rpcs_invoked();

  // The loader pipelines: each full batch is flushed asynchronously and up
  // to kMaxInflightOps put_packed operations ride the network concurrently
  // before the loader drains. With a low batch size this floods the origin
  // with small RPCs — the behaviour dissected in configurations C5..C7.
  const std::size_t max_inflight = pipeline_ops;
  std::vector<margo::PendingOpPtr> inflight;
  auto drain = [&inflight] {
    for (auto& op : inflight) sdskv::Client::finish_put_packed(op);
    inflight.clear();
  };

  std::uint64_t event_no = 0;
  for (std::uint32_t f = 0; f < files; ++f) {
    // "Read" one HDF5 event file from the PFS: latency + streaming time
    // (IO wait — the ES stays available), then per-event serialization CPU.
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(model.events_per_file) *
        model.payload_bytes;
    const double jitter =
        mid.engine().rng().uniform_real(0.85, 1.15);  // PFS variance
    abt::sleep_for(static_cast<sim::DurationNs>(
        jitter * (static_cast<double>(model.read_latency) +
                  static_cast<double>(file_bytes) /
                      model.read_bw_bytes_per_ns)));

    DataStore::WriteBatch batch(store);
    EventId id{.dataset = dataset, .run = client_rank, .subrun = f};
    const std::string payload(model.payload_bytes, 'x');
    for (std::uint32_t e = 0; e < model.events_per_file; ++e) {
      abt::compute(model.serialize_per_event);
      // Cooperative yield so the (possibly ES-sharing) progress ULT can run
      // between event serializations, as margo-aware client code does.
      if ((e & 63u) == 63u) abt::yield();
      id.event = event_no++;
      batch.store(id, payload);
      ++stats.events;
      if (batch.pending() >= batch_size) {
        auto ops = batch.flush_async();
        inflight.insert(inflight.end(), ops.begin(), ops.end());
        if (inflight.size() >= max_inflight) drain();
      }
    }
    if (batch.pending() > 0) {
      auto ops = batch.flush_async();
      inflight.insert(inflight.end(), ops.begin(), ops.end());
    }
    drain();
  }

  stats.rpcs = mid.hg_class().num_rpcs_invoked() - before_rpcs;
  stats.elapsed = mid.engine().now() - t0;
  return stats;
}


// ---------------------------------------------------------------------------
// Raw key-value routing for the hierarchical object API
// ---------------------------------------------------------------------------

void DataStore::put_raw(const std::string& key, std::string value) {
  const std::uint32_t db = db_of_key(key);
  const std::uint32_t server = db / dbs_per_server_;
  kv_.put(servers_.at(server), sdskv_provider_, db % dbs_per_server_, key,
          value);
}

bool DataStore::get_raw(const std::string& key, std::string* value) {
  const std::uint32_t db = db_of_key(key);
  const std::uint32_t server = db / dbs_per_server_;
  return kv_.get(servers_.at(server), sdskv_provider_, db % dbs_per_server_,
                 key, value) == sdskv::Status::kOk;
}

std::vector<sdskv::KeyValue> DataStore::scan_prefix(const std::string& prefix,
                                                    std::uint32_t max_per_db) {
  std::vector<sdskv::KeyValue> out;
  for (std::uint32_t db = 0; db < total_databases(); ++db) {
    const std::uint32_t server = db / dbs_per_server_;
    // Start just before the prefix so matching keys are returned; the scan
    // is strictly-greater-than, so back off by one character.
    std::string start = prefix;
    if (!start.empty()) --start.back();
    const auto chunk = kv_.list_keyvals(servers_.at(server), sdskv_provider_,
                                        db % dbs_per_server_, start,
                                        max_per_db);
    for (const auto& [key, value] : chunk) {
      if (key.starts_with(prefix)) out.emplace_back(key, value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Hierarchical object API
// ---------------------------------------------------------------------------

namespace {

std::string run_marker(const std::string& ds, std::uint32_t run) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/run/%08x", run);
  return ds + buf;
}

std::string subrun_marker(const std::string& ds, std::uint32_t run,
                          std::uint32_t subrun) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/subrun/%08x/%08x", run, subrun);
  return ds + buf;
}

std::string product_key(const EventId& id, const std::string& label) {
  return id.key() + "#" + label;
}

}  // namespace

DataSet::DataSet(DataStore& store, std::string name)
    : store_(store), name_(std::move(name)) {
  store_.put_raw("/dataset/" + name_, "");
}

Run DataSet::create_run(std::uint32_t number) {
  store_.put_raw(run_marker(name_, number), "");
  return Run(store_, name_, number);
}

bool DataSet::has_run(std::uint32_t number) {
  std::string v;
  return store_.get_raw(run_marker(name_, number), &v);
}

SubRun Run::create_subrun(std::uint32_t number) {
  store_.put_raw(subrun_marker(dataset_, number_, number), "");
  return SubRun(store_, dataset_, number_, number);
}

Event SubRun::create_event(std::uint64_t number) {
  EventId id;
  id.dataset = dataset_;
  id.run = run_;
  id.subrun = number_;
  id.event = number;
  store_.put_raw(id.key(), "");
  return Event(store_, std::move(id));
}

void Event::store_product(const std::string& label, std::string data) {
  store_.put_raw(product_key(id_, label), std::move(data));
}

bool Event::load_product(const std::string& label, std::string* data) {
  return store_.get_raw(product_key(id_, label), data);
}

std::vector<std::string> Event::product_labels() {
  std::vector<std::string> labels;
  const auto prefix = id_.key() + "#";
  for (auto& [k, v] : store_.scan_prefix(prefix)) {
    labels.push_back(k.substr(prefix.size()));
  }
  return labels;
}

}  // namespace sym::hepnos
