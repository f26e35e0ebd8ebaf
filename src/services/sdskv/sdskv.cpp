#include "services/sdskv/sdskv.hpp"

#include "argolite/runtime.hpp"

namespace sym::sdskv {
namespace {

constexpr const char* kPutRpc = "sdskv_put_rpc";
constexpr const char* kGetRpc = "sdskv_get_rpc";
constexpr const char* kPutPackedRpc = "sdskv_put_packed_rpc";
constexpr const char* kListKeyvalsRpc = "sdskv_list_keyvals_rpc";
constexpr const char* kLengthRpc = "sdskv_length_rpc";
constexpr const char* kEraseRpc = "sdskv_erase_rpc";

}  // namespace

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

Provider::Provider(margo::Instance& mid, std::uint16_t provider_id,
                   ProviderConfig config)
    : mid_(mid), provider_id_(provider_id) {
  dbs_.reserve(config.db_count);
  for (std::uint32_t i = 0; i < config.db_count; ++i) {
    dbs_.push_back(make_backend(config.backend, mid.process()));
  }
  mid_.register_rpc(kPutRpc, provider_id_,
                    [this](margo::Request& r) { handle_put(r); });
  mid_.register_rpc(kGetRpc, provider_id_,
                    [this](margo::Request& r) { handle_get(r); });
  mid_.register_rpc(kPutPackedRpc, provider_id_,
                    [this](margo::Request& r) { handle_put_packed(r); });
  mid_.register_rpc(kListKeyvalsRpc, provider_id_,
                    [this](margo::Request& r) { handle_list_keyvals(r); });
  mid_.register_rpc(kLengthRpc, provider_id_,
                    [this](margo::Request& r) { handle_length(r); });
  mid_.register_rpc(kEraseRpc, provider_id_,
                    [this](margo::Request& r) { handle_erase(r); });
}

std::size_t Provider::total_size() const noexcept {
  std::size_t n = 0;
  for (const auto& db : dbs_) n += db->size();
  return n;
}

void Provider::handle_put(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t db_id = 0;
  std::string key, value;
  hg::get(r, db_id);
  hg::get(r, key);
  hg::get(r, value);
  Backend* db = db_or_null(db_id);
  if (db == nullptr) {
    req.respond_value(static_cast<std::uint8_t>(Status::kBadDb));
    return;
  }
  db->put(key, value);
  req.respond_value(static_cast<std::uint8_t>(Status::kOk));
}

void Provider::handle_get(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t db_id = 0;
  std::string key;
  hg::get(r, db_id);
  hg::get(r, key);
  hg::BufWriter w;
  Backend* db = db_or_null(db_id);
  if (db == nullptr) {
    hg::put(w, static_cast<std::uint8_t>(Status::kBadDb));
    hg::put(w, std::string());
    req.respond(w.take());
    return;
  }
  std::string value;
  const bool found = db->get(key, &value);
  hg::put(w, static_cast<std::uint8_t>(found ? Status::kOk
                                             : Status::kNotFound));
  hg::put(w, value);
  req.respond(w.take());
}

void Provider::handle_put_packed(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t db_id = 0;
  std::uint32_t count = 0;
  std::uint64_t bytes = 0;
  hg::get(r, db_id);
  hg::get(r, count);
  hg::get(r, bytes);
  Backend* db = db_or_null(db_id);
  if (db == nullptr) {
    req.respond_value(static_cast<std::uint8_t>(Status::kBadDb));
    return;
  }
  // Pull the key-value content from the origin through the bulk interface
  // (the paper: "this RPC call typically results in the target issuing a
  // bulk data transfer to pull in the key-value content").
  req.bulk_pull(bytes);
  // Decode the packed buffer into pairs. This is parallel CPU work in the
  // handler ULT — only the map insertion itself serializes on the
  // database's writer lock.
  constexpr double kPackedDecodeNsPerByte = 2.0;
  abt::compute(sim::nsec(600) +
               static_cast<sim::DurationNs>(static_cast<double>(bytes) *
                                            kPackedDecodeNsPerByte));
  // The batch arrives in the encoding the store keeps, so the database
  // copies each pair's bytes from it into a page once. It is freed at
  // once: the handle lives on until the response has been sent.
  if (const auto* kvs = req.handle()->attached<KeyValueList>()) {
    db->put_multi(*kvs);
    req.handle()->attachment.reset();
  }
  req.respond_value(static_cast<std::uint8_t>(Status::kOk));
}

void Provider::handle_list_keyvals(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t db_id = 0;
  std::string start_key;
  std::uint32_t max = 0;
  hg::get(r, db_id);
  hg::get(r, start_key);
  hg::get(r, max);
  Backend* db = db_or_null(db_id);
  // The store keeps its pairs in the wire encoding, so the scan copies
  // them into the response: the bytes are those of
  // hg::encode(std::vector<KeyValue>), the count patched in once the scan
  // is done.
  hg::BufWriter w;
  hg::put(w, std::uint32_t{0});
  std::uint32_t count = 0;
  if (db != nullptr) {
    count = static_cast<std::uint32_t>(db->list_keyvals(start_key, max, w));
  }
  w.patch_raw(0, &count, sizeof count);
  req.respond(w.take());
}

void Provider::handle_length(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t db_id = 0;
  std::string key;
  hg::get(r, db_id);
  hg::get(r, key);
  hg::BufWriter w;
  Backend* db = db_or_null(db_id);
  std::string value;
  if (db != nullptr && db->get(key, &value)) {
    hg::put(w, static_cast<std::uint8_t>(Status::kOk));
    hg::put(w, static_cast<std::uint64_t>(value.size()));
  } else {
    hg::put(w, static_cast<std::uint8_t>(db == nullptr ? Status::kBadDb
                                                       : Status::kNotFound));
    hg::put(w, std::uint64_t{0});
  }
  req.respond(w.take());
}

void Provider::handle_erase(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t db_id = 0;
  std::string key;
  hg::get(r, db_id);
  hg::get(r, key);
  Backend* db = db_or_null(db_id);
  if (db == nullptr) {
    req.respond_value(static_cast<std::uint8_t>(Status::kBadDb));
    return;
  }
  req.respond_value(static_cast<std::uint8_t>(
      db->erase(key) ? Status::kOk : Status::kNotFound));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(margo::Instance& mid)
    : mid_(mid),
      put_id_(mid.register_client_rpc(kPutRpc)),
      get_id_(mid.register_client_rpc(kGetRpc)),
      put_packed_id_(mid.register_client_rpc(kPutPackedRpc)),
      list_id_(mid.register_client_rpc(kListKeyvalsRpc)),
      length_id_(mid.register_client_rpc(kLengthRpc)),
      erase_id_(mid.register_client_rpc(kEraseRpc)) {}

Status Client::put(ofi::EpAddr target, std::uint16_t provider,
                   std::uint32_t db, const std::string& key,
                   const std::string& value) {
  hg::BufWriter w;
  hg::put(w, db);
  hg::put(w, key);
  hg::put(w, value);
  const auto resp = mid_.forward(target, provider, put_id_, w.take());
  return static_cast<Status>(hg::decode<std::uint8_t>(resp));
}

Status Client::get(ofi::EpAddr target, std::uint16_t provider,
                   std::uint32_t db, const std::string& key,
                   std::string* value) {
  hg::BufWriter w;
  hg::put(w, db);
  hg::put(w, key);
  const auto resp = mid_.forward(target, provider, get_id_, w.take());
  hg::BufReader r(resp);
  std::uint8_t status = 0;
  std::string v;
  hg::get(r, status);
  hg::get(r, v);
  if (value != nullptr) *value = std::move(v);
  return static_cast<Status>(status);
}

margo::PendingOpPtr Client::iput_packed(ofi::EpAddr target,
                                        std::uint16_t provider,
                                        std::uint32_t db, KeyValueList kvs) {
  const std::uint64_t bytes = kvs.pair_bytes();
  const auto count = static_cast<std::uint32_t>(kvs.size());
  hg::BufWriter w;
  hg::put(w, db);
  hg::put(w, count);
  hg::put(w, bytes);
  // The batch goes to the provider: no reference to it stays here.
  return mid_.forward_async(
      target, provider, put_packed_id_, w.take(),
      std::make_shared<KeyValueList>(std::move(kvs)), bytes);
}

Status Client::finish_put_packed(const margo::PendingOpPtr& op) {
  // Busy early-rejects (admission control) are retried with backoff; the
  // reject hands the request input and the bulk attachment back on the
  // handle, so the op can be re-forwarded as-is.
  const auto& resp = op->wait_retry();
  if (op->busy()) return Status::kBusy;
  return static_cast<Status>(hg::decode<std::uint8_t>(resp));
}

Status Client::put_packed(ofi::EpAddr target, std::uint16_t provider,
                          std::uint32_t db, KeyValueList kvs) {
  return finish_put_packed(iput_packed(target, provider, db, std::move(kvs)));
}

Status Client::put_packed(ofi::EpAddr target, std::uint16_t provider,
                          std::uint32_t db, const std::vector<KeyValue>& kvs) {
  return put_packed(target, provider, db, KeyValueList(hg::encode(kvs)));
}

KeyValueList Client::list_keyvals(ofi::EpAddr target, std::uint16_t provider,
                                  std::uint32_t db,
                                  const std::string& start_key,
                                  std::uint32_t max) {
  hg::BufWriter w;
  hg::put(w, db);
  hg::put(w, start_key);
  hg::put(w, max);
  return KeyValueList(mid_.forward(target, provider, list_id_, w.take()));
}

Status Client::length(ofi::EpAddr target, std::uint16_t provider,
                      std::uint32_t db, const std::string& key,
                      std::uint64_t* len) {
  hg::BufWriter w;
  hg::put(w, db);
  hg::put(w, key);
  const auto resp = mid_.forward(target, provider, length_id_, w.take());
  hg::BufReader r(resp);
  std::uint8_t status = 0;
  std::uint64_t n = 0;
  hg::get(r, status);
  hg::get(r, n);
  if (len != nullptr) *len = n;
  return static_cast<Status>(status);
}

Status Client::erase(ofi::EpAddr target, std::uint16_t provider,
                     std::uint32_t db, const std::string& key) {
  hg::BufWriter w;
  hg::put(w, db);
  hg::put(w, key);
  const auto resp = mid_.forward(target, provider, erase_id_, w.take());
  return static_cast<Status>(hg::decode<std::uint8_t>(resp));
}

}  // namespace sym::sdskv
