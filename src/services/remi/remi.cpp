#include "services/remi/remi.hpp"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace sym::remi {
namespace {

constexpr const char* kMigrateRpc = "remi_migrate_rpc";
constexpr const char* kReceiveRpc = "remi_receive_rpc";

}  // namespace

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

Provider::Provider(margo::Instance& mid, std::uint16_t provider_id,
                   sdskv::Provider& local_kv,
                   std::uint16_t local_kv_provider_id)
    : mid_(mid),
      provider_id_(provider_id),
      local_kv_(local_kv),
      local_kv_provider_id_(local_kv_provider_id),
      kv_client_(std::make_unique<sdskv::Client>(mid)) {
  mid_.register_rpc(kMigrateRpc, provider_id_,
                    [this](margo::Request& r) { handle_migrate(r); });
  receive_id_ =
      mid_.register_rpc(kReceiveRpc, provider_id_,
                        [this](margo::Request& r) { handle_receive(r); });
}

void Provider::handle_migrate(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t src_db = 0, dst_db = 0;
  ofi::EpAddr destination = ofi::kInvalidAddr;
  std::uint16_t destination_provider = 0;
  bool erase_source = false;
  hg::get(r, src_db);
  hg::get(r, destination);
  hg::get(r, destination_provider);
  hg::get(r, dst_db);
  hg::get(r, erase_source);
  ++migrations_;

  hg::BufWriter out;
  if (src_db >= local_kv_.db_count()) {
    hg::put(out, static_cast<std::uint8_t>(Status::kBadDb));
    hg::put(out, std::uint32_t{0});
    hg::put(out, std::uint64_t{0});
    req.respond(out.take());
    return;
  }

  // Read the whole source database: chunked scans through the backend,
  // appended one after the other to a put_packed list. The scans write the
  // pairs in that list's encoding, so the batch is never decoded; only the
  // last key of each chunk is read back, as the next chunk's start key.
  auto& db = local_kv_.db(src_db);
  hg::BufWriter all;
  hg::put(all, std::uint32_t{0});
  std::uint32_t items = 0;
  std::string cursor;
  for (;;) {
    const std::size_t chunk = all.size();
    const std::size_t n = db.list_keyvals(cursor, 256, all);
    if (n == 0) break;
    items += static_cast<std::uint32_t>(n);
    hg::BufReader r(all.buffer());
    r.skip(chunk);
    for (std::size_t i = 1; i < n; ++i) {
      for (int field = 0; field < 2; ++field) {
        std::uint32_t len = 0;
        hg::get(r, len);
        r.skip(len);
      }
    }
    hg::get(r, cursor);
  }
  all.patch_raw(0, &items, sizeof items);
  sdskv::KeyValueList batch(all.take());
  const std::uint64_t bytes = batch.pair_bytes();
  // The keys to erase after the transfer are taken now, so the batch can
  // go to the destination with no reference left here.
  std::vector<std::string> erase_keys;
  if (erase_source) {
    erase_keys.reserve(batch.size());
    for (const auto [key, value] : batch) erase_keys.emplace_back(key);
  }

  // Ship the fileset to the destination REMI provider: small metadata RPC,
  // content exposed for the destination's bulk pull.
  hg::BufWriter w;
  hg::put(w, dst_db);
  hg::put(w, items);
  hg::put(w, bytes);
  auto op = mid_.forward_async(
      destination, destination_provider, receive_id_, w.take(),
      std::make_shared<sdskv::KeyValueList>(std::move(batch)), bytes);
  const auto resp = op->wait();
  const auto status = static_cast<Status>(hg::decode<std::uint8_t>(resp));

  if (status == Status::kOk) {
    for (const auto& k : erase_keys) db.erase(k);
  }

  hg::put(out, static_cast<std::uint8_t>(status));
  hg::put(out, items);
  hg::put(out, bytes);
  req.respond(out.take());
}

void Provider::handle_receive(margo::Request& req) {
  auto r = req.reader();
  std::uint32_t dst_db = 0, items = 0;
  std::uint64_t bytes = 0;
  hg::get(r, dst_db);
  hg::get(r, items);
  hg::get(r, bytes);
  ++receives_;

  if (dst_db >= local_kv_.db_count()) {
    req.respond_value(static_cast<std::uint8_t>(Status::kBadDb));
    return;
  }

  // Pull the fileset content through the bulk interface...
  req.bulk_pull(bytes);
  auto* kvs = req.handle()->attached<sdskv::KeyValueList>();
  if (kvs == nullptr) {
    req.respond_value(static_cast<std::uint8_t>(Status::kTransferFailed));
    return;
  }
  // ...and load it into the local SDSKV database through the RPC stack
  // (self-addressed put_packed), extending the distributed callpath to
  // depth 3 for the end client. The source kept no reference to the batch,
  // so its encoding moves on without a copy.
  assert(req.handle()->attachment.use_count() == 1);
  const auto status = kv_client_->put_packed(
      mid_.addr(), local_kv_provider_id_, dst_db, std::move(*kvs));
  req.respond_value(static_cast<std::uint8_t>(
      status == sdskv::Status::kOk ? Status::kOk : Status::kTransferFailed));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(margo::Instance& mid)
    : mid_(mid), migrate_id_(mid.register_client_rpc(kMigrateRpc)) {
  mid.register_client_rpc(kReceiveRpc);
}

MigrationResult Client::migrate(ofi::EpAddr source,
                                std::uint16_t source_provider,
                                std::uint32_t src_db, ofi::EpAddr destination,
                                std::uint16_t destination_provider,
                                std::uint32_t dst_db, bool erase_source) {
  hg::BufWriter w;
  hg::put(w, src_db);
  hg::put(w, destination);
  hg::put(w, destination_provider);
  hg::put(w, dst_db);
  hg::put(w, erase_source);
  const auto resp = mid_.forward(source, source_provider, migrate_id_,
                                 w.take());
  hg::BufReader r(resp);
  MigrationResult result;
  std::uint8_t status = 0;
  hg::get(r, status);
  hg::get(r, result.items);
  hg::get(r, result.bytes);
  result.status = static_cast<Status>(status);
  return result;
}

}  // namespace sym::remi
