#include "services/mobject/mobject.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace sym::mobject {
namespace {

constexpr const char* kWriteOpRpc = "mobject_write_op";
constexpr const char* kReadOpRpc = "mobject_read_op";

std::string oid_key(const std::string& name) { return "oid/" + name; }
std::string seq_key(const std::string& name) { return "seq/" + name; }
std::string extent_key(const std::string& name, std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%016llx",
                static_cast<unsigned long long>(seq));
  return "extent/" + name + buf;
}
std::string omap_key(const std::string& name, std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%016llx",
                static_cast<unsigned long long>(seq));
  return "omap/" + name + buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(margo::Instance& mid, ServerConfig config)
    : mid_(mid), cfg_(config) {
  meta_ = std::make_unique<sdskv::Provider>(
      mid_, cfg_.sdskv_provider,
      sdskv::ProviderConfig{.backend = cfg_.meta_backend, .db_count = 1});
  data_ = std::make_unique<bake::Provider>(mid_, cfg_.bake_provider);
  kv_ = std::make_unique<sdskv::Client>(mid_);
  blob_ = std::make_unique<bake::Client>(mid_);

  mid_.register_rpc(kWriteOpRpc, cfg_.mobject_provider,
                    [this](margo::Request& r) { handle_write_op(r); });
  mid_.register_rpc(kReadOpRpc, cfg_.mobject_provider,
                    [this](margo::Request& r) { handle_read_op(r); });
}

void Server::handle_write_op(margo::Request& req) {
  // Decode: object name + payload size; the payload itself is attached
  // (bulk) and pulled by BAKE below.
  auto r = req.reader();
  std::string name;
  std::uint64_t bytes = 0;
  hg::get(r, name);
  hg::get(r, bytes);
  ++writes_;

  const auto self = mid_.addr();
  const auto kvp = cfg_.sdskv_provider;
  const auto bkp = cfg_.bake_provider;

  // The sequencer translates the RADOS op into 12 discrete downstream
  // microservice calls (3 gets, 3 BAKE ops, 4 puts, 2 scans), control
  // returning to the Mobject provider after each.
  std::string oid;
  kv_->get(self, kvp, 0, oid_key(name), &oid);                      // 1 get
  if (oid.empty()) {
    oid = name;
    kv_->put(self, kvp, 0, oid_key(name), oid);                     // 2 put
  } else {
    kv_->put(self, kvp, 0, oid_key(name), oid);                     // 2 put
  }
  std::string seq_text;
  kv_->get(self, kvp, 0, seq_key(name), &seq_text);                 // 3 get
  const std::uint64_t seq = ++seq_;
  kv_->put(self, kvp, 0, seq_key(name), std::to_string(seq));       // 4 put

  // Object data path through BAKE: create, write (bulk pull of the client
  // payload relayed via our attachment), persist.
  const std::uint64_t rid = blob_->create(self, bkp, bytes);        // 5 bake
  {
    // Relay the client's attached payload to BAKE as the same buffer
    // (sizes drive the timing; content rides along). The attachment moves
    // on with the BAKE request.
    auto payload = std::static_pointer_cast<std::vector<std::byte>>(
        std::move(req.handle()->attachment));
    if (payload == nullptr) {
      payload = std::make_shared<std::vector<std::byte>>(bytes);
    }
    req.bulk_pull(bytes);  // pull the client's payload into our memory
    blob_->write(self, bkp, rid, 0, std::move(payload));            // 6 bake
  }
  blob_->persist(self, bkp, rid);                                   // 7 bake

  // Metadata updates: extent map, omap entry, a verification get, and two
  // omap/extent scans used by the sequencer's consistency pass.
  kv_->put(self, kvp, 0, extent_key(name, seq), std::to_string(rid));  // 8
  kv_->put(self, kvp, 0, omap_key(name, seq), std::to_string(bytes));  // 9
  std::string verify;
  kv_->get(self, kvp, 0, extent_key(name, seq), &verify);          // 10 get
  kv_->list_keyvals(self, kvp, 0, "extent/" + name, 4);            // 11 scan
  kv_->list_keyvals(self, kvp, 0, "omap/" + name, 4);              // 12 scan

  req.respond_value(seq);
}

void Server::handle_read_op(margo::Request& req) {
  auto r = req.reader();
  std::string name;
  hg::get(r, name);
  ++reads_;

  const auto self = mid_.addr();
  const auto kvp = cfg_.sdskv_provider;
  const auto bkp = cfg_.bake_provider;

  // Dominant dependency: the extent scan (sdskv_list_keyvals_rpc), exactly
  // as the paper's Fig. 6 shows for mobject_read_op. The sequencer scans the
  // whole extent namespace to locate the object's extents, so scan cost
  // grows with the number of objects stored.
  const auto extents = kv_->list_keyvals(self, kvp, 0, "extent/", 512);
  std::string oid;
  kv_->get(self, kvp, 0, oid_key(name), &oid);

  std::vector<std::byte> data;
  if (!extents.empty()) {
    std::string_view last_rid;
    for (const auto& [key, value] : extents) last_rid = value;
    std::uint64_t rid = 0;
    std::from_chars(last_rid.data(), last_rid.data() + last_rid.size(), rid);
    data = blob_->read(self, bkp, rid, 0, ~0ULL >> 1);
  }
  // Response layout: the object bytes, then their u32 length. BAKE's read
  // buffer is extended in place and the client returns it as received.
  hg::BufWriter w(std::move(data));
  hg::put(w, static_cast<std::uint32_t>(w.size()));
  req.respond(w.take());
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(margo::Instance& mid)
    : mid_(mid),
      write_id_(mid.register_client_rpc(kWriteOpRpc)),
      read_id_(mid.register_client_rpc(kReadOpRpc)) {}

std::uint64_t Client::write_op(ofi::EpAddr target, std::uint16_t provider,
                               const std::string& name,
                               std::vector<std::byte> data) {
  const std::uint64_t bytes = data.size();
  auto shared = std::make_shared<std::vector<std::byte>>(std::move(data));
  hg::BufWriter w;
  hg::put(w, name);
  hg::put(w, bytes);
  auto op = mid_.forward_async(target, provider, write_id_, w.take(),
                               std::move(shared), bytes);
  return hg::decode<std::uint64_t>(op->wait());
}

std::vector<std::byte> Client::read_op(ofi::EpAddr target,
                                       std::uint16_t provider,
                                       const std::string& name) {
  std::vector<std::byte> data =
      mid_.forward(target, provider, read_id_, hg::encode(name));
  if (data.size() < sizeof(std::uint32_t)) {
    throw std::out_of_range("mobject: short read response");
  }
  const std::size_t n = data.size() - sizeof(std::uint32_t);
  hg::BufReader r(data.data() + n, sizeof(std::uint32_t));
  std::uint32_t len = 0;
  hg::get(r, len);
  if (len != n) throw std::out_of_range("mobject: read length mismatch");
  data.resize(n);
  return data;
}

}  // namespace mobject = sym::mobject
