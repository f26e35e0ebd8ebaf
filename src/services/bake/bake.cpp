#include "services/bake/bake.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "argolite/runtime.hpp"

namespace sym::bake {
namespace {

constexpr const char* kCreateRpc = "bake_create_rpc";
constexpr const char* kWriteRpc = "bake_write_rpc";
constexpr const char* kPersistRpc = "bake_persist_rpc";
constexpr const char* kCwpRpc = "bake_create_write_persist_rpc";
constexpr const char* kReadRpc = "bake_read_rpc";
constexpr const char* kProbeRpc = "bake_probe_rpc";

// Memory-copy CPU cost for staging bulk data into a region.
constexpr double kCopyNsPerByte = 0.05;

// A read response is the data followed by a fixed trailer (u8 status, u32
// length), so the client strips the trailer and returns the received
// buffer without copying the data out of it.
constexpr std::size_t kReadTrailerBytes =
    sizeof(std::uint8_t) + sizeof(std::uint32_t);

}  // namespace

// ---------------------------------------------------------------------------
// StorageDevice
// ---------------------------------------------------------------------------

sim::DurationNs StorageDevice::write(std::uint64_t bytes) {
  const sim::TimeNs now = engine_.now();
  const sim::TimeNs start = now > busy_until_ ? now : busy_until_;
  const auto xfer = static_cast<sim::DurationNs>(
      std::llround(static_cast<double>(bytes) / write_bw_));
  busy_until_ = start + op_latency_ + xfer;
  bytes_written_ += bytes;
  const sim::DurationNs wait = busy_until_ - now;
  abt::sleep_for(wait);  // IO wait: the ULT blocks, the ES stays free
  return wait;
}

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

Provider::Provider(margo::Instance& mid, std::uint16_t provider_id)
    : mid_(mid), provider_id_(provider_id), device_(mid.engine()) {
  mid_.register_rpc(kCreateRpc, provider_id_,
                    [this](margo::Request& r) { handle_create(r); });
  mid_.register_rpc(kWriteRpc, provider_id_,
                    [this](margo::Request& r) { handle_write(r); });
  mid_.register_rpc(kPersistRpc, provider_id_,
                    [this](margo::Request& r) { handle_persist(r); });
  mid_.register_rpc(kCwpRpc, provider_id_,
                    [this](margo::Request& r) { handle_create_write_persist(r); });
  mid_.register_rpc(kReadRpc, provider_id_,
                    [this](margo::Request& r) { handle_read(r); });
  mid_.register_rpc(kProbeRpc, provider_id_,
                    [this](margo::Request& r) { handle_probe(r); });
}

const Region* Provider::region(std::uint64_t rid) const {
  auto it = regions_.find(rid);
  return it == regions_.end() ? nullptr : &it->second;
}

std::uint64_t Provider::do_create(std::uint64_t size) {
  const std::uint64_t rid = next_rid_++;
  Region& r = regions_[rid];
  r.capacity = size;
  mid_.process().add_rss(static_cast<std::int64_t>(size));
  return rid;
}

Status Provider::do_write(std::uint64_t rid, std::uint64_t offset,
                          const std::vector<std::byte>* content,
                          std::uint64_t bytes, margo::Request& req) {
  auto it = regions_.find(rid);
  if (it == regions_.end()) return Status::kNoRegion;
  Region& region = it->second;
  // The write must end inside the 64-bit offset space: a wrapped end would
  // skip the resize below and copy in front of the region buffer.
  if (bytes > UINT64_MAX - offset) return Status::kOutOfRange;

  // Pull blob content from the origin through the bulk interface.
  req.bulk_pull(bytes);
  // Staging copy into the region buffer.
  abt::compute(static_cast<sim::DurationNs>(
      std::llround(static_cast<double>(bytes) * kCopyNsPerByte)));
  const std::size_t copy =
      content != nullptr ? std::min<std::size_t>(content->size(), bytes) : 0;
  if (offset == region.data.size() && copy == bytes && copy > 0) {
    // Appending write: copy the content in without zero-filling first.
    region.data.insert(region.data.end(), content->begin(),
                       content->begin() + static_cast<std::ptrdiff_t>(copy));
  } else {
    if (region.data.size() < offset + bytes) {
      region.data.resize(offset + bytes);
    }
    if (copy > 0) {
      std::memcpy(region.data.data() + offset, content->data(), copy);
    }
  }
  region.persisted = false;
  return Status::kOk;
}

void Provider::handle_create(margo::Request& req) {
  auto r = req.reader();
  std::uint64_t size = 0;
  hg::get(r, size);
  req.respond_value(do_create(size));
}

void Provider::handle_write(margo::Request& req) {
  auto r = req.reader();
  std::uint64_t rid = 0, offset = 0, bytes = 0;
  hg::get(r, rid);
  hg::get(r, offset);
  hg::get(r, bytes);
  const auto* content = req.handle()->attached<std::vector<std::byte>>();
  req.respond_value(static_cast<std::uint8_t>(
      do_write(rid, offset, content, bytes, req)));
}

void Provider::handle_persist(margo::Request& req) {
  auto r = req.reader();
  std::uint64_t rid = 0;
  hg::get(r, rid);
  auto it = regions_.find(rid);
  if (it == regions_.end()) {
    req.respond_value(static_cast<std::uint8_t>(Status::kNoRegion));
    return;
  }
  device_.write(it->second.data.size());
  it->second.persisted = true;
  req.respond_value(static_cast<std::uint8_t>(Status::kOk));
}

void Provider::handle_create_write_persist(margo::Request& req) {
  auto r = req.reader();
  std::uint64_t bytes = 0;
  hg::get(r, bytes);
  const std::uint64_t rid = do_create(bytes);
  const auto* content = req.handle()->attached<std::vector<std::byte>>();
  do_write(rid, 0, content, bytes, req);
  device_.write(bytes);
  regions_[rid].persisted = true;
  req.respond_value(rid);
}

void Provider::handle_read(margo::Request& req) {
  auto r = req.reader();
  std::uint64_t rid = 0, offset = 0, len = 0;
  hg::get(r, rid);
  hg::get(r, offset);
  hg::get(r, len);
  auto it = regions_.find(rid);
  const Status status = it == regions_.end() ? Status::kNoRegion : Status::kOk;
  std::uint64_t n = 0;
  if (it != regions_.end()) {
    const Region& region = it->second;
    const std::uint64_t avail =
        offset < region.data.size() ? region.data.size() - offset : 0;
    n = std::min(len, avail);
  }
  hg::BufWriter w;
  w.reserve(n + kReadTrailerBytes);
  if (n > 0) w.write_raw(it->second.data.data() + offset, n);
  hg::put(w, static_cast<std::uint8_t>(status));
  hg::put(w, static_cast<std::uint32_t>(n));
  req.respond(w.take());
}

void Provider::handle_probe(margo::Request& req) {
  req.respond_value(static_cast<std::uint64_t>(regions_.size()));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(margo::Instance& mid)
    : mid_(mid),
      create_id_(mid.register_client_rpc(kCreateRpc)),
      write_id_(mid.register_client_rpc(kWriteRpc)),
      persist_id_(mid.register_client_rpc(kPersistRpc)),
      cwp_id_(mid.register_client_rpc(kCwpRpc)),
      read_id_(mid.register_client_rpc(kReadRpc)),
      probe_id_(mid.register_client_rpc(kProbeRpc)) {}

std::uint64_t Client::create(ofi::EpAddr target, std::uint16_t provider,
                             std::uint64_t size) {
  return hg::decode<std::uint64_t>(
      mid_.forward(target, provider, create_id_, hg::encode(size)));
}

Status Client::write(ofi::EpAddr target, std::uint16_t provider,
                     std::uint64_t rid, std::uint64_t offset,
                     std::shared_ptr<std::vector<std::byte>> data) {
  const std::uint64_t bytes = data != nullptr ? data->size() : 0;
  hg::BufWriter w;
  hg::put(w, rid);
  hg::put(w, offset);
  hg::put(w, bytes);
  auto op = mid_.forward_async(target, provider, write_id_, w.take(),
                               std::move(data), bytes);
  return static_cast<Status>(hg::decode<std::uint8_t>(op->wait()));
}

Status Client::persist(ofi::EpAddr target, std::uint16_t provider,
                       std::uint64_t rid) {
  return static_cast<Status>(hg::decode<std::uint8_t>(
      mid_.forward(target, provider, persist_id_, hg::encode(rid))));
}

std::uint64_t Client::create_write_persist(ofi::EpAddr target,
                                           std::uint16_t provider,
                                           std::vector<std::byte> data) {
  const std::uint64_t bytes = data.size();
  auto shared =
      // symlint: allow(may-allocate) reason=payload moves once into a
      // shared RPC buffer; client writes are service calls, not lane events
      std::make_shared<std::vector<std::byte>>(std::move(data));
  auto op = mid_.forward_async(target, provider, cwp_id_, hg::encode(bytes),
                               std::move(shared), bytes);
  return hg::decode<std::uint64_t>(op->wait());
}

std::vector<std::byte> Client::read(ofi::EpAddr target, std::uint16_t provider,
                                    std::uint64_t rid, std::uint64_t offset,
                                    std::uint64_t len) {
  hg::BufWriter w;
  hg::put(w, rid);
  hg::put(w, offset);
  hg::put(w, len);
  std::vector<std::byte> data =
      mid_.forward(target, provider, read_id_, w.take());
  if (data.size() < kReadTrailerBytes) {
    throw std::out_of_range("bake: short read response");
  }
  const std::size_t n = data.size() - kReadTrailerBytes;
  hg::BufReader r(data.data() + n, kReadTrailerBytes);
  std::uint8_t status = 0;
  std::uint32_t got = 0;
  hg::get(r, status);
  hg::get(r, got);
  if (got != n) throw std::out_of_range("bake: read length mismatch");
  data.resize(n);
  return data;
}

std::uint64_t Client::probe(ofi::EpAddr target, std::uint16_t provider) {
  return hg::decode<std::uint64_t>(
      mid_.forward(target, provider, probe_id_, {}));
}

}  // namespace sym::bake
