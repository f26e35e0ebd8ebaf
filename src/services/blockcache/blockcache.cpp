#include "services/blockcache/blockcache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "argolite/runtime.hpp"

namespace sym::blockcache {
namespace {

constexpr const char* kReadRpc = "bc_read_rpc";
constexpr const char* kWriteRpc = "bc_write_rpc";
constexpr const char* kFlushRpc = "bc_flush_rpc";

// Staging-copy CPU cost when moving bytes between a request and a cached
// block (same constant family as BAKE's region staging copy).
constexpr double kCopyNsPerByte = 0.05;

}  // namespace

// ---------------------------------------------------------------------------
// Provider: construction and registration
// ---------------------------------------------------------------------------

Provider::Provider(margo::Instance& mid, std::uint16_t provider_id,
                   ProviderConfig config)
    : mid_(mid),
      provider_id_(provider_id),
      cfg_(config),
      backend_(mid),
      sched_(config.policy) {
  if (cfg_.readahead_blocks == 0) cfg_.readahead_blocks = 1;
  if (cfg_.capacity_blocks == 0) cfg_.capacity_blocks = 1;
  mid_.register_rpc(kReadRpc, provider_id_,
                    [this](margo::Request& r) { handle_read(r); });
  mid_.register_rpc(kWriteRpc, provider_id_,
                    [this](margo::Request& r) { handle_write(r); });
  mid_.register_rpc(kFlushRpc, provider_id_,
                    [this](margo::Request& r) { handle_flush(r); });
  register_pvars();
}

void Provider::start() {
  if (started_) return;
  started_ = true;
  // The dispatcher runs in the handler pool: it competes for handler ESs
  // exactly like the request ULTs whose work it serializes, so dispatcher
  // CPU shows up in the same pool accounting.
  mid_.runtime().create_ult(mid_.handler_pool(), [this] { dispatch_loop(); });
  if (cfg_.flush_period > 0) {
    mid_.runtime().create_ult(mid_.handler_pool(), [this] { flusher_loop(); });
  }
}

void Provider::register_pvars() {
  auto& reg = mid_.hg_class().pvars();
  using hg::PvarBind;
  using hg::PvarClass;

  reg.add({"bc_hits", "blockcache read hits", PvarClass::kCounter,
           PvarBind::kNoObject, false},
          [this](const hg::Handle*) { return static_cast<double>(hits_); });
  reg.add({"bc_misses", "blockcache read misses", PvarClass::kCounter,
           PvarBind::kNoObject, false},
          [this](const hg::Handle*) { return static_cast<double>(misses_); });
  reg.add({"bc_hit_ratio", "blockcache hit ratio over all reads",
           PvarClass::kLevel, PvarBind::kNoObject, false},
          [this](const hg::Handle*) { return hit_ratio(); });
  reg.add({"bc_occupancy_blocks", "cached blocks currently resident",
           PvarClass::kLevel, PvarBind::kNoObject, false},
          [this](const hg::Handle*) {
            return static_cast<double>(blocks_.size());
          });
  reg.add({"bc_dirty_blocks", "resident blocks with unflushed writes",
           PvarClass::kLevel, PvarBind::kNoObject, false},
          [this](const hg::Handle*) { return static_cast<double>(dirty_); });
  reg.add({"bc_evictions", "blocks evicted to make room", PvarClass::kCounter,
           PvarBind::kNoObject, false},
          [this](const hg::Handle*) {
            return static_cast<double>(evictions_);
          });
  reg.add({"bc_backend_reads", "backend fetch RPCs issued",
           PvarClass::kCounter, PvarBind::kNoObject, false},
          [this](const hg::Handle*) {
            return static_cast<double>(backend_reads_);
          });
  reg.add({"bc_writeback_ops", "coalesced backend write RPCs issued",
           PvarClass::kCounter, PvarBind::kNoObject, false},
          [this](const hg::Handle*) {
            return static_cast<double>(writeback_ops_);
          });
  reg.add({"bc_writeback_bytes", "bytes written back to the backend",
           PvarClass::kCounter, PvarBind::kNoObject, false},
          [this](const hg::Handle*) {
            return static_cast<double>(writeback_bytes_);
          });
  reg.add({"bc_queue_depth", "requests queued in the fair-share scheduler",
           PvarClass::kLevel, PvarBind::kNoObject, false},
          [this](const hg::Handle*) {
            return static_cast<double>(sched_.depth());
          });

  // Writable actuator knobs — the PolicyEngine's second actuator surface.
  reg.add({"bc_capacity_blocks", "cache capacity in blocks (writable)",
           PvarClass::kSize, PvarBind::kNoObject, true},
          [this](const hg::Handle*) {
            return static_cast<double>(cfg_.capacity_blocks);
          },
          [this](double v) {
            if (v >= 1) pending_capacity_ = static_cast<std::uint32_t>(v);
          });

  // Per-tenant queue depth and service share, one PVAR slot per tenant id
  // below kMaxTenants (ids beyond the slots are scheduled normally, they
  // just are not individually observable).
  for (std::uint32_t k = 0; k < kMaxTenants; ++k) {
    const std::string t = "bc_t" + std::to_string(k);
    reg.add({t + "_queue_depth", "queued requests of tenant " +
             std::to_string(k), PvarClass::kLevel, PvarBind::kNoObject, false},
            [this, k](const hg::Handle*) {
              return static_cast<double>(sched_.depth_of(k));
            });
    reg.add({t + "_service_share", "fraction of served bytes to tenant " +
             std::to_string(k), PvarClass::kLevel, PvarBind::kNoObject, false},
            [this, k](const hg::Handle*) { return sched_.service_share(k); });
  }
}

// ---------------------------------------------------------------------------
// Handlers: parse, enqueue, wait, respond
// ---------------------------------------------------------------------------

void Provider::handle_read(margo::Request& req) {
  auto r = req.reader();
  QueuedOp op;
  op.kind = OpKind::kRead;
  std::uint32_t width = 0;
  hg::get(r, op.tenant);
  hg::get(r, width);
  hg::get(r, op.object);
  hg::get(r, op.block);
  sched_.enqueue(op.tenant, width, cfg_.block_bytes, &op);
  op.done.wait();
  hg::BufWriter w;
  hg::put(w, static_cast<std::uint8_t>(op.status));
  hg::put(w, static_cast<std::uint32_t>(op.out.size()));
  w.write_raw(op.out.data(), op.out.size());
  req.respond(w.take());
}

void Provider::handle_write(margo::Request& req) {
  auto r = req.reader();
  QueuedOp op;
  op.kind = OpKind::kWrite;
  std::uint32_t width = 0;
  hg::get(r, op.tenant);
  hg::get(r, width);
  hg::get(r, op.object);
  hg::get(r, op.offset);
  hg::get(r, op.bytes);
  // Pull the payload from the origin before queueing: the transfer belongs
  // to the RPC, the queueing delay to the scheduler.
  req.bulk_pull(op.bytes);
  op.payload = req.handle()->attached<std::vector<std::byte>>();
  sched_.enqueue(op.tenant, width, op.bytes, &op);
  op.done.wait();
  req.respond_value(static_cast<std::uint8_t>(op.status));
}

void Provider::handle_flush(margo::Request& req) {
  auto r = req.reader();
  QueuedOp op;
  op.kind = OpKind::kFlush;
  std::uint32_t width = 0;
  hg::get(r, op.tenant);
  hg::get(r, width);
  sched_.enqueue(op.tenant, width, 0, &op);
  op.done.wait();
  req.respond_value(static_cast<std::uint8_t>(op.status));
}

// ---------------------------------------------------------------------------
// Dispatcher: the fair-share arbitration point
// ---------------------------------------------------------------------------

void Provider::dispatch_loop() {
  for (;;) {
    apply_pending_controls();
    if (auto next = sched_.pop_next()) {
      service(**next);
      continue;
    }
    if (mid_.finalized()) break;
    abt::sleep_for(kDispatchPoll);
  }
}

void Provider::flusher_loop() {
  // The flusher never touches blocks_ itself: a write-back sweep blocks on
  // backend RPCs, and running it concurrently with the dispatcher would
  // put two ULTs inside the cache structures. Stage a request instead.
  while (!mid_.finalized()) {
    abt::sleep_for(cfg_.flush_period);
    if (mid_.finalized()) break;
    if (dirty_ > 0) flush_due_ = true;
  }
}

void Provider::service(QueuedOp& op) {
  // Service cost: fixed per-request CPU plus the byte transfer through the
  // cache device. The single dispatcher serializes this, so the server is
  // a contended resource and queueing shows up in the t5..t8 spans of the
  // waiting handler ULTs.
  abt::compute(cfg_.service_op_cost);
  const std::uint64_t move_bytes =
      op.kind == OpKind::kRead ? cfg_.block_bytes : op.bytes;
  if (move_bytes > 0 && cfg_.service_bw_bytes_per_ns > 0) {
    abt::sleep_for(static_cast<sim::DurationNs>(
        std::llround(static_cast<double>(move_bytes) /
                     cfg_.service_bw_bytes_per_ns)));
  }
  switch (op.kind) {
    case OpKind::kRead: service_read(op); break;
    case OpKind::kWrite: service_write(op); break;
    case OpKind::kFlush: writeback_all(); break;
  }
  op.done.set();
}

void Provider::service_read(QueuedOp& op) {
  ++read_ops_;
  const BlockKey key{op.object, op.block};
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    ++misses_;
    fetch_fill(key, readahead_for(key));
    it = blocks_.find(key);
    if (it == blocks_.end()) {
      // The readahead fill evicted the target itself (capacity smaller
      // than the fetch run): re-fetch just the one block.
      fetch_fill(key, 1);
      it = blocks_.find(key);
    }
  } else {
    ++hits_;
  }
  Block& b = it->second;
  touch(b);
  abt::compute(static_cast<sim::DurationNs>(
      std::llround(static_cast<double>(cfg_.block_bytes) * kCopyNsPerByte)));
  op.out = b.data;
  op.status = Status::kOk;
}

void Provider::service_write(QueuedOp& op) {
  ++write_ops_;
  if (op.bytes == 0) {
    op.status = Status::kBadRequest;
    return;
  }
  const std::uint32_t bs = cfg_.block_bytes;
  std::uint64_t remaining = op.bytes;
  std::uint64_t src = 0;  // offset into the payload
  std::uint64_t pos = op.offset;
  while (remaining > 0) {
    const BlockKey key{op.object, static_cast<std::uint32_t>(pos / bs)};
    const std::uint32_t lo = static_cast<std::uint32_t>(pos % bs);
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(bs - lo, remaining));
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      if (lo != 0 || n != bs) {
        // Partial-block write to an absent block: read-modify-write.
        fetch_fill(key, 1);
        it = blocks_.find(key);
      }
      if (it == blocks_.end()) {
        insert_block(key);
        it = blocks_.find(key);
      }
    }
    Block& b = it->second;
    const bool was_dirty = b.dirty();
    if (op.payload != nullptr && src < op.payload->size()) {
      const std::size_t avail =
          std::min<std::size_t>(n, op.payload->size() - src);
      std::memcpy(b.data.data() + lo, op.payload->data() + src, avail);
    }
    abt::compute(static_cast<sim::DurationNs>(
        std::llround(static_cast<double>(n) * kCopyNsPerByte)));
    b.dirty_lo = was_dirty ? std::min(b.dirty_lo, lo) : lo;
    b.dirty_hi = was_dirty ? std::max(b.dirty_hi, lo + n) : lo + n;
    if (!was_dirty) ++dirty_;
    touch(b);
    pos += n;
    src += n;
    remaining -= n;
  }
  op.status = Status::kOk;
  if (cfg_.writeback_watermark > 0 && dirty_ >= cfg_.writeback_watermark) {
    writeback_all();
  }
}

void Provider::apply_pending_controls() {
  if (flush_due_) {
    flush_due_ = false;
    if (dirty_ > 0) writeback_all();
  }
  if (pending_capacity_ != 0) {
    cfg_.capacity_blocks = pending_capacity_;
    pending_capacity_ = 0;
    while (blocks_.size() > cfg_.capacity_blocks) evict_one();
  }
}

// ---------------------------------------------------------------------------
// Backend fetch path (miss handling + readahead)
// ---------------------------------------------------------------------------

std::uint32_t Provider::readahead_for(const BlockKey& key) const {
  if (cfg_.readahead_blocks <= 1) return 1;
  const auto it = streams_.find(key.object);
  if (it == streams_.end()) return 1;
  const auto& expected = it->second;
  if (std::find(expected.begin(), expected.end(), key.block) ==
      expected.end()) {
    return 1;
  }
  // Sequential miss run detected: batch the fetch. Clamp to capacity so a
  // tiny cache cannot evict its own readahead wholesale.
  return std::min(cfg_.readahead_blocks, cfg_.capacity_blocks);
}

void Provider::fetch_fill(const BlockKey& key, std::uint32_t count) {
  const sim::TimeNs fetch_start = mid_.engine().now();
  const std::uint64_t rid = region_of(key.object);
  const std::uint64_t bs = cfg_.block_bytes;
  const std::uint64_t len = static_cast<std::uint64_t>(count) * bs;
  const auto data = backend_.read(cfg_.backend, cfg_.backend_provider, rid,
                                  key.block * bs, len);
  ++backend_reads_;
  backend_read_bytes_ += len;
  mid_.record_action_span("bc_fetch", fetch_start);

  const sim::TimeNs fill_start = mid_.engine().now();
  for (std::uint32_t i = 0; i < count; ++i) {
    const BlockKey k{key.object, key.block + i};
    if (blocks_.find(k) != blocks_.end()) continue;  // never clobber dirty data
    Block& b = insert_block(k);
    const std::uint64_t off = static_cast<std::uint64_t>(i) * bs;
    if (off < data.size()) {
      const std::size_t n = std::min<std::size_t>(bs, data.size() - off);
      std::memcpy(b.data.data(), data.data() + off, n);
    }
  }
  // Advance (or open) the sequential stream this fetch belongs to; oldest
  // streams age out so the detector stays bounded per object.
  auto& expected = streams_[key.object];
  const auto matched =
      std::find(expected.begin(), expected.end(), key.block);
  if (matched != expected.end()) expected.erase(matched);
  expected.push_back(key.block + count);
  while (expected.size() > kMaxStreamsPerObject) expected.pop_front();
  mid_.record_action_span("bc_fill", fill_start);
}

std::uint64_t Provider::region_of(std::uint64_t object) {
  const auto it = regions_.find(object);
  if (it != regions_.end()) return it->second;
  const std::uint64_t rid =
      backend_.create(cfg_.backend, cfg_.backend_provider, 0);
  regions_.emplace(object, rid);
  return rid;
}

// ---------------------------------------------------------------------------
// Residency: insertion, LRU touch, eviction
// ---------------------------------------------------------------------------

Provider::Block& Provider::insert_block(const BlockKey& key) {
  while (blocks_.size() >= cfg_.capacity_blocks) evict_one();
  Block b;
  b.data.assign(cfg_.block_bytes, std::byte{0});
  auto [it, inserted] = blocks_.emplace(key, std::move(b));
  lru_.push_back(key);
  it->second.lru_pos = std::prev(lru_.end());
  mid_.process().add_rss(cfg_.block_bytes);
  return it->second;
}

void Provider::touch(Block& b) {
  lru_.splice(lru_.end(), lru_, b.lru_pos);
  b.lru_pos = std::prev(lru_.end());
}

void Provider::evict_one() {
  const sim::TimeNs started = mid_.engine().now();
  const auto it = blocks_.find(lru_.front());
  if (it->second.dirty()) writeback_run(it->first, 1);
  lru_.erase(it->second.lru_pos);
  blocks_.erase(it);
  mid_.process().add_rss(-static_cast<std::int64_t>(cfg_.block_bytes));
  ++evictions_;
  mid_.record_action_span("bc_evict", started);
}

// ---------------------------------------------------------------------------
// Write-back: coalesce adjacent dirty blocks into large backend writes
// ---------------------------------------------------------------------------

void Provider::writeback_all() {
  // blocks_ is ordered by (object, block), so one ordered sweep finds every
  // maximal run of consecutive dirty blocks per object.
  std::vector<std::pair<BlockKey, std::uint32_t>> runs;
  bool in_run = false;
  BlockKey run_start{};
  std::uint32_t run_len = 0;
  BlockKey prev{};
  for (const auto& [key, b] : blocks_) {
    const bool extends = in_run && key.object == prev.object &&
                         key.block == prev.block + 1 && b.dirty();
    if (extends) {
      ++run_len;
    } else {
      if (in_run) runs.emplace_back(run_start, run_len);
      in_run = b.dirty();
      run_start = key;
      run_len = 1;
    }
    prev = key;
  }
  if (in_run) runs.emplace_back(run_start, run_len);
  for (const auto& [start, len] : runs) writeback_run(start, len);
}

void Provider::writeback_run(const BlockKey& first, std::uint32_t count) {
  const sim::TimeNs started = mid_.engine().now();
  const std::uint64_t bs = cfg_.block_bytes;
  std::vector<std::byte> payload;
  payload.reserve(static_cast<std::size_t>(count) * bs);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto it = blocks_.find(BlockKey{first.object, first.block + i});
    Block& b = it->second;
    payload.insert(payload.end(), b.data.begin(), b.data.end());
    if (b.dirty()) --dirty_;
    b.dirty_lo = 0;
    b.dirty_hi = 0;
  }
  const std::uint64_t rid = region_of(first.object);
  backend_.write(cfg_.backend, cfg_.backend_provider, rid, first.block * bs,
                 // symlint: allow(may-allocate) reason=payload moves once
                 // into the shared buffer BAKE pulls from; writebacks are
                 // service calls, not lane events
                 std::make_shared<std::vector<std::byte>>(
                     std::move(payload)));
  ++writeback_ops_;
  writeback_bytes_ += static_cast<std::uint64_t>(count) * bs;
  mid_.record_action_span("bc_writeback", started);
}

// ---------------------------------------------------------------------------
// PolicyEngine actuator rule
// ---------------------------------------------------------------------------

margo::PolicyRule Provider::capacity_autoscale(double min_hit_ratio,
                                               std::uint32_t step_blocks,
                                               std::uint32_t cap_blocks) {
  auto last_evictions = std::make_shared<double>(0.0);
  return [=](margo::Instance& inst,
             const margo::PolicySample&) -> std::optional<std::string> {
    auto session = inst.hg_class().pvar_session_init();
    const auto pv_ratio = session.alloc("bc_hit_ratio");
    const auto pv_evict = session.alloc("bc_evictions");
    const auto pv_cap = session.alloc("bc_capacity_blocks");
    if (!pv_ratio.valid() || !pv_evict.valid() || !pv_cap.valid()) {
      return std::nullopt;  // no blockcache provider on this instance
    }
    const double ratio = session.read(pv_ratio);
    const double evictions = session.read(pv_evict);
    const double cap = session.read(pv_cap);
    const bool thrashing =
        ratio < min_hit_ratio && evictions > *last_evictions;
    *last_evictions = evictions;
    if (!thrashing || cap >= cap_blocks) return std::nullopt;
    const double grown =
        std::min<double>(cap_blocks, cap + static_cast<double>(step_blocks));
    session.write(pv_cap, grown);
    return "bc_capacity_blocks " + std::to_string(static_cast<long>(cap)) +
           " -> " + std::to_string(static_cast<long>(grown)) +
           " (hit ratio " + std::to_string(ratio) + ")";
  };
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(margo::Instance& mid, View view, std::uint32_t tenant,
               std::uint32_t job_width)
    : mid_(mid),
      view_(std::move(view)),
      tenant_(tenant),
      width_(job_width == 0 ? 1 : job_width),
      read_id_(mid.register_client_rpc(kReadRpc)),
      write_id_(mid.register_client_rpc(kWriteRpc)),
      flush_id_(mid.register_client_rpc(kFlushRpc)) {}

std::vector<std::byte> Client::read(std::uint64_t object,
                                    std::uint32_t block) {
  const BlockKey key{object, block};
  hg::BufWriter w;
  hg::put(w, tenant_);
  hg::put(w, width_);
  hg::put(w, object);
  hg::put(w, block);
  const auto resp =
      mid_.forward(view_.server_of(key), view_.provider, read_id_, w.take());
  hg::BufReader r(resp);
  std::uint8_t status = 0;
  std::uint32_t n = 0;
  hg::get(r, status);
  hg::get(r, n);
  std::vector<std::byte> out(n);
  if (n > 0) r.read_raw(out.data(), n);
  return out;
}

Status Client::write(std::uint64_t object, std::uint64_t offset,
                     const std::vector<std::byte>& data) {
  // Split the extent on block boundaries, then group consecutive blocks
  // owned by the same server into one RPC each (a whole locality stripe
  // travels as a single request).
  const std::uint64_t bs = view_.block_bytes;
  Status result = Status::kOk;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t start = offset + pos;
    const BlockKey key{object, static_cast<std::uint32_t>(start / bs)};
    const ofi::EpAddr server = view_.server_of(key);
    // Extend the segment while subsequent blocks land on the same server.
    std::uint64_t seg_end = std::min<std::uint64_t>(
        data.size(), pos + (bs - start % bs));
    while (seg_end < data.size()) {
      const BlockKey next{object,
                          static_cast<std::uint32_t>((offset + seg_end) / bs)};
      if (view_.server_of(next) != server) break;
      seg_end = std::min<std::uint64_t>(data.size(), seg_end + bs);
    }
    const std::uint64_t seg_bytes = seg_end - pos;
    auto shared = std::make_shared<std::vector<std::byte>>(
        data.begin() + static_cast<std::ptrdiff_t>(pos),
        data.begin() + static_cast<std::ptrdiff_t>(seg_end));
    hg::BufWriter w;
    hg::put(w, tenant_);
    hg::put(w, width_);
    hg::put(w, object);
    hg::put(w, start);
    hg::put(w, seg_bytes);
    auto op = mid_.forward_async(server, view_.provider, write_id_, w.take(),
                                 std::move(shared), seg_bytes);
    const auto st = static_cast<Status>(hg::decode<std::uint8_t>(op->wait()));
    if (st != Status::kOk) result = st;
    pos = seg_end;
  }
  return result;
}

Status Client::flush_all() {
  Status result = Status::kOk;
  hg::BufWriter w;
  hg::put(w, tenant_);
  hg::put(w, width_);
  const auto body = w.take();
  for (const auto server : view_.servers) {
    const auto st = static_cast<Status>(hg::decode<std::uint8_t>(
        mid_.forward(server, view_.provider, flush_id_, body)));
    if (st != Status::kOk) result = st;
  }
  return result;
}

}  // namespace sym::blockcache
