// services/blockcache/blockcache.hpp
//
// The blockcache tier: a composable distributed block-cache / burst-buffer
// service that sits in front of BAKE (and therefore in front of anything
// BAKE-backed, e.g. Mobject object data). Modeled on bbThemis's block-based
// distributed page cache and ThemisIO's fair-share burst-buffer scheduling:
//
//  * objects are split into fixed-size blocks; a pure placement function
//    (placement.hpp) maps each block to one per-node cache server, so
//    clients route requests without a directory service;
//  * each cache server holds a bounded set of blocks with LRU eviction,
//    fetches missing blocks from the BAKE backend (batching
//    sequential miss runs into one large backend read — the readahead that
//    makes locality-aligned placement ~order-of-magnitude faster than hash
//    placement for streaming readers), and write-back-buffers dirty blocks,
//    coalescing runs of adjacent small writes into single large backend
//    writes;
//  * every request passes through a ThemisIO-style fair-share scheduler
//    (scheduler.hpp): a single dispatcher ULT arbitrates competing tenant
//    jobs under FIFO, size-fair or job-fair policy.
//
// Determinism: all cache-server state (block map, LRU list, scheduler
// queues, counters) is owned by the server instance's lane and is only
// touched from that instance's handler/dispatcher/flusher ULTs.
// Control-plane writes arriving through the writable PVAR are staged into
// a pending field and applied by the dispatcher at its next iteration, so
// even the PolicyEngine actuator path mutates cache state from exactly one
// ULT. Measurement: the RPCs carry the usual t1..t14 spans; block fetch /
// fill / evict / writeback emit self-contained action spans; the PVAR
// registry gains bc_* rows (docs/PVARS.md) including the writable actuator
// knob bc_capacity_blocks that gives the PolicyEngine its second actuator
// surface.
//
// RPCs: bc_read_rpc, bc_write_rpc, bc_flush_rpc.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "margolite/instance.hpp"
#include "margolite/policy.hpp"
#include "services/bake/bake.hpp"
#include "services/blockcache/placement.hpp"
#include "services/blockcache/scheduler.hpp"

namespace sym::blockcache {

enum class Status : std::uint8_t { kOk = 0, kBadRequest = 1 };

struct ProviderConfig {
  /// Block geometry and cache capacity (in blocks).
  std::uint32_t block_bytes = 64 * 1024;
  std::uint32_t capacity_blocks = 256;
  SchedPolicy policy = SchedPolicy::kFifo;

  /// BAKE backend this cache tier fronts.
  ofi::EpAddr backend = ofi::kInvalidAddr;
  std::uint16_t backend_provider = 1;

  /// Max blocks fetched in one backend read when misses arrive for
  /// consecutive blocks of one object (1 disables readahead batching).
  std::uint32_t readahead_blocks = 8;

  /// Write-back: flush when this many blocks are dirty, and at least every
  /// flush_period regardless (0 disables the periodic flusher).
  std::uint32_t writeback_watermark = 64;
  sim::DurationNs flush_period = sim::msec(2);

  /// Service cost model: per-request CPU plus byte transfer through the
  /// cache device. The single dispatcher serializes service, making the
  /// server a contended resource the fairness policies arbitrate.
  sim::DurationNs service_op_cost = sim::usec(2);
  double service_bw_bytes_per_ns = 2.0;
};

/// One per-node cache server: provider + dispatcher + periodic flusher.
class Provider {
 public:
  Provider(margo::Instance& mid, std::uint16_t provider_id,
           ProviderConfig config);
  Provider(const Provider&) = delete;
  Provider& operator=(const Provider&) = delete;

  /// Spawn the dispatcher and flusher ULTs. Call once, after
  /// Instance::start(); both loops exit when the instance finalizes.
  void start();

  [[nodiscard]] std::uint16_t provider_id() const noexcept {
    return provider_id_;
  }
  [[nodiscard]] const ProviderConfig& config() const noexcept { return cfg_; }

  // --- cache introspection (tests, benches) ---------------------------------

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t occupancy_blocks() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t dirty_blocks() const noexcept { return dirty_; }
  [[nodiscard]] std::uint32_t capacity_blocks() const noexcept {
    return cfg_.capacity_blocks;
  }
  [[nodiscard]] std::uint64_t backend_reads() const noexcept {
    return backend_reads_;
  }
  [[nodiscard]] std::uint64_t backend_read_bytes() const noexcept {
    return backend_read_bytes_;
  }
  [[nodiscard]] std::uint64_t writeback_ops() const noexcept {
    return writeback_ops_;
  }
  [[nodiscard]] std::uint64_t writeback_bytes() const noexcept {
    return writeback_bytes_;
  }
  [[nodiscard]] std::uint64_t write_ops() const noexcept { return write_ops_; }
  [[nodiscard]] std::uint64_t read_ops() const noexcept { return read_ops_; }
  [[nodiscard]] double hit_ratio() const noexcept {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) /
                                  static_cast<double>(total);
  }
  /// Bytes served to `tenant` by the fair-share scheduler so far.
  [[nodiscard]] std::uint64_t tenant_bytes_served(std::uint32_t tenant) const {
    return sched_.bytes_served(tenant);
  }
  [[nodiscard]] double tenant_service_share(std::uint32_t tenant) const {
    return sched_.service_share(tenant);
  }
  /// BAKE region id holding `object`'s flushed blocks (0 = none yet).
  [[nodiscard]] std::uint64_t backend_region(std::uint64_t object) const {
    const auto it = regions_.find(object);
    return it == regions_.end() ? 0 : it->second;
  }

  // --- PolicyEngine actuator surface ----------------------------------------

  /// Built-in policy rule: grow the cache when it thrashes. Fires when the
  /// hit ratio sits below `min_hit_ratio` while evictions advanced since
  /// the previous sample; writes the writable `bc_capacity_blocks` PVAR to
  /// grow the cache by `step_blocks`, up to `cap_blocks`. Register on the
  /// cache server's own PolicyEngine.
  static margo::PolicyRule capacity_autoscale(double min_hit_ratio = 0.5,
                                              std::uint32_t step_blocks = 64,
                                              std::uint32_t cap_blocks = 4096);

 private:
  struct Block {
    std::vector<std::byte> data;
    std::uint32_t dirty_lo = 0;  ///< dirty byte range [lo, hi)
    std::uint32_t dirty_hi = 0;
    std::list<BlockKey>::iterator lru_pos;
    [[nodiscard]] bool dirty() const noexcept { return dirty_hi > dirty_lo; }
  };

  enum class OpKind : std::uint8_t { kRead, kWrite, kFlush };

  /// One queued request, alive on its handler ULT's stack while the
  /// dispatcher services it.
  struct QueuedOp {
    OpKind kind{};
    std::uint32_t tenant = 0;
    std::uint64_t object = 0;
    std::uint32_t block = 0;           ///< read
    std::uint64_t offset = 0;          ///< write
    std::uint64_t bytes = 0;           ///< write payload size
    const std::vector<std::byte>* payload = nullptr;  ///< write content
    std::vector<std::byte> out;        ///< read result
    Status status = Status::kOk;
    abt::Eventual done;
  };

  void handle_read(margo::Request& req);
  void handle_write(margo::Request& req);
  void handle_flush(margo::Request& req);

  void dispatch_loop();
  void flusher_loop();
  void service(QueuedOp& op);
  void service_read(QueuedOp& op);
  void service_write(QueuedOp& op);

  /// Apply control-plane writes staged by the writable PVAR.
  void apply_pending_controls();

  /// Fetch `count` blocks starting at `key` from the backend in one read,
  /// fill the absent ones into the cache (clean). Records bc_fetch/bc_fill
  /// action spans and the backend counters.
  void fetch_fill(const BlockKey& key, std::uint32_t count);
  /// Sequential-run readahead size for a miss at `key`.
  [[nodiscard]] std::uint32_t readahead_for(const BlockKey& key) const;

  /// Insert an absent block (evicting if at capacity); returns it zeroed.
  Block& insert_block(const BlockKey& key);
  void touch(Block& b);
  /// Evict the least recently used block.
  void evict_one();

  /// Write back all dirty blocks, coalescing runs of adjacent dirty blocks
  /// of one object into single backend writes. `max_runs` = 0 means all.
  void writeback_all();
  /// Write back one contiguous dirty run starting at `first` (inclusive)
  /// spanning `count` blocks.
  void writeback_run(const BlockKey& first, std::uint32_t count);

  [[nodiscard]] std::uint64_t region_of(std::uint64_t object);

  void register_pvars();

  margo::Instance& mid_;
  std::uint16_t provider_id_;
  ProviderConfig cfg_;
  bake::Client backend_;

  FairScheduler<QueuedOp*> sched_;
  std::map<BlockKey, Block> blocks_;
  std::list<BlockKey> lru_;            ///< front = coldest
  std::map<std::uint64_t, std::uint64_t> regions_;  ///< object -> bake rid
  /// Per-object sequential-stream detector: the block each recently seen
  /// miss stream expects next. One server may field several interleaved
  /// sequential streams against the same object (one per tenant client
  /// reading its own range), so a single last-fetched mark would ping-pong
  /// between them and never detect a run; readahead engages whenever a miss
  /// lands on any tracked stream's expected-next block.
  std::map<std::uint64_t, std::deque<std::uint32_t>> streams_;
  static constexpr std::size_t kMaxStreamsPerObject = 8;
  /// Dispatcher idle poll (bounds dispatcher wake-up latency).
  static constexpr sim::DurationNs kDispatchPoll = sim::usec(20);
  /// Per-tenant PVAR slots: bc_t<k>_queue_depth / bc_t<k>_service_share
  /// are registered for k < kMaxTenants.
  static constexpr std::uint32_t kMaxTenants = 8;

  std::size_t dirty_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t backend_reads_ = 0;
  std::uint64_t backend_read_bytes_ = 0;
  std::uint64_t writeback_ops_ = 0;
  std::uint64_t writeback_bytes_ = 0;
  std::uint64_t read_ops_ = 0;
  std::uint64_t write_ops_ = 0;

  std::uint32_t pending_capacity_ = 0;   ///< 0 = no pending change
  /// Set by the periodic flusher ULT, consumed by the dispatcher: only the
  /// dispatcher ULT ever walks or mutates blocks_ (lane-ownership within
  /// the instance), so the flusher stages a request instead of sweeping.
  bool flush_due_ = false;
  bool started_ = false;
};

/// Client-side view of a deployed blockcache tier: the ordered cache-server
/// endpoints plus the placement strategy, shared by every client.
struct View {
  std::vector<ofi::EpAddr> servers;
  std::uint16_t provider = 1;
  Placement placement = Placement::kHash;
  std::uint32_t stripe_blocks = kDefaultStripeBlocks;
  std::uint32_t block_bytes = 64 * 1024;

  [[nodiscard]] ofi::EpAddr server_of(const BlockKey& key) const {
    return servers[server_for(placement, key,
                              static_cast<std::uint32_t>(servers.size()),
                              stripe_blocks)];
  }
};

/// Client API: reads one block at a time, writes arbitrary byte extents
/// (split across the owning servers block by block). Each client belongs to
/// one tenant job of a declared width (the job-fair weight).
class Client {
 public:
  Client(margo::Instance& mid, View view, std::uint32_t tenant,
         std::uint32_t job_width = 1);

  /// Read one whole block of `object` through its owning cache server.
  std::vector<std::byte> read(std::uint64_t object, std::uint32_t block);

  /// Write `data` at `offset` within `object`; the extent is split on
  /// block boundaries and routed to each owning server.
  Status write(std::uint64_t object, std::uint64_t offset,
               const std::vector<std::byte>& data);

  /// Flush every cache server's dirty blocks to the backend.
  Status flush_all();

  [[nodiscard]] std::uint32_t tenant() const noexcept { return tenant_; }
  [[nodiscard]] const View& view() const noexcept { return view_; }

 private:
  margo::Instance& mid_;
  View view_;
  std::uint32_t tenant_;
  std::uint32_t width_;
  hg::RpcId read_id_, write_id_, flush_id_;
};

}  // namespace sym::blockcache
