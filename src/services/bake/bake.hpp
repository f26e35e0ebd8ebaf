// services/bake/bake.hpp
//
// BAKE: the Mochi microservice for storing and retrieving object blobs on
// NVM, used by Mobject (object data) and HEPnOS (event data). Large writes
// move through Mercury's bulk interface (target-issued RDMA pull from
// client memory); persistence pays a simulated NVMe device cost that
// serializes across concurrent persists (an IO wait, not CPU).
//
// RPCs: bake_create_rpc, bake_write_rpc, bake_persist_rpc,
//       bake_create_write_persist_rpc, bake_read_rpc, bake_probe_rpc.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "margolite/instance.hpp"

namespace sym::bake {

enum class Status : std::uint8_t { kOk = 0, kNoRegion = 1, kOutOfRange = 2 };

/// Simulated NVMe-class storage device: bandwidth with request
/// serialization. Writers sleep (IO wait) until their turn completes.
class StorageDevice {
 public:
  StorageDevice(sim::Engine& engine, double write_bw_bytes_per_ns = 2.0,
                sim::DurationNs op_latency = sim::usec(8))
      : engine_(engine),
        write_bw_(write_bw_bytes_per_ns),
        op_latency_(op_latency) {}

  /// Blocking (ULT) write of `bytes`: reserves the device and sleeps until
  /// completion. Returns the IO duration experienced.
  sim::DurationNs write(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

 private:
  sim::Engine& engine_;
  double write_bw_;
  sim::DurationNs op_latency_;
  sim::TimeNs busy_until_ = 0;
  std::uint64_t bytes_written_ = 0;
};

struct Region {
  std::uint64_t capacity = 0;
  std::vector<std::byte> data;
  bool persisted = false;
};

class Provider {
 public:
  Provider(margo::Instance& mid, std::uint16_t provider_id);
  Provider(const Provider&) = delete;
  Provider& operator=(const Provider&) = delete;

  [[nodiscard]] std::uint16_t provider_id() const noexcept {
    return provider_id_;
  }
  [[nodiscard]] std::size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] const Region* region(std::uint64_t rid) const;
  [[nodiscard]] StorageDevice& device() noexcept { return device_; }

 private:
  void handle_create(margo::Request& req);
  void handle_write(margo::Request& req);
  void handle_persist(margo::Request& req);
  void handle_create_write_persist(margo::Request& req);
  void handle_read(margo::Request& req);
  void handle_probe(margo::Request& req);

  std::uint64_t do_create(std::uint64_t size);
  Status do_write(std::uint64_t rid, std::uint64_t offset,
                  const std::vector<std::byte>* content, std::uint64_t bytes,
                  margo::Request& req);

  margo::Instance& mid_;
  std::uint16_t provider_id_;
  StorageDevice device_;
  std::map<std::uint64_t, Region> regions_;
  std::uint64_t next_rid_ = 1;
};

class Client {
 public:
  explicit Client(margo::Instance& mid);

  /// Allocate a region of `size` bytes; returns the region id.
  std::uint64_t create(ofi::EpAddr target, std::uint16_t provider,
                       std::uint64_t size);

  /// Write `data` into a region at `offset` (bulk path). The buffer is
  /// exposed to the provider as-is, so a relaying service passes on the
  /// attachment it received instead of copying it. kOutOfRange when the
  /// write would end past the 64-bit offset space.
  Status write(ofi::EpAddr target, std::uint16_t provider, std::uint64_t rid,
               std::uint64_t offset,
               std::shared_ptr<std::vector<std::byte>> data);

  /// Flush a region to the device.
  Status persist(ofi::EpAddr target, std::uint16_t provider,
                 std::uint64_t rid);

  /// Composite create+write+persist (one RPC, as BAKE provides).
  std::uint64_t create_write_persist(ofi::EpAddr target,
                                     std::uint16_t provider,
                                     std::vector<std::byte> data);

  /// Read up to `len` bytes from a region at `offset` (fewer past the end
  /// of the written data, none for an unknown region). The returned vector
  /// is the received response buffer itself.
  std::vector<std::byte> read(ofi::EpAddr target, std::uint16_t provider,
                              std::uint64_t rid, std::uint64_t offset,
                              std::uint64_t len);

  /// Number of regions on the provider.
  std::uint64_t probe(ofi::EpAddr target, std::uint16_t provider);

 private:
  margo::Instance& mid_;
  hg::RpcId create_id_, write_id_, persist_id_, cwp_id_, read_id_, probe_id_;
};

}  // namespace sym::bake
