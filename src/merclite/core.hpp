// merclite/core.hpp
//
// merclite: the Mercury-model RPC library. Implements the RPC execution
// model of the paper's Fig. 2:
//
//   origin: forward() serializes input (t2->t3), sends the eager portion and
//   registers a completion callback; the progress engine matches the
//   response (t12) and trigger() invokes the callback (t14).
//
//   target: progress() receives the request (t3); if the input overflowed
//   the eager buffer, an internal RDMA fetches the remainder (t3->t4);
//   the registered arrival callback fires (t4) — margolite uses it to spawn
//   a handler ULT; respond() serializes output (t9->t10) and the sent
//   callback fires when the response left the node (t13).
//
// The class also hosts the PVAR registry (pvar.hpp) exporting the
// Table II performance variables.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "merclite/proc.hpp"
#include "merclite/pvar.hpp"
#include "simkit/cluster.hpp"
#include "simkit/smallfn.hpp"
#include "simkit/time.hpp"
#include "sofi/fabric.hpp"

namespace sym::hg {

/// RPC identifier: 64-bit FNV-1a hash of the registered name.
using RpcId = std::uint64_t;

/// Demux tags on the wire.
inline constexpr std::uint64_t kTagRequest = 1;
inline constexpr std::uint64_t kTagResponse = 2;

/// Header flags.
inline constexpr std::uint8_t kFlagEagerOverflow = 0x1;
inline constexpr std::uint8_t kFlagTracing = 0x2;
/// Response carries a library-level error (no matching handler/provider).
inline constexpr std::uint8_t kFlagError = 0x4;
/// Response is an admission-control early-reject: the target's handler pool
/// was over its backpressure watermark and the request was never dispatched.
/// The origin should back off and retry (margolite::Instance::forward_retry).
inline constexpr std::uint8_t kFlagBusy = 0x8;

struct ClassConfig {
  /// Eager buffer limit: request bodies beyond this take the internal-RDMA
  /// path for the excess (paper §V-B: Sonata's large RPC metadata).
  std::size_t eager_limit = 4096;
  /// OFI_max_events: bounded completion-queue read per progress call. The
  /// paper's default (set inside Mercury) is 16; configuration C6 raises it
  /// to 64.
  std::size_t max_events = 16;

  // Serialization cost model, charged as ULT compute.
  sim::DurationNs ser_base = sim::nsec(3000);
  double ser_ns_per_byte = 0.8;
  sim::DurationNs deser_base = sim::nsec(4000);
  double deser_ns_per_byte = 2.0;

  /// CPU cost of progress-loop event processing (per call + per event).
  sim::DurationNs progress_base_cost = sim::nsec(2000);
  sim::DurationNs progress_per_event_cost = sim::nsec(800);
  /// CPU cost of dispatching one completion callback in trigger().
  sim::DurationNs trigger_dispatch_cost = sim::nsec(600);
};

/// Wire header carried by every RPC message, including the SYMBIOSYS
/// metadata the paper propagates: the 64-bit callpath breadcrumb, the
/// globally unique request id, the per-request event order counter, and the
/// Lamport clock.
///
/// On the wire it is a *trailer*: a message is the body followed by the
/// header. The receiver reads the header off the end and truncates it, so
/// the message buffer itself becomes the handle's body with no copy, and a
/// sender appends the header into the tailroom BufWriter leaves.
///
/// Members are ordered for packing; the wire order is put()'s.
struct RpcHeader {
  RpcId rpc_id = 0;
  std::uint64_t op_seq = 0;
  std::uint64_t breadcrumb = 0;
  std::uint64_t request_id = 0;
  std::uint64_t lamport = 0;
  std::uint64_t body_size = 0;
  std::uint32_t trace_order = 0;
  std::uint16_t provider_id = 0;
  std::uint8_t flags = 0;
};

void put(BufWriter& w, const RpcHeader& h);
void get(BufReader& r, RpcHeader& h);

/// Serialized size of an RpcHeader on the wire.
inline constexpr std::size_t kRpcHeaderWireSize =
    sizeof(RpcId) + sizeof(std::uint16_t) + 4 * sizeof(std::uint64_t) +
    sizeof(std::uint32_t) + sizeof(std::uint8_t) + sizeof(std::uint64_t);
static_assert(kRpcHeaderWireSize <= kWriterTailroom,
              "BufWriter tailroom must fit the RPC trailer");

class Class;

/// One RPC operation's state, on either the origin or the target side.
/// HANDLE-bound PVARs (Table II) live inside the handle and go out of scope
/// with it, exactly as the paper describes.
class Handle {
 public:
  RpcHeader header;
  std::vector<std::byte> body;           ///< serialized request input
  std::vector<std::byte> response_body;  ///< serialized response output

  /// Simulated registered-memory buffer exposed by the origin for bulk
  /// transfers (Mercury bulk handle). The target may only dereference it
  /// after a bulk_transfer() on this handle completes. Use the typed
  /// helpers to access it.
  ///
  /// It travels with its request like the input body: forward() moves the
  /// origin handle's reference onto the wire, a busy early-reject hands it
  /// back for the retry, and otherwise the target handle owns it, so a
  /// handler may move the content out when its caller kept no reference.
  std::shared_ptr<void> attachment;
  std::uint64_t attachment_bytes = 0;

  template <typename T>
  void attach(std::shared_ptr<T> data, std::uint64_t bytes) {
    attachment = std::move(data);
    attachment_bytes = bytes;
  }
  template <typename T>
  [[nodiscard]] const T* attached() const noexcept {
    return static_cast<const T*>(attachment.get());
  }
  template <typename T>
  [[nodiscard]] T* attached() noexcept {
    return static_cast<T*>(attachment.get());
  }

  [[nodiscard]] bool target_side() const noexcept { return target_side_; }
  [[nodiscard]] ofi::EpAddr peer_addr() const noexcept { return peer_; }

  /// HANDLE-bound timer PVAR storage (values in nanoseconds).
  void set_timer(HandleTimer t, double ns) noexcept { timers_[t] = ns; }
  [[nodiscard]] double timer(HandleTimer t) const noexcept {
    return timers_[t];
  }

  /// t3 on the target: when the request surfaced in progress().
  [[nodiscard]] sim::TimeNs received_at() const noexcept {
    return received_at_;
  }
  /// t12 on the origin: when the response completion was queued.
  [[nodiscard]] sim::TimeNs response_queued_at() const noexcept {
    return response_queued_at_;
  }

 private:
  friend class Class;
  bool target_side_ = false;
  ofi::EpAddr peer_ = ofi::kInvalidAddr;
  sim::TimeNs received_at_ = 0;
  sim::TimeNs response_queued_at_ = 0;
  double timers_[kHtCount] = {};
};

using HandlePtr = std::shared_ptr<Handle>;

/// Target-side: invoked from progress() when a request is ready to execute
/// (the paper's t4). margolite spawns the handler ULT here.
using ArrivalCallback = sim::SmallFunction<void(HandlePtr)>;
/// A continuation run from trigger() with the operation's handle: a
/// forward's completion (t14), a response's sent notice (t13), a bulk
/// transfer's completion. Move-only, stored inline in the operation's slot.
using OpCallback = sim::SmallFunction<void(const HandlePtr&)>;
/// Origin-side: invoked from trigger() when the response is available (t14).
using CompletionCallback = OpCallback;
/// Target-side: invoked from trigger() when the response has been sent (t13).
using SentCallback = OpCallback;

/// One RPC library instance per simulated process.
class Class {
 public:
  Class(ofi::Fabric& fabric, sim::Process& process, ClassConfig config = {});
  Class(const Class&) = delete;
  Class& operator=(const Class&) = delete;

  [[nodiscard]] ofi::Endpoint& endpoint() noexcept { return endpoint_; }
  [[nodiscard]] ofi::EpAddr addr() const noexcept { return endpoint_.addr(); }
  [[nodiscard]] const ClassConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return fabric_.engine(); }
  [[nodiscard]] sim::Process& process() noexcept { return process_; }

  /// OFI_max_events is runtime-tunable (configuration C6 raises it).
  void set_max_events(std::size_t n) noexcept { config_.max_events = n; }

  /// The eager-vs-RDMA overflow threshold is runtime-tunable too — also
  /// reachable through the writable `eager_buffer_size` PVAR, which is how
  /// the adaptive controller retunes it.
  void set_eager_limit(std::size_t n) noexcept { config_.eager_limit = n; }

  /// Register an RPC by name. The id is the FNV-1a hash of the name, so
  /// origin and target agree without an exchange. `on_arrival` may be empty
  /// on pure clients.
  RpcId register_rpc(const std::string& name, ArrivalCallback on_arrival);

  /// Reverse lookup for reporting; nullptr if unknown.
  [[nodiscard]] const std::string* rpc_name(RpcId id) const;

  /// Create an origin-side handle addressed to `dest`.
  [[nodiscard]] HandlePtr create_handle(ofi::EpAddr dest, RpcId rpc,
                                        std::uint16_t provider_id);

  /// Origin: serialize (charging t2->t3 cost), post the request, register
  /// the completion callback. Must run in ULT context. `input` itself goes
  /// on the wire and becomes the target's body, and the handle's attachment
  /// goes with it; the origin handle holds neither unless a busy
  /// early-reject hands them back. An empty `on_complete` is allowed: the
  /// response is still matched and stored on the handle.
  void forward(const HandlePtr& h, std::vector<std::byte> input,
               CompletionCallback on_complete);

  /// Target: serialize the output (t9->t10), post the response, register
  /// the sent callback (t13). Must run in ULT context. `output` itself goes
  /// on the wire with the header appended; the origin adopts it as its
  /// response_body.
  void respond(const HandlePtr& h, std::vector<std::byte> output,
               SentCallback on_sent);

  /// Target: pull `bytes` of bulk data from the origin of `h` (Mercury's
  /// bulk interface used by BAKE and sdskv_put_packed). `done` runs from
  /// trigger() with `h` when the transfer completes.
  void bulk_transfer(const HandlePtr& h, std::uint64_t bytes,
                     OpCallback done);

  /// Cancel a posted origin-side operation: the handle is unposted and its
  /// completion callback is dropped, so a late response is silently
  /// discarded (HG_Cancel semantics). Returns true if the op was pending.
  bool cancel(const HandlePtr& h);

  /// Charge response-output deserialization on the calling ULT and record
  /// the handle timer (origin side, after completion).
  void charge_output_deserialize(const HandlePtr& h);

  /// Charge request-input deserialization (t6->t7) on the calling ULT and
  /// record the handle timer (target side, at handler start).
  void charge_input_deserialize(const HandlePtr& h);

  /// Read up to max_events OFI completions and convert them into callback
  /// queue entries. Returns the number of OFI events read (the
  /// num_ofi_events_read PVAR). Charges progress CPU cost if in ULT context.
  std::size_t progress();

  /// Run up to `max` queued completion callbacks. Returns how many ran.
  std::size_t trigger(std::size_t max = ~std::size_t{0});

  /// Block the calling ULT until OFI events are pending or `timeout`
  /// elapses. Returns true if events are pending.
  bool wait_for_events(sim::DurationNs timeout);

  /// True if either the OFI CQ or the callback queue holds work.
  [[nodiscard]] bool has_pending_work() const noexcept {
    return !endpoint_.cq().empty() || !callback_queue_.empty();
  }

  // --- PVAR interface (paper §IV-B2) ---
  [[nodiscard]] PvarRegistry& pvars() noexcept { return pvars_; }
  [[nodiscard]] PvarSession pvar_session_init() {
    return PvarSession(pvars_, next_session_id_++);
  }

  // --- raw metrics backing the NO_OBJECT PVARs ---
  [[nodiscard]] std::size_t num_posted_handles() const noexcept {
    return posted_handles_;
  }
  [[nodiscard]] std::size_t completion_queue_size() const noexcept {
    return callback_queue_.size();
  }
  [[nodiscard]] std::size_t num_ofi_events_read() const noexcept {
    return last_ofi_events_read_;
  }
  [[nodiscard]] std::uint64_t num_rpcs_invoked() const noexcept {
    return num_rpcs_invoked_;
  }
  [[nodiscard]] std::uint64_t num_rpcs_handled() const noexcept {
    return num_rpcs_handled_;
  }
  [[nodiscard]] std::uint64_t bulk_bytes_total() const noexcept {
    return bulk_bytes_total_;
  }
  [[nodiscard]] std::uint64_t eager_overflows() const noexcept {
    return eager_overflows_;
  }
  [[nodiscard]] std::uint64_t cancellations() const noexcept {
    return cancellations_;
  }
  /// Sends whose payload buffer had tailroom for the header and went on
  /// the wire as-is.
  [[nodiscard]] std::uint64_t frames_in_place() const noexcept {
    return frames_in_place_;
  }
  /// Sends whose payload buffer had to grow to take the header.
  [[nodiscard]] std::uint64_t frames_grown() const noexcept {
    return frames_grown_;
  }
  /// Received messages dropped because they were shorter than a header.
  [[nodiscard]] std::uint64_t malformed_drops() const noexcept {
    return malformed_drops_;
  }

 private:
  /// What an operation in the op table waits for.
  enum class OpKind : std::uint8_t {
    kFree,
    kResponse,  ///< origin forward: the response, matched by op_seq
    kSent,      ///< target respond: the send completion, matched by context
    kBulk,      ///< bulk transfer: the RDMA completion, matched by context
    kFetch,     ///< eager overflow: the RDMA of the request's remainder
  };
  /// One outstanding operation. Its key, carried as the request's op_seq or
  /// as the CQ context, is the slot index in the low 32 bits and the slot's
  /// generation in the high 32; the generation changes whenever the slot is
  /// released, so a late or cancelled completion finds no operation.
  struct Op {
    HandlePtr handle;
    OpCallback done;
    std::uint32_t slot = 0;
    std::uint32_t gen = 1;
    OpKind kind = OpKind::kFree;
    bool queued = false;  ///< completed, waiting in callback_queue_
  };

  void handle_request_arrival(ofi::CqEntry&& entry);
  void handle_response_arrival(ofi::CqEntry&& entry);
  /// Append `h` to `msg` as the message trailer. A payload written through
  /// a BufWriter usually has the room; one without grows once.
  [[nodiscard]] std::vector<std::byte> frame(std::vector<std::byte> msg,
                                             const RpcHeader& h);
  /// Read the header trailer off a received message and truncate it, so
  /// `msg` holds just the body. False (and counted) if `msg` is too short.
  bool unframe(std::vector<std::byte>& msg, RpcHeader& h);
  /// Put an operation in a free slot; returns its key (never 0).
  std::uint64_t add_op(OpKind kind, HandlePtr h, OpCallback done);
  /// The operation still waiting under `key`, or nullptr.
  Op* find_op(std::uint64_t key) noexcept;
  /// Empty the slot of `op` and make it reusable under a new generation.
  void release_op(Op& op) noexcept;
  /// Queue a completed operation for trigger().
  void enqueue_op(Op& op);
  void charge_compute(sim::DurationNs d);
  [[nodiscard]] sim::DurationNs ser_cost(std::size_t bytes) const noexcept;
  [[nodiscard]] sim::DurationNs deser_cost(std::size_t bytes) const noexcept;
  void register_pvars();

  ofi::Fabric& fabric_;
  sim::Process& process_;
  ClassConfig config_;
  ofi::Endpoint& endpoint_;

  // Arrival callbacks live in stable slots (deque: no reallocation on
  // growth) so dispatch borrows a pointer instead of copying the callback
  // per request; the map only indexes into the slots.
  std::deque<ArrivalCallback> arrival_slots_;
  std::unordered_map<RpcId, std::size_t> rpc_handlers_;  // id -> slot index
  std::unordered_map<RpcId, std::string> rpc_names_;

  // The op table, by slot. A deque: records never move, and the table
  // grows in small blocks. Grown by doubling, a server's table passed
  // glibc's mmap threshold, and freeing the old blocks raised that
  // threshold for the trace analysis that follows the run, which then
  // took up to a quarter longer.
  std::deque<Op> ops_;
  std::vector<std::uint32_t> free_ops_;  ///< released slots, reused last-first
  std::size_t posted_handles_ = 0;      ///< kResponse ops not yet answered
  std::deque<std::uint32_t> callback_queue_;  ///< slots of completed ops

  PvarRegistry pvars_;
  std::uint32_t next_session_id_ = 1;

  std::size_t last_ofi_events_read_ = 0;
  std::size_t min_ofi_events_read_ = ~std::size_t{0};
  std::uint64_t num_rpcs_invoked_ = 0;
  std::uint64_t num_rpcs_handled_ = 0;
  std::uint64_t bulk_bytes_total_ = 0;
  std::uint64_t eager_overflows_ = 0;
  std::uint64_t cancellations_ = 0;
  std::uint64_t malformed_drops_ = 0;
  std::uint64_t frames_in_place_ = 0;
  std::uint64_t frames_grown_ = 0;
  std::size_t callback_queue_hwm_ = 0;
};

}  // namespace sym::hg
