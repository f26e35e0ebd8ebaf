// margolite/instance.hpp
//
// margolite: the Margo-model layer that unifies the RPC library (merclite)
// with the tasking runtime (argolite) and hosts the SYMBIOSYS measurement
// system (§IV of the paper):
//
//  * one provider-aware RPC dispatch layer (providers are instantiations of
//    a microservice API, addressed by provider id within a process),
//  * a progress ULT driving merclite progress()/trigger() — on a dedicated
//    ES on servers, and either shared with the application ES or dedicated
//    on clients (configuration C7),
//  * breadcrumb callpath propagation through ULT-local keys,
//  * the t1..t14 instrumentation points of Fig. 2 / Table III,
//  * distributed trace event generation with Lamport clocks and sampled
//    PVAR / tasking / OS metrics,
//  * a periodic system-statistics sampler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "argolite/runtime.hpp"
#include "argolite/sync.hpp"
#include "merclite/core.hpp"
#include "simkit/cluster.hpp"
#include "sofi/fabric.hpp"
#include "symbiosys/breadcrumb.hpp"
#include "symbiosys/records.hpp"

namespace sym::margo {

struct InstanceConfig {
  /// Server instances get a dedicated progress ES plus `handler_es` ESs for
  /// request-handling ULTs. Client instances get one application ES.
  bool server = false;
  /// Table IV "Threads (ESs)": handler execution streams on a server.
  unsigned handler_es = 4;
  /// Table IV "Client Progress Thread?": give the client's progress ULT its
  /// own ES instead of competing with application ULTs (configuration C7).
  bool dedicated_progress_es = false;
  /// RPC library configuration (eager limit, OFI_max_events, cost model).
  hg::ClassConfig hg{};
  /// SYMBIOSYS instrumentation level (overhead-study stages).
  prof::Level instr = prof::Level::kFull;
  /// Progress-loop idle wait.
  sim::DurationNs progress_timeout = sim::usec(100);
  /// Period of the system-statistics sampler (0 disables it).
  sim::DurationNs sysstat_period = sim::msec(10);
};

class Instance;

/// An in-flight RPC issued with Instance::forward_async().
class PendingOp {
 public:
  /// Block the calling ULT until the response is available, record the
  /// origin-side measurements, charge output deserialization, and return
  /// the response body.
  const std::vector<std::byte>& wait();

  /// wait(), then transparently re-issue the RPC after an exponentially
  /// growing backoff while the target keeps early-rejecting it with
  /// kFlagBusy (admission control); each reject hands the request input
  /// back for the next attempt. Adopts the final attempt's response:
  /// afterwards busy() reports whether the last attempt was still
  /// rejected. Each retry is a fresh forward, so retries show up as
  /// additional origin spans in the trace.
  const std::vector<std::byte>& wait_retry(
      unsigned max_attempts = 8,
      sim::DurationNs initial_backoff = sim::usec(50));

  /// Forwards issued by the last wait_retry() (1 = accepted first time).
  [[nodiscard]] unsigned attempts() const noexcept { return attempts_; }

  [[nodiscard]] bool completed() const noexcept { return done_.is_set(); }
  /// True when the operation's deadline expired before the response.
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

  /// True when the target early-rejected the request under admission
  /// control (backpressure). The caller should back off and retry —
  /// Instance::forward_retry implements that loop.
  [[nodiscard]] bool busy() const noexcept {
    return (handle_->header.flags & hg::kFlagBusy) != 0;
  }

  /// True when the target reported a library-level error (e.g. no provider
  /// registered the RPC) — HG_NO_MATCH semantics.
  [[nodiscard]] bool failed() const noexcept {
    return (handle_->header.flags & hg::kFlagError) != 0;
  }
  [[nodiscard]] const hg::HandlePtr& handle() const noexcept {
    return handle_;
  }

 private:
  friend class Instance;
  Instance* inst_ = nullptr;
  hg::HandlePtr handle_;
  abt::Eventual done_;
  sim::TimeNs t1 = 0;
  sim::TimeNs t14 = 0;
  prof::Breadcrumb bc = 0;
  std::uint64_t request_id = 0;
  std::uint32_t base_order = 0;
  unsigned attempts_ = 1;
  bool recorded_ = false;
  bool timed_out_ = false;
  sim::Engine::EventId deadline_event_ = 0;
};

using PendingOpPtr = std::shared_ptr<PendingOp>;

/// The target-side view of one RPC, passed to registered handlers. Handlers
/// run in their own ULT in the handler pool.
class Request {
 public:
  Request(Instance& inst, hg::HandlePtr h) : inst_(inst), h_(std::move(h)) {}

  [[nodiscard]] const std::vector<std::byte>& body() const noexcept {
    return h_->body;
  }
  [[nodiscard]] hg::BufReader reader() const {
    return hg::BufReader(h_->body);
  }
  [[nodiscard]] const hg::HandlePtr& handle() const noexcept { return h_; }
  [[nodiscard]] Instance& instance() noexcept { return inst_; }
  [[nodiscard]] ofi::EpAddr origin_addr() const noexcept {
    return h_->peer_addr();
  }

  /// Send the response (t8/t9/t10); at most once per request.
  void respond(std::vector<std::byte> output);

  /// Encode-and-respond convenience.
  template <typename T>
  void respond_value(const T& value) {
    respond(hg::encode(value));
  }

  /// Pull `bytes` of bulk data from the origin; blocks the handler ULT
  /// until the transfer completes (BAKE writes, sdskv_put_packed payloads).
  void bulk_pull(std::uint64_t bytes);

  [[nodiscard]] bool responded() const noexcept { return responded_; }
  [[nodiscard]] sim::TimeNs t8() const noexcept { return t8_; }

 private:
  friend class Instance;
  Instance& inst_;
  hg::HandlePtr h_;
  sim::TimeNs t5_ = 0;
  sim::TimeNs t8_ = 0;
  bool responded_ = false;
};

/// Handler signature for provider RPCs.
using Handler = std::function<void(Request&)>;

class Instance {
 public:
  Instance(ofi::Fabric& fabric, sim::Process& process, InstanceConfig config);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Spawn the progress ULT (and the system sampler). Call once, before
  /// engine.run().
  void start();

  /// Request shutdown of the progress loop. Idempotent; safe from events or
  /// ULTs. The loop exits within one progress timeout.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalize_requested_; }

  // --- registration ---------------------------------------------------------

  /// Register a provider RPC handler (server side).
  hg::RpcId register_rpc(const std::string& name, std::uint16_t provider_id,
                         Handler handler);

  /// Register an RPC name on a client (needed for breadcrumb hashing).
  hg::RpcId register_client_rpc(const std::string& name);

  // --- RPC invocation (must run inside a ULT) -------------------------------

  /// `timeout` > 0 arms a deadline: if no response arrived in time the
  /// operation completes with PendingOp::timed_out() set (margo_forward_
  /// timed semantics). A late response is absorbed silently.
  PendingOpPtr forward_async(ofi::EpAddr dest, std::uint16_t provider_id,
                             hg::RpcId rpc, std::vector<std::byte> input,
                             std::shared_ptr<void> attachment = nullptr,
                             std::uint64_t attachment_bytes = 0,
                             sim::DurationNs timeout = 0);

  /// Synchronous forward: forward_async() + wait(). Busy early-rejects are
  /// retried via forward_retry() with the default backoff schedule, so
  /// callers transparently cooperate with target-side admission control.
  /// The response is the received message buffer, moved out.
  std::vector<std::byte> forward(ofi::EpAddr dest, std::uint16_t provider_id,
                                 hg::RpcId rpc, std::vector<std::byte> input);

  /// Outcome of a forward_retry() loop.
  struct RetryResult {
    std::vector<std::byte> response;  ///< valid when !busy; moved out
    unsigned attempts = 0;            ///< total forwards issued
    bool busy = false;  ///< still rejected after max_attempts
  };

  /// Synchronous forward with the admission-control retry/backoff protocol:
  /// a kFlagBusy early-reject is retried after an exponentially growing
  /// backoff (initial_backoff, doubling per attempt), up to max_attempts.
  RetryResult forward_retry(ofi::EpAddr dest, std::uint16_t provider_id,
                            hg::RpcId rpc, std::vector<std::byte> input,
                            unsigned max_attempts = 8,
                            sim::DurationNs initial_backoff = sim::usec(50));

  /// Spawn an application ULT on the main (client) pool.
  void spawn(sim::SmallFn fn);

  // --- accessors -------------------------------------------------------------

  [[nodiscard]] ofi::EpAddr addr() const noexcept { return hg_->addr(); }
  [[nodiscard]] hg::Class& hg_class() noexcept { return *hg_; }
  [[nodiscard]] abt::Runtime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return fabric_.engine(); }
  [[nodiscard]] sim::Process& process() noexcept { return process_; }
  [[nodiscard]] const InstanceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] prof::Level level() const noexcept { return cfg_.instr; }

  /// The per-process callpath profile.
  [[nodiscard]] prof::ProfileStore& profile() noexcept { return profile_; }
  [[nodiscard]] prof::TraceStore& trace() noexcept { return trace_; }
  [[nodiscard]] prof::SysStatStore& sysstats() noexcept { return sysstats_; }

  [[nodiscard]] abt::Pool& main_pool() noexcept { return *main_pool_; }
  [[nodiscard]] abt::Pool& handler_pool() noexcept { return *handler_pool_; }
  /// Pool that hosts the progress ULT (and monitoring ULTs): dedicated on
  /// servers, shared with the application pool on plain clients.
  [[nodiscard]] abt::Pool& progress_pool() noexcept { return *progress_pool_; }

  /// Lamport clock, bumped on every instrumented event (§IV-A2).
  std::uint64_t bump_lamport() noexcept { return ++lamport_; }
  void lamport_receive(std::uint64_t remote) noexcept {
    lamport_ = (remote > lamport_ ? remote : lamport_) + 1;
  }
  [[nodiscard]] std::uint64_t lamport() const noexcept { return lamport_; }

  /// Node-local wall clock (global virtual time + this node's skew).
  [[nodiscard]] sim::TimeNs local_clock() const noexcept {
    return node_.local_clock(fabric_.engine().now());
  }

  /// Number of requests fully handled by this instance (diagnostics).
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return requests_handled_;
  }

  /// Dynamically add one execution stream to the handler pool (the
  /// controller's scale-up action). A previously parked ES is re-enabled
  /// before a new one is created. Returns the new active handler ES count.
  unsigned add_handler_xstream();

  /// Park one handler execution stream (the controller's scale-down
  /// action). The ES finishes its current ULT, then stops pulling work; at
  /// least one handler ES always stays active. Returns the new active
  /// handler ES count.
  unsigned remove_handler_xstream();

  [[nodiscard]] unsigned handler_es_count() const noexcept {
    return handler_es_count_;
  }
  [[nodiscard]] unsigned total_es_count() const noexcept { return total_es_; }

  // --- admission control (backpressure) --------------------------------------

  /// Bound the handler pool's ready queue: requests arriving while the
  /// backlog is >= `limit` are early-rejected with kFlagBusy instead of
  /// spawning a handler ULT (0 disables). The controller's
  /// admission_watermark rule toggles this around its high/low watermarks.
  void set_admission_limit(std::size_t limit) noexcept;
  [[nodiscard]] std::size_t admission_limit() const noexcept {
    return admission_limit_;
  }
  /// Requests early-rejected under admission control so far.
  [[nodiscard]] std::uint64_t admission_rejects() const noexcept {
    return admission_rejects_;
  }

  /// Record one adaptation action as a self-contained SYMBIOSYS span (see
  /// prof::make_action_span): `action_name` must be NameRegistry-registered
  /// by the caller or via this call; `started` is the detection timestamp.
  /// No-op below Stage 2 (tracing disabled).
  void record_action_span(const std::string& action_name, sim::TimeNs started);

  // Virtual-time cost of instrumentation actions; used by the overhead
  // study (Fig. 13) and charged only at the corresponding levels.
  static constexpr sim::DurationNs kMetadataCost = sim::nsec(20);
  static constexpr sim::DurationNs kTraceEventCost = sim::nsec(50);
  static constexpr sim::DurationNs kProfileRecordCost = sim::nsec(30);
  static constexpr sim::DurationNs kPvarSampleCost = sim::nsec(10);

 private:
  friend class PendingOp;
  friend class Request;

  void progress_loop();
  void sampler_loop();
  void on_request_arrival(hg::HandlePtr h);
  void run_handler(hg::HandlePtr h, const Handler& handler, sim::TimeNs t4);
  void complete_op(PendingOp& op);

  /// Hot-path profile recording. Every ES of an instance runs on its
  /// lane's single thread, so one store serves them all.
  void record_profile(const prof::CallpathKey& key, prof::Interval iv,
                      double ns) {
    profile_.record(key, iv, ns);
  }
  /// Batched variant: one key resolution for a completion callback that
  /// records several intervals on the same callpath back to back.
  template <typename... Samples>
  void record_profile_batch(const prof::CallpathKey& key,
                            Samples... samples) {
    profile_.record_batch(key, samples...);
  }
  void emit_trace(prof::TraceEventKind kind, std::uint64_t request_id,
                  std::uint32_t order, prof::Breadcrumb bc, ofi::EpAddr peer);
  void charge(sim::DurationNs d);
  std::uint64_t make_request_id() noexcept;

  // ULT-local key ids shared by all instances.
  static abt::KeyId key_breadcrumb();
  static abt::KeyId key_request_id();
  static abt::KeyId key_order();

  ofi::Fabric& fabric_;
  sim::Process& process_;
  sim::Node& node_;
  InstanceConfig cfg_;
  std::unique_ptr<abt::Runtime> runtime_;
  std::unique_ptr<hg::Class> hg_;

  abt::Pool* main_pool_ = nullptr;      // client app ULTs (+ progress if shared)
  abt::Pool* handler_pool_ = nullptr;   // server handler ULTs
  abt::Pool* progress_pool_ = nullptr;  // progress ULT's pool

  std::unordered_map<hg::RpcId,
                     std::unordered_map<std::uint16_t, Handler>>
      handlers_;
  std::unordered_map<hg::RpcId, std::uint16_t> rpc_hash16_;

  hg::PvarSession pvar_session_;
  hg::PvarHandle pv_cq_size_{};
  hg::PvarHandle pv_ofi_read_{};
  hg::PvarHandle pv_posted_{};
  hg::PvarHandle pv_input_ser_{};
  hg::PvarHandle pv_input_deser_{};
  hg::PvarHandle pv_output_ser_{};
  hg::PvarHandle pv_internal_rdma_{};
  hg::PvarHandle pv_origin_cb_{};
  hg::PvarHandle pv_output_deser_{};

  prof::ProfileStore profile_;
  prof::TraceStore trace_;
  prof::SysStatStore sysstats_;

  std::vector<abt::Xstream*> handler_xs_;  // created handler ESs (may be parked)

  std::uint64_t lamport_ = 0;
  std::uint64_t req_counter_ = 0;
  std::uint64_t requests_handled_ = 0;
  std::size_t admission_limit_ = 0;
  std::uint64_t admission_rejects_ = 0;
  bool started_ = false;
  bool finalize_requested_ = false;
  sim::TimeNs last_cpu_checkpoint_ = 0;
  unsigned total_es_ = 1;
  unsigned handler_es_count_ = 0;
};

}  // namespace sym::margo
