#include "merclite/core.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "argolite/runtime.hpp"

namespace sym::hg {

// ---------------------------------------------------------------------------
// RpcHeader wire format
// ---------------------------------------------------------------------------

void put(BufWriter& w, const RpcHeader& h) {
  put(w, h.rpc_id);
  put(w, h.provider_id);
  put(w, h.op_seq);
  put(w, h.breadcrumb);
  put(w, h.request_id);
  put(w, h.trace_order);
  put(w, h.lamport);
  put(w, h.flags);
  put(w, h.body_size);
}

void get(BufReader& r, RpcHeader& h) {
  get(r, h.rpc_id);
  get(r, h.provider_id);
  get(r, h.op_seq);
  get(r, h.breadcrumb);
  get(r, h.request_id);
  get(r, h.trace_order);
  get(r, h.lamport);
  get(r, h.flags);
  get(r, h.body_size);
}

// ---------------------------------------------------------------------------
// Class
// ---------------------------------------------------------------------------

Class::Class(ofi::Fabric& fabric, sim::Process& process, ClassConfig config)
    : fabric_(fabric),
      process_(process),
      config_(config),
      endpoint_(fabric.create_endpoint(process)) {
  register_pvars();
}

void Class::register_pvars() {
  // Table II rows (NO_OBJECT) ------------------------------------------------
  pvars_.add({"num_posted_handles", "Number of currently posted RPC handles",
              PvarClass::kLevel, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(posted_handles_);
             });
  pvars_.add({"completion_queue_size",
              "Number of events in the completion callback queue",
              PvarClass::kState, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(callback_queue_.size());
             });
  pvars_.add({"num_ofi_events_read",
              "Number of OFI completion events last read",
              PvarClass::kLevel, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(last_ofi_events_read_);
             });
  pvars_.add({"num_rpcs_invoked", "Number of RPCs invoked by instance",
              PvarClass::kCounter, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(num_rpcs_invoked_);
             });

  // Table II rows (HANDLE-bound timers) --------------------------------------
  pvars_.add({"internal_rdma_transfer_time",
              "Time taken to transfer additional RPC metadata through RDMA",
              PvarClass::kTimer, PvarBind::kHandle},
             [](const Handle* h) { return h->timer(kHtInternalRdma); });
  pvars_.add({"input_serialization_time",
              "Time taken to serialize input on origin", PvarClass::kTimer,
              PvarBind::kHandle},
             [](const Handle* h) { return h->timer(kHtInputSer); });
  pvars_.add({"input_deserialization_time",
              "Time taken to de-serialize input on target", PvarClass::kTimer,
              PvarBind::kHandle},
             [](const Handle* h) { return h->timer(kHtInputDeser); });
  pvars_.add({"output_serialization_time",
              "Time taken to serialize output on target", PvarClass::kTimer,
              PvarBind::kHandle},
             [](const Handle* h) { return h->timer(kHtOutputSer); });
  pvars_.add({"output_deserialization_time",
              "Time taken to de-serialize output on origin", PvarClass::kTimer,
              PvarBind::kHandle},
             [](const Handle* h) { return h->timer(kHtOutputDeser); });
  pvars_.add({"origin_completion_callback_time",
              "Delay between the arrival of RPC response and invocation of "
              "completion callback",
              PvarClass::kTimer, PvarBind::kHandle},
             [](const Handle* h) { return h->timer(kHtOriginCb); });

  // Additional exported metrics exercising the remaining PVAR classes -------
  pvars_.add({"num_rpcs_handled", "Number of RPC requests handled by instance",
              PvarClass::kCounter, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(num_rpcs_handled_);
             });
  // Writable: the eager-vs-RDMA overflow threshold is a control knob. A
  // tool (or the adaptive controller) raises it when too many requests take
  // the internal-RDMA path, through the same session interface it samples
  // from (§VII policy-driven reconfiguration).
  pvars_.add({"eager_buffer_size", "Size of the eager message buffer",
              PvarClass::kSize, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(config_.eager_limit);
             },
             [this](double v) {
               config_.eager_limit =
                   v < 0 ? 0 : static_cast<std::size_t>(v);
             });
  pvars_.add({"eager_overflow_count",
              "Requests whose input overflowed the eager buffer",
              PvarClass::kCounter, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(eager_overflows_);
             });
  pvars_.add({"bulk_bytes_transferred",
              "Total bytes moved through the bulk interface",
              PvarClass::kCounter, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(bulk_bytes_total_);
             });
  pvars_.add({"ofi_cq_high_watermark",
              "Highest observed depth of the OFI completion queue",
              PvarClass::kHighWatermark, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(endpoint_.cq().high_watermark());
             });
  pvars_.add({"callback_queue_high_watermark",
              "Highest observed depth of the completion callback queue",
              PvarClass::kHighWatermark, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(callback_queue_hwm_);
             });
  // The name predates in-place framing, when a send with no fresh wire
  // buffer was one served from a recycle pool.
  pvars_.add({"wire_buffer_pool_hits",
              "Sends that went on the wire in their payload buffer",
              PvarClass::kCounter, PvarBind::kNoObject},
             [this](const Handle*) {
               return static_cast<double>(frames_in_place_);
             });
  pvars_.add({"min_ofi_events_read",
              "Lowest non-trivial OFI event batch read by progress",
              PvarClass::kLowWatermark, PvarBind::kNoObject},
             [this](const Handle*) {
               return min_ofi_events_read_ == ~std::size_t{0}
                          ? 0.0
                          : static_cast<double>(min_ofi_events_read_);
             });
}

RpcId Class::register_rpc(const std::string& name, ArrivalCallback on_arrival) {
  const RpcId id = sim::fnv1a64(name.data(), name.size());
  rpc_names_[id] = name;
  if (on_arrival) {
    if (auto it = rpc_handlers_.find(id); it != rpc_handlers_.end()) {
      // Re-registration overwrites the slot in place: pointers handed out
      // by handle_request_arrival() stay valid and see the new handler.
      arrival_slots_[it->second] = std::move(on_arrival);
    } else {
      arrival_slots_.push_back(std::move(on_arrival));
      rpc_handlers_[id] = arrival_slots_.size() - 1;
    }
  }
  return id;
}

const std::string* Class::rpc_name(RpcId id) const {
  auto it = rpc_names_.find(id);
  return it == rpc_names_.end() ? nullptr : &it->second;
}

HandlePtr Class::create_handle(ofi::EpAddr dest, RpcId rpc,
                               std::uint16_t provider_id) {
  auto h = std::make_shared<Handle>();
  h->header.rpc_id = rpc;
  h->header.provider_id = provider_id;
  h->peer_ = dest;
  return h;
}

sim::DurationNs Class::ser_cost(std::size_t bytes) const noexcept {
  return config_.ser_base +
         static_cast<sim::DurationNs>(std::llround(
             static_cast<double>(bytes) * config_.ser_ns_per_byte));
}

sim::DurationNs Class::deser_cost(std::size_t bytes) const noexcept {
  return config_.deser_base +
         static_cast<sim::DurationNs>(std::llround(
             static_cast<double>(bytes) * config_.deser_ns_per_byte));
}

void Class::charge_compute(sim::DurationNs d) {
  // Outside ULT context (unit tests driving the class directly) the cost is
  // simply skipped: there is no ES to occupy.
  if (abt::self() != nullptr) abt::compute(d);
}

void Class::forward(const HandlePtr& h, std::vector<std::byte> input,
                    CompletionCallback on_complete) {
  assert(!h->target_side_ && "forward() on a target-side handle");
  h->header.body_size = input.size();

  // t2 -> t3: input serialization on the origin, charged to the calling ULT
  // and recorded in the HANDLE-bound PVAR.
  const auto cost = ser_cost(input.size());
  h->set_timer(kHtInputSer, static_cast<double>(cost));
  charge_compute(cost);

  h->header.op_seq = add_op(OpKind::kResponse, h, std::move(on_complete));
  ++posted_handles_;
  ++num_rpcs_invoked_;

  // The wire message is the input itself plus the header trailer. If the
  // body exceeds the eager limit only the eager portion is charged to the
  // wire here; the target fetches the remainder with an internal RDMA
  // before dispatch (t3->t4).
  std::uint64_t wire_bytes = 0;  // 0 => full size
  if (input.size() > config_.eager_limit) {
    h->header.flags |= kFlagEagerOverflow;
    ++eager_overflows_;
    wire_bytes = kRpcHeaderWireSize + config_.eager_limit;
  }
  // The input and the attachment move to the target, which adopts them;
  // should the target early-reject the request as busy, it hands both back
  // for the retry (see respond()).
  endpoint_.post_send(h->peer_, kTagRequest,
                      frame(std::move(input), h->header), /*context=*/0,
                      wire_bytes, std::move(h->attachment));
}

void Class::respond(const HandlePtr& h, std::vector<std::byte> output,
                    SentCallback on_sent) {
  assert(h->target_side_ && "respond() on an origin-side handle");

  // t9 -> t10: output serialization on the target.
  const auto cost = ser_cost(output.size());
  h->set_timer(kHtOutputSer, static_cast<double>(cost));
  charge_compute(cost);

  RpcHeader resp = h->header;
  // Only the library-status bits echo back to the origin.
  resp.flags = h->header.flags & (kFlagError | kFlagBusy);
  resp.body_size = output.size();
  std::uint64_t wire_bytes = 0;  // 0 => full size
  std::shared_ptr<void> attachment;
  if ((resp.flags & kFlagBusy) != 0) {
    // A busy early-reject is an empty response. It carries the request
    // input and attachment back to the origin, which re-sends them on
    // retry; both ride as content only, so the wire is charged for the
    // empty response.
    assert(output.empty() && "a busy early-reject has no output");
    output = std::move(h->body);
    attachment = std::move(h->attachment);
    wire_bytes = kRpcHeaderWireSize;
  }

  // Register the sent-completion continuation (t13) before posting.
  const std::uint64_t ctx =
      on_sent ? add_op(OpKind::kSent, h, std::move(on_sent)) : 0;
  endpoint_.post_send(h->peer_, kTagResponse, frame(std::move(output), resp),
                      ctx, wire_bytes, std::move(attachment));
}

void Class::bulk_transfer(const HandlePtr& h, std::uint64_t bytes,
                          OpCallback done) {
  bulk_bytes_total_ += bytes;
  endpoint_.post_rdma(h->peer_, bytes,
                      add_op(OpKind::kBulk, h, std::move(done)));
}

bool Class::cancel(const HandlePtr& h) {
  Op* op = find_op(h->header.op_seq);
  if (op == nullptr || op->kind != OpKind::kResponse) return false;
  release_op(*op);
  --posted_handles_;
  ++cancellations_;
  return true;
}

void Class::charge_output_deserialize(const HandlePtr& h) {
  const auto cost = deser_cost(h->response_body.size());
  h->set_timer(kHtOutputDeser, static_cast<double>(cost));
  charge_compute(cost);
}

void Class::charge_input_deserialize(const HandlePtr& h) {
  // t6 -> t7: input deserialization, charged in the handler ULT.
  const auto cost = deser_cost(h->body.size());
  h->set_timer(kHtInputDeser, static_cast<double>(cost));
  charge_compute(cost);
}

std::vector<std::byte> Class::frame(std::vector<std::byte> msg,
                                   const RpcHeader& h) {
  const std::size_t framed = msg.size() + kRpcHeaderWireSize;
  if (msg.capacity() < framed) {
    // No room for the trailer: the payload did not come from a BufWriter,
    // or small fields written after its last growth used up the tailroom.
    ++frames_grown_;
    msg.reserve(framed);
  } else {
    ++frames_in_place_;
  }
  BufWriter w(std::move(msg));
  put(w, h);
  return w.take();
}

bool Class::unframe(std::vector<std::byte>& msg, RpcHeader& h) {
  if (msg.size() < kRpcHeaderWireSize) {
    ++malformed_drops_;
    return false;
  }
  const std::size_t body_size = msg.size() - kRpcHeaderWireSize;
  BufReader r(msg.data() + body_size, kRpcHeaderWireSize);
  get(r, h);
  msg.resize(body_size);  // shrinks in place: capacity is kept
  return true;
}

std::uint64_t Class::add_op(OpKind kind, HandlePtr h, OpCallback done) {
  std::uint32_t slot = 0;
  if (free_ops_.empty()) {
    slot = static_cast<std::uint32_t>(ops_.size());
    ops_.emplace_back().slot = slot;
  } else {
    slot = free_ops_.back();
    free_ops_.pop_back();
  }
  Op& op = ops_[slot];
  op.handle = std::move(h);
  op.done = std::move(done);
  op.kind = kind;
  return (std::uint64_t{op.gen} << 32) | slot;
}

Class::Op* Class::find_op(std::uint64_t key) noexcept {
  const auto slot = static_cast<std::uint32_t>(key);
  if (slot >= ops_.size()) return nullptr;
  Op& op = ops_[slot];
  if (op.gen != key >> 32 || op.kind == OpKind::kFree || op.queued) {
    return nullptr;
  }
  return &op;
}

void Class::release_op(Op& op) noexcept {
  op.handle.reset();
  op.done = nullptr;
  op.kind = OpKind::kFree;
  op.queued = false;
  if (++op.gen == 0) op.gen = 1;  // keys are never 0
  free_ops_.push_back(op.slot);
}

void Class::enqueue_op(Op& op) {
  op.queued = true;
  callback_queue_.push_back(op.slot);
  if (callback_queue_.size() > callback_queue_hwm_) {
    callback_queue_hwm_ = callback_queue_.size();
  }
}

void Class::handle_request_arrival(ofi::CqEntry&& entry) {
  RpcHeader header;
  if (!unframe(entry.data, header)) return;
  auto h = std::make_shared<Handle>();
  h->header = header;
  h->target_side_ = true;
  h->peer_ = entry.peer;
  h->received_at_ = engine().now();  // t3
  h->body = std::move(entry.data);  // the wire buffer, adopted
  h->attachment = std::move(entry.attachment);
  ++num_rpcs_handled_;

  auto it = rpc_handlers_.find(h->header.rpc_id);
  if (it == rpc_handlers_.end()) return;  // unknown RPC: drop
  // Borrow the handler through its stable slot: deque storage never moves
  // on growth and re-registration overwrites in place, so the pointer stays
  // valid across map mutations — no per-request copy of the callback.
  ArrivalCallback* arrival = &arrival_slots_[it->second];

  if ((h->header.flags & kFlagEagerOverflow) != 0) {
    // t3 -> t4: fetch the overflowing request metadata via internal RDMA,
    // then dispatch. The elapsed time lands in the HANDLE-bound PVAR.
    const std::uint64_t remaining =
        h->header.body_size > config_.eager_limit
            ? h->header.body_size - config_.eager_limit
            : 0;
    const sim::TimeNs started = engine().now();
    const ofi::EpAddr peer = h->peer_;
    const std::uint64_t ctx = add_op(
        OpKind::kFetch, std::move(h),
        [this, arrival, started](const HandlePtr& fetched) {
          fetched->set_timer(kHtInternalRdma,
                             static_cast<double>(engine().now() - started));
          (*arrival)(fetched);
        });
    endpoint_.post_rdma(peer, remaining, ctx);
  } else {
    (*arrival)(std::move(h));
  }
}

void Class::handle_response_arrival(ofi::CqEntry&& entry) {
  RpcHeader resp;
  if (!unframe(entry.data, resp)) return;
  Op* op = find_op(resp.op_seq);
  if (op == nullptr || op->kind != OpKind::kResponse) {
    return;  // stale, duplicate or cancelled
  }
  --posted_handles_;
  Handle* h = op->handle.get();
  if ((resp.flags & kFlagBusy) != 0) {
    // The input and attachment, handed back for a retry.
    h->body = std::move(entry.data);
    h->attachment = std::move(entry.attachment);
  } else {
    h->response_body = std::move(entry.data);
  }
  h->response_queued_at_ = engine().now();  // t12
  // Carry the responder's Lamport clock back to the origin so the tracing
  // layer can apply the receive-side max+1 update, and surface the
  // library-level error/busy flags if the target set them.
  h->header.lamport = resp.lamport;
  h->header.flags |= (resp.flags & (kFlagError | kFlagBusy));

  // With no completion callback there is nothing to trigger.
  if (op->done) {
    enqueue_op(*op);
  } else {
    release_op(*op);
  }
}

std::size_t Class::progress() {
  // One allocation sized to the batch. Not a member scratch vector: with
  // no such allocation on the hot path, glibc leaves its unsorted free
  // list unsorted for the whole run, and the first allocations of the
  // analysis after the run spend milliseconds sorting it.
  std::vector<ofi::CqEntry> events;
  events.reserve(std::min(endpoint_.cq().size(), config_.max_events));
  const std::size_t n = endpoint_.cq().read(events, config_.max_events);
  last_ofi_events_read_ = n;
  if (n > 0 && n < min_ofi_events_read_) min_ofi_events_read_ = n;
  if (n == 0) return 0;

  charge_compute(config_.progress_base_cost +
                 static_cast<sim::DurationNs>(n) *
                     config_.progress_per_event_cost);

  for (auto& ev : events) {
    switch (ev.kind) {
      case ofi::CqKind::kRecv:
        if (ev.tag == kTagRequest) {
          handle_request_arrival(std::move(ev));
        } else if (ev.tag == kTagResponse) {
          handle_response_arrival(std::move(ev));
        }
        break;
      case ofi::CqKind::kSendComplete:
      case ofi::CqKind::kRdmaComplete: {
        Op* op = find_op(ev.context);
        if (op == nullptr || op->kind == OpKind::kResponse) break;
        if (op->kind != OpKind::kFetch) {
          enqueue_op(*op);
          break;
        }
        // The request is whole: dispatch it now (t4), not from trigger().
        HandlePtr h = std::move(op->handle);
        OpCallback dispatch = std::move(op->done);
        release_op(*op);
        dispatch(h);
        break;
      }
    }
  }
  return n;
}

std::size_t Class::trigger(std::size_t max) {
  std::size_t ran = 0;
  while (ran < max && !callback_queue_.empty()) {
    // Take the operation out of its slot before running anything: the
    // continuation may forward again and reuse the slot.
    Op& op = ops_[callback_queue_.front()];
    callback_queue_.pop_front();
    const bool origin = op.kind == OpKind::kResponse;
    HandlePtr h = std::move(op.handle);
    OpCallback done = std::move(op.done);
    release_op(op);
    charge_compute(config_.trigger_dispatch_cost);
    if (origin) {
      // t12 -> t14: origin completion-callback delay.
      h->set_timer(kHtOriginCb, static_cast<double>(
                                    engine().now() - h->response_queued_at_));
    }
    if (done) done(h);
    ++ran;
  }
  return ran;
}

bool Class::wait_for_events(sim::DurationNs timeout) {
  return endpoint_.cq().wait_nonempty(timeout);
}

}  // namespace sym::hg
