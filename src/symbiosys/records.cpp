#include "symbiosys/records.hpp"

#include <cstdio>

#include "symbiosys/breadcrumb.hpp"

namespace sym::prof {

// ---------------------------------------------------------------------------
// breadcrumb.hpp implementation
// ---------------------------------------------------------------------------

std::vector<std::uint16_t> components(Breadcrumb bc) {
  std::vector<std::uint16_t> out;
  if (bc == 0) return out;
  // Walk from the most significant non-zero 16-bit group down to the leaf.
  bool started = false;
  for (int shift = 48; shift >= 0; shift -= 16) {
    const auto part = static_cast<std::uint16_t>((bc >> shift) & 0xFFFF);
    if (!started && part == 0) continue;
    started = true;
    out.push_back(part);
  }
  return out;
}

int depth(Breadcrumb bc) noexcept {
  int d = 0;
  while (bc != 0) {
    ++d;
    bc >>= 16;
  }
  return d;
}

void NameRegistry::register_name(std::string_view name) {
  // symlint: allow(fiber-blocking) reason=registry is shared across lane
  // worker threads; tiny non-yielding critical section (see breadcrumb.hpp)
  // symlint: allow(may-block) reason=name interning happens at instrument
  // registration, not per event; critical section never yields
  const std::lock_guard<std::mutex> lock(mu_);
  names_.emplace(hash16(name), std::string(name));
}

std::string NameRegistry::lookup(std::uint16_t h) const {
  // symlint: allow(fiber-blocking) reason=registry is shared across lane
  // worker threads; tiny non-yielding critical section (see breadcrumb.hpp)
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = names_.find(h);
  if (it != names_.end()) return it->second;
  char buf[sizeof("<0xffff>")];
  std::snprintf(buf, sizeof(buf), "<0x%04x>", static_cast<unsigned>(h));
  return buf;
}

void NameRegistry::clear() {
  // symlint: allow(fiber-blocking) reason=registry is shared across lane
  // worker threads; tiny non-yielding critical section (see breadcrumb.hpp)
  const std::lock_guard<std::mutex> lock(mu_);
  names_.clear();
}

std::string NameRegistry::format(Breadcrumb bc) const {
  const auto parts = components(bc);
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += " => ";
    out += lookup(parts[i]);
  }
  return out.empty() ? "<root>" : out;
}

NameRegistry& NameRegistry::global() {
  // symlint: allow(shared-state-escape) reason=process-wide name interner; internally synchronized by its own mutex and stores names only, no timing state
  static NameRegistry reg;
  return reg;
}

// ---------------------------------------------------------------------------
// enum names
// ---------------------------------------------------------------------------

const char* to_string(Level l) noexcept {
  switch (l) {
    case Level::kOff: return "Baseline";
    case Level::kStage1: return "Stage 1";
    case Level::kStage2: return "Stage 2";
    case Level::kFull: return "Full Support";
  }
  return "?";
}

const char* to_string(Interval iv) noexcept {
  switch (iv) {
    case Interval::kOriginExec: return "origin_execution_time";
    case Interval::kInputSer: return "input_serialization_time";
    case Interval::kInternalRdma: return "target_internal_rdma_transfer_time";
    case Interval::kHandlerWait: return "target_ult_handler_time";
    case Interval::kInputDeser: return "input_deserialization_time";
    case Interval::kTargetExec: return "target_ult_execution_time";
    case Interval::kOutputSer: return "output_serialization_time";
    case Interval::kTargetCallback: return "target_completion_callback_time";
    case Interval::kOriginCallback: return "origin_completion_callback_time";
    case Interval::kOutputDeser: return "output_deserialization_time";
    case Interval::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Action spans
// ---------------------------------------------------------------------------

std::array<TraceEvent, 4> make_action_span(std::uint64_t request_id,
                                           Breadcrumb breadcrumb,
                                           std::uint32_t self_ep,
                                           sim::TimeNs start_ts,
                                           sim::TimeNs end_ts,
                                           std::uint64_t lamport_base) {
  std::array<TraceEvent, 4> out{};
  constexpr TraceEventKind kKinds[4] = {
      TraceEventKind::kOriginStart, TraceEventKind::kTargetStart,
      TraceEventKind::kTargetEnd, TraceEventKind::kOriginEnd};
  for (std::uint32_t i = 0; i < 4; ++i) {
    TraceEvent& ev = out[i];
    ev.request_id = request_id;
    ev.order = i;  // base_order 0: the action is its own root span
    ev.kind = kKinds[i];
    ev.breadcrumb = breadcrumb;
    ev.self_ep = self_ep;
    ev.peer_ep = self_ep;  // self-targeted: the actor adapts itself
    ev.local_ts = i < 2 ? start_ts : end_ts;
    ev.lamport = lamport_base + i + 1;
  }
  return out;
}

CallpathStats& ProfileStore::stats_for_slow(const CallpathKey& key,
                                            std::size_t slot) {
  CallpathStats& s = data_.find_or_insert(key);
  if (data_.generation() != memo_generation_) {
    // A rehash moved every slot; drop all cached pointers before
    // re-publishing the one find_or_insert just returned.
    for (auto& p : memo_vals_) p = nullptr;
    memo_generation_ = data_.generation();
  }
  memo_vals_[slot] = &s;
  memo_keys_[slot] = key;
  return s;
}

const char* to_string(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kOriginStart: return "origin_start";
    case TraceEventKind::kOriginEnd: return "origin_end";
    case TraceEventKind::kTargetStart: return "target_start";
    case TraceEventKind::kTargetEnd: return "target_end";
  }
  return "?";
}

}  // namespace sym::prof
