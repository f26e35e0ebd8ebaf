#include "workloads/loadgen/loadgen.hpp"

#include <cassert>
#include <cmath>

namespace sym::workloads::loadgen {

namespace {

/// Order-sensitive 64-bit fold used for the arrival/completion checksums.
/// Per-lane accumulators are combined in node order after the run, so the
/// result depends only on simulation state, never on worker interleaving.
std::uint64_t mix64(std::uint64_t acc, std::uint64_t v) noexcept {
  std::uint64_t s = acc ^ (v + 0x9E3779B97F4A7C15ULL);
  return sim::splitmix64(s);
}

std::uint64_t round_positive(double x) noexcept {
  const auto r = static_cast<std::uint64_t>(std::llround(x));
  return r == 0 ? 1 : r;
}

}  // namespace

LoadgenWorld::LoadgenWorld(LoadgenParams params) : params_(std::move(params)) {
  const Scenario& sc = params_.scenario;
  assert(!sc.ops.empty());
  assert(!sc.phases.empty());
  for (const Phase& ph : sc.phases) {
    assert(ph.duration > 0);
    assert(ph.weight_scale.empty() || ph.weight_scale.size() == sc.ops.size());
    cycle_len_ += ph.duration;
  }

  eng_ = std::make_unique<sim::Engine>(params_.seed, params_.exec);
  sim::ClusterParams cp;
  cp.node_count = params_.node_count;
  cluster_ = std::make_unique<sim::Cluster>(*eng_, cp);
  if (!params_.reserve_events_by_lane.empty()) {
    assert(params_.reserve_events_by_lane.size() == eng_->lane_count());
    for (std::uint32_t l = 0; l < eng_->lane_count(); ++l) {
      eng_->reserve_events_on(l, params_.reserve_events_by_lane[l]);
    }
  }
  if (!params_.reserve_outbox_matrix.empty()) {
    eng_->reserve_outboxes(params_.reserve_outbox_matrix);
  }

  const std::uint32_t n = params_.node_count;
  std::uint32_t server_n = params_.server_nodes != 0
                               ? params_.server_nodes
                               : (n / 4 != 0 ? n / 4 : 1);
  if (server_n > n) server_n = n;

  servers_.resize(server_n);
  for (std::uint32_t s = 0; s < server_n; ++s) {
    Server& sv = servers_[s];
    sv.node = s;
    sv.per_op.resize(sc.ops.size());
    if (params_.reserve_requests_per_server != 0) {
      sv.arena.reserve(params_.reserve_requests_per_server);
    }
  }

  // Pumps live on the nodes after the servers; a cluster too small to split
  // co-locates them with the servers (intra-node latency then applies).
  const std::uint32_t pump_begin = server_n < n ? server_n : 0;
  const std::uint32_t pump_n = n - pump_begin;
  pumps_.resize(pump_n);
  const std::uint64_t base_share = params_.client_population / pump_n;
  const std::uint64_t remainder = params_.client_population % pump_n;
  for (std::uint32_t i = 0; i < pump_n; ++i) {
    Pump& p = pumps_[i];
    p.node = pump_begin + i;
    p.clients = base_share + (i < remainder ? 1 : 0);
  }

  // Seed one pump event per client node, staggered across the first quantum
  // so arrival streams do not start phase-locked. Main-context at_on is a
  // direct insertion, so this is legal before run().
  for (std::uint32_t i = 0; i < pump_n; ++i) {
    Pump& p = pumps_[i];
    if (p.clients == 0) continue;
    const sim::TimeNs t0 =
        static_cast<sim::TimeNs>(params_.pump_quantum) * i / pump_n;
    p.next_arrival = t0;
    const std::uint32_t idx = i;
    eng_->at_on(eng_->lane_for_node(p.node), t0,
                [this, idx] { pump_tick(idx); });
  }
}

LoadgenWorld::~LoadgenWorld() = default;

const Phase& LoadgenWorld::phase_at(sim::TimeNs t,
                                    std::uint32_t* index) const {
  sim::TimeNs off = t % cycle_len_;
  const std::vector<Phase>& phases = params_.scenario.phases;
  for (std::uint32_t i = 0;; ++i) {
    const Phase& ph = phases[i];
    if (off < ph.duration || i + 1 == phases.size()) {
      if (index != nullptr) *index = i;
      return ph;
    }
    off -= ph.duration;
  }
}

void LoadgenWorld::pump_tick(std::uint32_t pump_idx) {
  Pump& p = pumps_[pump_idx];
  const Scenario& sc = params_.scenario;
  sim::Rng& rng = eng_->rng();
  const sim::TimeNs tick_end = eng_->now() + params_.pump_quantum;
  const double shape_mean = sc.gap_shape.mean();

  // Materialize this quantum's arrivals. The gap draw is scaled so its mean
  // matches the phase rate at the moment of the draw; a rate change mid-gap
  // takes effect at the next draw (the pump quantum bounds the lag).
  while (p.next_arrival < tick_end && p.next_arrival <= params_.horizon) {
    emit_arrival(p, p.next_arrival);
    const Phase& ph = phase_at(p.next_arrival);
    const double rate_per_ms = sc.arrivals_per_client_per_ms * ph.rate_scale *
                               static_cast<double>(p.clients);
    assert(rate_per_ms > 0.0);
    const double mean_gap_ns = 1e6 / rate_per_ms;
    const double gap = sc.gap_shape.sample(rng) * (mean_gap_ns / shape_mean);
    p.next_arrival += round_positive(gap);
  }

  if (tick_end <= params_.horizon) {
    eng_->after(params_.pump_quantum, [this, pump_idx] { pump_tick(pump_idx); });
  }
}

void LoadgenWorld::emit_arrival(Pump& p, sim::TimeNs t) {
  const Scenario& sc = params_.scenario;
  sim::Rng& rng = eng_->rng();
  std::uint32_t phase_idx = 0;
  const Phase& ph = phase_at(t, &phase_idx);

  // Draw the op class from the phase-scaled weights.
  double total = 0.0;
  for (std::size_t i = 0; i < sc.ops.size(); ++i) {
    const double scale = ph.weight_scale.empty() ? 1.0 : ph.weight_scale[i];
    total += sc.ops[i].weight * scale;
  }
  double u = rng.uniform01() * total;
  std::uint16_t op = 0;
  for (std::size_t i = 0; i < sc.ops.size(); ++i) {
    const double scale = ph.weight_scale.empty() ? 1.0 : ph.weight_scale[i];
    u -= sc.ops[i].weight * scale;
    if (u <= 0.0 || i + 1 == sc.ops.size()) {
      op = static_cast<std::uint16_t>(i);
      break;
    }
  }

  const auto server =
      static_cast<std::uint32_t>(rng.uniform(servers_.size()));
  const std::uint64_t bytes = round_positive(sc.ops[op].size_bytes.sample(rng));
  const std::uint64_t id =
      (static_cast<std::uint64_t>(p.node) << 40) | p.next_seq++;

  ++p.generated;
  p.checksum = mix64(p.checksum, mix64(id, t));
  if (params_.record_arrivals) {
    p.log.push_back(ArrivalRecord{t, id, bytes, server, op});
  }

  // Ship the request to the server's lane through the window mailbox. A
  // cross-lane link latency is the inter-node latency, which the Cluster
  // installed as the engine's lookahead, so the post is always window-safe.
  const std::uint32_t snode = servers_[server].node;
  const sim::TimeNs deliver_t = t + cluster_->link_latency(p.node, snode);
  eng_->at_on(eng_->lane_for_node(snode), deliver_t,
              [this, server, id, bytes, op] { deliver(server, id, bytes, op); });
}

void LoadgenWorld::deliver(std::uint32_t server_idx, std::uint64_t id,
                           std::uint64_t bytes, std::uint16_t op) {
  Server& s = servers_[server_idx];
  ++s.arrived;
  ++s.per_op[op].requests;

  const std::uint32_t rec_idx = s.arena.acquire();
  abt::RequestRec& r = s.arena.rec(rec_idx);
  r.id = id;
  r.bytes = bytes;
  r.arrival = eng_->now();
  r.op = op;

  if (!s.busy) {
    start_service(server_idx, rec_idx);
    return;
  }
  // FIFO append behind the request in service.
  if (s.q_tail == abt::RequestRec::kNil) {
    s.q_head = rec_idx;
  } else {
    s.arena.rec(s.q_tail).next = rec_idx;
  }
  s.q_tail = rec_idx;
  ++s.queued;
  if (s.queued > s.peak_queued) s.peak_queued = s.queued;
}

void LoadgenWorld::start_service(std::uint32_t server_idx,
                                 std::uint32_t rec_idx) {
  Server& s = servers_[server_idx];
  abt::RequestRec& r = s.arena.rec(rec_idx);
  const OpClass& op = params_.scenario.ops[r.op];

  s.busy = true;
  r.service_start = eng_->now();
  const sim::DurationNs service =
      op.base_ns + static_cast<sim::DurationNs>(std::llround(
                       static_cast<double>(r.bytes) / op.bytes_per_ns));
  eng_->after(service, [this, server_idx, rec_idx] {
    complete(server_idx, rec_idx);
  });
}

void LoadgenWorld::complete(std::uint32_t server_idx, std::uint32_t rec_idx) {
  Server& s = servers_[server_idx];
  const sim::TimeNs now = eng_->now();
  {
    const abt::RequestRec& r = s.arena.rec(rec_idx);
    OpTotals& ot = s.per_op[r.op];
    ++s.completed;
    ++ot.completed;
    ot.bytes += r.bytes;
    ot.busy_ns += now - r.service_start;
    ot.queue_ns += r.service_start - r.arrival;
    s.checksum = mix64(s.checksum, mix64(r.id, now));
  }
  s.arena.release(rec_idx);

  if (s.q_head != abt::RequestRec::kNil) {
    const std::uint32_t next = s.q_head;
    s.q_head = s.arena.rec(next).next;
    if (s.q_head == abt::RequestRec::kNil) s.q_tail = abt::RequestRec::kNil;
    s.arena.rec(next).next = abt::RequestRec::kNil;
    --s.queued;
    start_service(server_idx, next);
  } else {
    s.busy = false;
  }
}

void LoadgenWorld::run() {
  assert(!ran_);
  eng_->run_until(params_.horizon);
  ran_ = true;
}

std::uint64_t LoadgenWorld::generated() const noexcept {
  std::uint64_t total = 0;
  for (const Pump& p : pumps_) total += p.generated;
  return total;
}

std::uint64_t LoadgenWorld::completed() const noexcept {
  std::uint64_t total = 0;
  for (const Server& s : servers_) total += s.completed;
  return total;
}

std::uint64_t LoadgenWorld::peak_queued() const noexcept {
  std::uint64_t peak = 0;
  for (const Server& s : servers_) {
    if (s.peak_queued > peak) peak = s.peak_queued;
  }
  return peak;
}

std::uint64_t LoadgenWorld::request_slots() const noexcept {
  std::uint64_t total = 0;
  for (const Server& s : servers_) total += s.arena.slot_count();
  return total;
}

std::uint64_t LoadgenWorld::requests_recycled() const noexcept {
  std::uint64_t total = 0;
  for (const Server& s : servers_) total += s.arena.recycled();
  return total;
}

std::uint64_t LoadgenWorld::request_growths() const noexcept {
  std::uint64_t total = 0;
  for (const Server& s : servers_) total += s.arena.growths();
  return total;
}

std::uint64_t LoadgenWorld::arrival_checksum() const noexcept {
  std::uint64_t acc = 0;
  for (const Pump& p : pumps_) acc = mix64(acc, p.checksum);
  return acc;
}

std::uint64_t LoadgenWorld::completion_checksum() const noexcept {
  std::uint64_t acc = 0;
  for (const Server& s : servers_) acc = mix64(acc, s.checksum);
  return acc;
}

std::vector<OpTotals> LoadgenWorld::op_totals() const {
  std::vector<OpTotals> totals(params_.scenario.ops.size());
  for (const Server& s : servers_) {
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i].requests += s.per_op[i].requests;
      totals[i].completed += s.per_op[i].completed;
      totals[i].bytes += s.per_op[i].bytes;
      totals[i].busy_ns += s.per_op[i].busy_ns;
      totals[i].queue_ns += s.per_op[i].queue_ns;
    }
  }
  return totals;
}

std::uint32_t LoadgenWorld::dominant_op() const {
  const std::vector<OpTotals> totals = op_totals();
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < totals.size(); ++i) {
    if (totals[i].busy_ns > totals[best].busy_ns) best = i;
  }
  return best;
}

std::vector<ArrivalRecord> LoadgenWorld::arrival_log() const {
  std::vector<ArrivalRecord> out;
  for (const Pump& p : pumps_) {
    out.insert(out.end(), p.log.begin(), p.log.end());
  }
  return out;
}

}  // namespace sym::workloads::loadgen
