// Tests for the SYMBIOSYS analysis layer: breadcrumb algebra, profile
// summary, trace stitching + clock-skew correction (with its edge cases),
// Zipkin export, the CSV exporters, and golden digests of the trace
// analysis output on small Mobject and HEPnOS deployments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "simkit/rng.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/breadcrumb.hpp"
#include "symbiosys/export.hpp"
#include "symbiosys/records.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/mobject_world.hpp"

namespace prof = sym::prof;
namespace sim = sym::sim;

// ---------------------------------------------------------------------------
// Breadcrumbs
// ---------------------------------------------------------------------------

TEST(Breadcrumb, Hash16NeverZero) {
  // 0 is reserved for "no ancestry".
  for (const char* name : {"a", "b", "some_rpc", "x_rpc", ""}) {
    EXPECT_NE(prof::hash16(name), 0) << name;
  }
}

TEST(Breadcrumb, ExtendShiftsAndOrs) {
  const auto a = prof::hash16("outer");
  const auto b = prof::hash16("inner");
  const auto bc = prof::extend(a, b);
  EXPECT_EQ(bc, (static_cast<std::uint64_t>(a) << 16) | b);
  EXPECT_EQ(prof::leaf_of(bc), b);
  EXPECT_EQ(prof::depth(bc), 2);
}

TEST(Breadcrumb, DepthCapsAtFourLevels) {
  prof::Breadcrumb bc = 0;
  const std::uint16_t leaves[5] = {prof::hash16("a"), prof::hash16("b"),
                                   prof::hash16("c"), prof::hash16("d"),
                                   prof::hash16("e")};
  for (int i = 0; i < 4; ++i) bc = prof::extend(bc, leaves[i]);
  EXPECT_EQ(prof::depth(bc), 4);
  const auto parts = prof::components(bc);
  ASSERT_EQ(parts.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(parts[i], leaves[i]);
  // A fifth level pushes the oldest ancestor out of the 64-bit window.
  bc = prof::extend(bc, leaves[4]);
  EXPECT_EQ(prof::depth(bc), 4);
  EXPECT_EQ(prof::components(bc)[0], leaves[1]);
  EXPECT_EQ(prof::leaf_of(bc), leaves[4]);
}

TEST(Breadcrumb, NameRegistryFormatting) {
  prof::NameRegistry reg;
  reg.register_name("read_op");
  reg.register_name("list_rpc");
  const auto bc =
      prof::extend(prof::hash16("read_op"), prof::hash16("list_rpc"));
  EXPECT_EQ(reg.format(bc), "read_op => list_rpc");
  EXPECT_EQ(reg.format(0), "<root>");
  // Unknown hashes render as their 4-digit hex placeholder, not crashes.
  EXPECT_EQ(prof::hash16("unknown_rpc"), 0x71fa);
  EXPECT_EQ(reg.format(prof::hash16("unknown_rpc")), "<0x71fa>");
  EXPECT_EQ(reg.lookup(0x00ab), "<0x00ab>");
}

// ---------------------------------------------------------------------------
// IntervalStats / ProfileStore
// ---------------------------------------------------------------------------

TEST(IntervalStats, AccumulatesMinMaxMeanSum) {
  prof::IntervalStats s;
  s.add(10);
  s.add(30);
  s.add(20);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum_ns, 60);
  EXPECT_DOUBLE_EQ(s.min_ns, 10);
  EXPECT_DOUBLE_EQ(s.max_ns, 30);
  EXPECT_DOUBLE_EQ(s.mean_ns(), 20);

  prof::IntervalStats t;
  t.add(5);
  s.merge(t);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min_ns, 5);
  prof::IntervalStats empty;
  s.merge(empty);
  EXPECT_EQ(s.count, 4u);
}

TEST(ProfileSummary, RanksByCumulativeLatencyAndMergesEntities) {
  prof::NameRegistry::global().register_name("hot_rpc");
  prof::NameRegistry::global().register_name("cold_rpc");
  prof::ProfileStore a, b;
  const prof::Breadcrumb hot = prof::hash16("hot_rpc");
  const prof::Breadcrumb cold = prof::hash16("cold_rpc");
  // Two origin entities record the hot path; one records the cold path.
  a.record({hot, prof::Side::kOrigin, 1, 9}, prof::Interval::kOriginExec,
           500'000);
  b.record({hot, prof::Side::kOrigin, 2, 9}, prof::Interval::kOriginExec,
           400'000);
  b.record({cold, prof::Side::kOrigin, 2, 9}, prof::Interval::kOriginExec,
           100'000);
  // Target side of the hot path.
  a.record({hot, prof::Side::kTarget, 9, 1}, prof::Interval::kTargetExec,
           300'000);

  const auto summary = prof::ProfileSummary::build({&a, &b});
  ASSERT_EQ(summary.callpaths.size(), 2u);
  EXPECT_EQ(summary.callpaths[0].breadcrumb, hot);
  EXPECT_EQ(summary.callpaths[0].call_count, 2u);
  EXPECT_DOUBLE_EQ(summary.callpaths[0].cumulative_ns, 900'000);
  EXPECT_EQ(summary.callpaths[0].per_origin_ns.size(), 2u);
  EXPECT_EQ(summary.callpaths[0].per_target_ns.size(), 1u);
  EXPECT_DOUBLE_EQ(summary.total_ns, 1'000'000);

  const auto* found = summary.find_by_leaf("cold_rpc");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->breadcrumb, cold);
  EXPECT_EQ(summary.find_by_leaf("never_registered_rpc_xyz"), nullptr);

  const auto text = summary.format(5);
  EXPECT_NE(text.find("hot_rpc"), std::string::npos);
}

TEST(ProfileSummary, UnaccountedIsEnvelopeMinusComponents) {
  prof::ProfileStore a;
  const prof::Breadcrumb bc = prof::hash16("u_rpc");
  a.record({bc, prof::Side::kOrigin, 1, 2}, prof::Interval::kOriginExec,
           1000);
  a.record({bc, prof::Side::kOrigin, 1, 2}, prof::Interval::kInputSer, 100);
  a.record({bc, prof::Side::kTarget, 2, 1}, prof::Interval::kTargetExec, 600);
  const auto summary = prof::ProfileSummary::build({&a});
  ASSERT_EQ(summary.callpaths.size(), 1u);
  EXPECT_DOUBLE_EQ(summary.callpaths[0].unaccounted_ns(), 300);
}

// ---------------------------------------------------------------------------
// Trace stitching & skew correction
// ---------------------------------------------------------------------------

namespace {

/// Emit the four events of one span with the given *true* times, applying a
/// per-endpoint clock offset to what gets recorded.
void emit_span(prof::TraceStore& origin_store, prof::TraceStore& target_store,
               std::uint64_t rid, prof::Breadcrumb bc, std::uint32_t order,
               std::uint32_t origin_ep, std::uint32_t target_ep,
               sim::TimeNs t1, sim::TimeNs t5, sim::TimeNs t8,
               sim::TimeNs t14, std::int64_t origin_skew,
               std::int64_t target_skew, std::uint32_t blocked = 0) {
  auto mk = [&](prof::TraceEventKind kind, std::uint32_t ord, sim::TimeNs t,
                std::uint32_t self, std::uint32_t peer, std::int64_t skew) {
    prof::TraceEvent ev;
    ev.request_id = rid;
    ev.order = ord;
    ev.kind = kind;
    ev.breadcrumb = bc;
    ev.self_ep = self;
    ev.peer_ep = peer;
    ev.local_ts = static_cast<sim::TimeNs>(static_cast<std::int64_t>(t) +
                                           skew);
    ev.lamport = ord + 1;
    ev.blocked_ults = blocked;
    return ev;
  };
  origin_store.append(mk(prof::TraceEventKind::kOriginStart, order, t1,
                         origin_ep, target_ep, origin_skew));
  target_store.append(mk(prof::TraceEventKind::kTargetStart, order + 1, t5,
                         target_ep, origin_ep, target_skew));
  target_store.append(mk(prof::TraceEventKind::kTargetEnd, order + 2, t8,
                         target_ep, origin_ep, target_skew));
  origin_store.append(mk(prof::TraceEventKind::kOriginEnd, order + 3, t14,
                         origin_ep, target_ep, origin_skew));
}

}  // namespace

TEST(TraceSummary, StitchesFourEventsIntoOneSpan) {
  prof::TraceStore o, t;
  emit_span(o, t, 0xABC, prof::hash16("rpc"), 0, 1, 2, 1000, 2000, 3000,
            4000, 0, 0, 7);
  const auto summary = prof::TraceSummary::build({&o, &t});
  ASSERT_EQ(summary.requests.size(), 1u);
  ASSERT_EQ(summary.requests[0].spans.size(), 1u);
  const auto& sp = summary.requests[0].spans[0];
  EXPECT_EQ(sp.origin_ep, 1u);
  EXPECT_EQ(sp.target_ep, 2u);
  EXPECT_EQ(sp.origin_start, 1000u);
  EXPECT_EQ(sp.origin_end, 4000u);
  EXPECT_EQ(sp.duration(), 3000u);
  EXPECT_EQ(sp.target_blocked_ults, 7u);
  EXPECT_EQ(summary.total_events, 4u);
  EXPECT_NE(summary.find(0xABC), nullptr);
  EXPECT_EQ(summary.find(0xDEF), nullptr);
}

TEST(TraceSummary, RepeatedCallsOnSamePathStaySeparate) {
  // Two sdskv_put calls inside the same request share a breadcrumb but use
  // distinct order bases — they must become two spans.
  prof::TraceStore o, t;
  const auto bc = prof::hash16("put");
  emit_span(o, t, 1, bc, 0, 1, 2, 100, 200, 300, 400, 0, 0);
  emit_span(o, t, 1, bc, 4, 1, 2, 500, 600, 700, 800, 0, 0);
  const auto summary = prof::TraceSummary::build({&o, &t});
  ASSERT_EQ(summary.requests.size(), 1u);
  EXPECT_EQ(summary.requests[0].spans.size(), 2u);
}

TEST(TraceSummary, CorrectsClockSkew) {
  // Target clock runs 500us ahead; symmetric network delay 10us each way.
  prof::TraceStore o, t;
  const std::int64_t skew = 500'000;
  for (int i = 0; i < 8; ++i) {
    const sim::TimeNs base = 1'000'000 + 100'000 * i;
    emit_span(o, t, 100 + i, prof::hash16("rpc"), 0, 1, 2,
              base, base + 10'000, base + 50'000, base + 60'000, 0, skew);
  }
  const auto summary = prof::TraceSummary::build({&o, &t});
  // The estimated offset of ep2 relative to ep1 should be ~= skew.
  ASSERT_TRUE(summary.clock_offset_ns.count(2));
  EXPECT_NEAR(summary.clock_offset_ns.at(2), 500'000, 1'000);
  // Corrected span timestamps must be causally ordered.
  for (const auto& rt : summary.requests) {
    for (const auto& sp : rt.spans) {
      EXPECT_LE(sp.origin_start, sp.target_start);
      EXPECT_LE(sp.target_start, sp.target_end);
      EXPECT_LE(sp.target_end, sp.origin_end);
    }
  }
}

TEST(TraceSummary, FormatRendersGantt) {
  prof::NameRegistry::global().register_name("root_op");
  prof::TraceStore o, t;
  emit_span(o, t, 55, prof::hash16("root_op"), 0, 1, 2, 0, 10, 20, 30, 0, 0);
  const auto summary = prof::TraceSummary::build({&o, &t});
  const auto text = summary.format_request(summary.requests[0]);
  EXPECT_NE(text.find("root_op"), std::string::npos);
  EXPECT_NE(text.find("ep1 -> ep2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stitching edge cases
// ---------------------------------------------------------------------------

namespace {

prof::TraceEvent trace_event(prof::TraceEventKind kind, std::uint64_t rid,
                             prof::Breadcrumb bc, std::uint32_t order,
                             std::uint32_t self, std::uint32_t peer,
                             sim::TimeNs local_ts) {
  prof::TraceEvent ev;
  ev.request_id = rid;
  ev.order = order;
  ev.kind = kind;
  ev.breadcrumb = bc;
  ev.self_ep = self;
  ev.peer_ep = peer;
  ev.local_ts = local_ts;
  ev.lamport = order + 1;
  return ev;
}

/// The single span of request `rid` (a default span, after a failed
/// expectation, when the request is missing or has another span count).
const prof::Span& only_span(const prof::TraceSummary& summary,
                            std::uint64_t rid) {
  static const prof::Span kMissing{};
  const prof::RequestTrace* rt = summary.find(rid);
  const bool one = rt != nullptr && rt->spans.size() == 1;
  EXPECT_TRUE(one) << "request " << rid;
  return one ? rt->spans.front() : kMissing;
}

}  // namespace

TEST(TraceSummary, IncompleteSpansKeepMissingEventsAtZero) {
  // ep2 runs 1000 ns ahead; one complete span pins the offset, two partial
  // spans (no t5, no t14) are corrected around their missing events and
  // contribute nothing to the skew estimate.
  using K = prof::TraceEventKind;
  prof::TraceStore o, t;
  const auto bc = prof::hash16("partial_rpc");
  emit_span(o, t, 1, bc, 0, 1, 2, 100, 200, 300, 400, 0, 1000);
  o.append(trace_event(K::kOriginStart, 2, bc, 0, 1, 2, 500));
  t.append(trace_event(K::kTargetEnd, 2, bc, 2, 2, 1, 1700));
  o.append(trace_event(K::kOriginEnd, 2, bc, 3, 1, 2, 800));
  o.append(trace_event(K::kOriginStart, 3, bc, 0, 1, 2, 900));
  t.append(trace_event(K::kTargetStart, 3, bc, 1, 2, 1, 2000));
  t.append(trace_event(K::kTargetEnd, 3, bc, 2, 2, 1, 2100));
  const auto summary = prof::TraceSummary::build({&o, &t});
  EXPECT_EQ(summary.total_events, 10u);
  EXPECT_EQ(summary.total_spans, 3u);
  ASSERT_EQ(summary.clock_offset_ns.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.clock_offset_ns.at(2), 1000);

  const prof::Span& no_t5 = only_span(summary, 2);
  EXPECT_EQ(no_t5.origin_start, 500u);
  EXPECT_EQ(no_t5.target_start, 0u);
  EXPECT_EQ(no_t5.target_end, 700u);
  EXPECT_EQ(no_t5.origin_end, 800u);
  EXPECT_EQ(no_t5.target_ep, 2u);  // from t1's peer

  const prof::Span& no_t14 = only_span(summary, 3);
  EXPECT_EQ(no_t14.origin_start, 900u);
  EXPECT_EQ(no_t14.target_start, 1000u);
  EXPECT_EQ(no_t14.target_end, 1100u);
  EXPECT_EQ(no_t14.origin_end, 0u);
  EXPECT_EQ(no_t14.duration(), 0u);
}

TEST(TraceSummary, LostOriginEventsLeavePartialSpans) {
  // The origin store keeps only the newest 17 origin events: span 512
  // loses only its t1 while spans 1..511 lose both origin events; the
  // target store keeps everything.
  prof::TraceStore all, o, t;
  const auto bc = prof::hash16("lost_rpc");
  constexpr std::uint64_t kSpans = 520;
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    const sim::TimeNs base = 10'000 * (i + 1);
    emit_span(all, t, i + 1, bc, 0, 1, 2, base, base + 100, base + 200,
              base + 300, 0, 0);
  }
  for (std::size_t i = all.size() - 17; i < all.size(); ++i) {
    o.append(all.events()[i]);
  }
  const auto summary = prof::TraceSummary::build({&o, &t});
  EXPECT_EQ(summary.total_events, o.size() + t.size());
  EXPECT_EQ(summary.total_spans, kSpans);
  std::size_t target_only = 0;
  for (const auto& rt : summary.requests) {
    for (const auto& sp : rt.spans) {
      if (sp.origin_start == 0 && sp.origin_end == 0) {
        ++target_only;
        EXPECT_NE(sp.target_start, 0u);
        EXPECT_EQ(sp.origin_ep, 0u);  // only t1 names the origin
      }
    }
  }
  EXPECT_EQ(target_only, 511u);
  const prof::Span& half = only_span(summary, 512);
  EXPECT_EQ(half.origin_start, 0u);
  EXPECT_EQ(half.origin_end, 10'000u * 512 + 300);
  const prof::Span& whole = only_span(summary, 513);
  EXPECT_EQ(whole.origin_start, 10'000u * 513);
  EXPECT_EQ(whole.duration(), 300u);
  // Complete spans have zero skew; lost-origin spans add endpoint 0.
  EXPECT_DOUBLE_EQ(summary.clock_offset_ns.at(2), 0);
  EXPECT_EQ(summary.clock_offset_ns.count(0), 1u);
}

TEST(TraceSummary, DuplicatedEventLaterOneWins) {
  // Two stores both hold the t5 event of one span; the store passed later
  // wins, and within one store the later append wins.
  using K = prof::TraceEventKind;
  const auto bc = prof::hash16("dup_rpc");
  prof::TraceStore o, a, b;
  o.append(trace_event(K::kOriginStart, 1, bc, 0, 1, 2, 1000));
  o.append(trace_event(K::kOriginEnd, 1, bc, 3, 1, 2, 4000));
  a.append(trace_event(K::kTargetEnd, 1, bc, 2, 2, 1, 3000));
  auto t5 = trace_event(K::kTargetStart, 1, bc, 1, 2, 1, 1900);
  t5.blocked_ults = 9;
  a.append(t5);  // overwritten by the next append in the same store
  t5.local_ts = 2000;
  t5.blocked_ults = 1;
  a.append(t5);
  t5.local_ts = 2500;
  t5.blocked_ults = 2;
  b.append(t5);

  // theta = ((t5 - t1) - (t14 - t8)) / 2
  const auto ab = prof::TraceSummary::build({&o, &a, &b});
  const prof::Span& later_b = only_span(ab, 1);
  EXPECT_EQ(later_b.target_blocked_ults, 2u);
  EXPECT_DOUBLE_EQ(ab.clock_offset_ns.at(2), 250);
  EXPECT_EQ(later_b.target_start, 2250u);
  EXPECT_EQ(later_b.target_end, 2750u);
  EXPECT_EQ(ab.total_events, 6u);
  EXPECT_EQ(ab.total_spans, 1u);

  const auto ba = prof::TraceSummary::build({&o, &b, &a});
  const prof::Span& later_a = only_span(ba, 1);
  EXPECT_EQ(later_a.target_blocked_ults, 1u);
  EXPECT_DOUBLE_EQ(ba.clock_offset_ns.at(2), 0);
  EXPECT_EQ(later_a.target_start, 2000u);
}

TEST(TraceSummary, ThreeEndpointSkewChainAcrossThreeStores) {
  // ep1 -> ep2 -> ep3, one store per endpoint. ep2 runs 300 us ahead of
  // ep1 and ep3 200 us behind; delays are symmetric, so the estimate is
  // exact and the BFS composes ep3's offset through ep2.
  prof::TraceStore s1, s2, s3;
  const std::int64_t skew2 = 300'000;
  const std::int64_t skew3 = -200'000;
  const auto outer = prof::hash16("outer_rpc");
  const auto inner = prof::extend(outer, prof::hash16("inner_rpc"));
  for (std::uint64_t r = 0; r < 4; ++r) {
    const sim::TimeNs b = 1'000'000 + 100'000 * r;
    emit_span(s1, s2, r + 1, outer, 0, 1, 2, b, b + 5'000, b + 60'000,
              b + 65'000, 0, skew2);
    emit_span(s2, s3, r + 1, inner, 4, 2, 3, b + 10'000, b + 13'000,
              b + 40'000, b + 43'000, skew2, skew3);
  }
  const auto summary = prof::TraceSummary::build({&s3, &s1, &s2});
  ASSERT_EQ(summary.clock_offset_ns.size(), 3u);
  EXPECT_DOUBLE_EQ(summary.clock_offset_ns.at(1), 0);
  EXPECT_DOUBLE_EQ(summary.clock_offset_ns.at(2), 300'000);
  EXPECT_DOUBLE_EQ(summary.clock_offset_ns.at(3), -200'000);
  ASSERT_EQ(summary.requests.size(), 4u);
  for (std::uint64_t r = 0; r < 4; ++r) {
    const sim::TimeNs b = 1'000'000 + 100'000 * r;
    const auto& spans = summary.requests[r].spans;
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].origin_start, b);
    EXPECT_EQ(spans[0].target_start, b + 5'000);
    EXPECT_EQ(spans[1].origin_start, b + 10'000);
    EXPECT_EQ(spans[1].target_start, b + 13'000);
    EXPECT_EQ(spans[1].target_end, b + 40'000);
    EXPECT_EQ(spans[1].parent, 0);
  }
}

TEST(TraceSummary, LatestStartingCoveringParentWins) {
  // Four spans on the parent path: one ended before the child starts, one
  // still open (no t14), two covering ones, and one starting after the
  // child. The latest-starting covering candidate is the parent.
  using K = prof::TraceEventKind;
  prof::TraceStore o, t;
  const auto pbc = prof::hash16("p_rpc");
  const auto cbc = prof::extend(pbc, prof::hash16("c_rpc"));
  emit_span(o, t, 1, pbc, 0, 1, 2, 50, 60, 70, 80, 0, 0);        // ended
  emit_span(o, t, 1, pbc, 4, 1, 2, 100, 110, 990, 1000, 0, 0);   // covers
  emit_span(o, t, 1, pbc, 8, 1, 2, 300, 310, 890, 900, 0, 0);    // covers
  emit_span(o, t, 1, pbc, 12, 1, 2, 2000, 2010, 2020, 2030, 0, 0);  // later
  emit_span(o, t, 1, cbc, 16, 2, 3, 400, 410, 420, 430, 0, 0);   // -> 300
  emit_span(o, t, 1, cbc, 20, 2, 3, 950, 955, 960, 965, 0, 0);   // -> 100
  o.append(trace_event(K::kOriginStart, 1, pbc, 24, 1, 2, 1500));  // open
  emit_span(o, t, 1, cbc, 28, 2, 3, 1600, 1610, 1620, 1630, 0, 0);  // -> 1500

  const auto summary = prof::TraceSummary::build({&o, &t});
  ASSERT_EQ(summary.requests.size(), 1u);
  const auto& spans = summary.requests[0].spans;
  ASSERT_EQ(spans.size(), 8u);
  std::vector<std::pair<sim::TimeNs, sim::TimeNs>> child_parent;
  for (const auto& sp : spans) {
    if (sp.breadcrumb == pbc) {
      EXPECT_EQ(sp.parent, -1);
      continue;
    }
    ASSERT_GE(sp.parent, 0);
    child_parent.emplace_back(
        sp.origin_start,
        spans[static_cast<std::size_t>(sp.parent)].origin_start);
  }
  const std::vector<std::pair<sim::TimeNs, sim::TimeNs>> want{
      {400, 300}, {950, 100}, {1600, 1500}};
  EXPECT_EQ(child_parent, want);
}

TEST(TraceSummary, InterleavedRequestIdsAcrossStoresSortById) {
  prof::TraceStore a, b;
  const auto bc = prof::hash16("il_rpc");
  // Origin halves alternate between stores in a scrambled id order; target
  // halves land in the other store.
  const std::uint64_t ids[] = {30, 10, 50, 20, 40};
  for (std::size_t i = 0; i < 5; ++i) {
    const sim::TimeNs base = 1000 * (i + 1);
    prof::TraceStore& origin = i % 2 == 0 ? a : b;
    prof::TraceStore& target = i % 2 == 0 ? b : a;
    emit_span(origin, target, ids[i], bc, 0, 1, 2, base, base + 10,
              base + 20, base + 30, 0, 0);
  }
  const auto summary = prof::TraceSummary::build({&a, &b});
  ASSERT_EQ(summary.requests.size(), 5u);
  // Ids below, between and above the stored ones have no trace.
  EXPECT_EQ(summary.find(0), nullptr);
  EXPECT_EQ(summary.find(15), nullptr);
  EXPECT_EQ(summary.find(60), nullptr);
  for (std::size_t i = 0; i < 5; ++i) {
    const std::uint64_t rid = 10 * (i + 1);
    EXPECT_EQ(summary.requests[i].request_id, rid);
    EXPECT_EQ(summary.find(rid), &summary.requests[i]);
    EXPECT_EQ(summary.requests[i].spans.at(0).request_id, rid);
  }
}

// ---------------------------------------------------------------------------
// Zipkin export
// ---------------------------------------------------------------------------

TEST(Zipkin, EmitsWellFormedSpansWithParents) {
  prof::NameRegistry::global().register_name("parent_op");
  prof::NameRegistry::global().register_name("child_op");
  prof::TraceStore o, t;
  const auto parent_bc = prof::hash16("parent_op");
  const auto child_bc =
      prof::extend(parent_bc, prof::hash16("child_op"));
  emit_span(o, t, 7, parent_bc, 0, 1, 2, 0, 100, 900, 1000, 0, 0);
  emit_span(o, t, 7, child_bc, 1, 2, 3, 200, 300, 400, 500, 0, 0);
  const auto summary = prof::TraceSummary::build({&o, &t});
  const auto json = prof::to_zipkin_json(summary);

  EXPECT_NE(json.find("\"traceId\""), std::string::npos);
  EXPECT_NE(json.find("\"parentId\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"child_op\""), std::string::npos);
  EXPECT_NE(json.find("\"localEndpoint\""), std::string::npos);
  // Both spans present.
  EXPECT_NE(json.find("parent_op"), std::string::npos);
  // Root span has no parentId before its id... at least the array parses as
  // bracketed JSON.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(Zipkin, RootSpanHasNoParent) {
  prof::TraceStore o, t;
  emit_span(o, t, 8, prof::hash16("solo_op"), 0, 1, 2, 0, 10, 20, 30, 0, 0);
  const auto summary = prof::TraceSummary::build({&o, &t});
  const auto json = prof::to_zipkin_json(*summary.find(8));
  EXPECT_EQ(json.find("parentId"), std::string::npos);
}

TEST(Zipkin, LongNamesAreNotTruncated) {
  // A leaf name far longer than any fixed per-span buffer must come out
  // whole, followed by the rest of the span object.
  std::string long_name(300, 'n');
  long_name.replace(0, 9, "long_rpc_");
  long_name.back() = 'Z';
  prof::NameRegistry::global().register_name(long_name);
  prof::TraceStore o, t;
  emit_span(o, t, 11, prof::hash16(long_name), 0, 1, 2, 0, 10, 20, 30, 0, 0);
  const auto summary = prof::TraceSummary::build({&o, &t});
  const auto json = prof::to_zipkin_json(summary);
  const auto at = json.find("\"name\": \"" + long_name + "\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"ofi_events_read\": \"0\"}}", at), std::string::npos);
  int brackets = 0;
  int braces = 0;
  for (const char c : json) {
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
  }
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(json.substr(json.size() - 4), "}\n]\n");
}

TEST(Zipkin, MicrosecondsMatchPrintfRounding) {
  // Timestamps and durations are whole microseconds, the remainder rounded
  // half to even, exactly as "%.0f" of the double ns / 1e3 (below 2^42 ns);
  // an integral counter prints as an integer, a fraction as "%.0f" does.
  const std::vector<sim::TimeNs> ns = {0,
                                       499,
                                       500,
                                       501,
                                       1500,
                                       2500,
                                       (sim::TimeNs{1} << 42) - 2'604,
                                       (sim::TimeNs{1} << 42) - 1'604,
                                       (sim::TimeNs{1} << 42) - 1};
  const auto printf0 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return std::string(buf);
  };
  prof::RequestTrace rt;
  rt.request_id = 21;
  for (const sim::TimeNs start : ns) {
    for (const sim::TimeNs dur : ns) {
      prof::Span sp;
      sp.request_id = rt.request_id;
      sp.breadcrumb = prof::hash16("round_rpc");
      sp.base_order = static_cast<std::uint32_t>(4 * rt.spans.size());
      sp.origin_start = start;
      sp.origin_end = start + dur;
      sp.origin_ofi_events_read = rt.spans.size() % 2 == 0 ? 3.0f : 2.5f;
      rt.spans.push_back(sp);
    }
  }
  const auto json = prof::to_zipkin_json(rt);
  const auto field = [&json](const std::string& name, std::size_t& at) {
    at = json.find("\"" + name + "\": ", at);
    EXPECT_NE(at, std::string::npos) << name;
    at += name.size() + 4;
    if (json[at] == '"') ++at;
    const std::size_t end = json.find_first_of("\",", at);
    return json.substr(at, end - at);
  };
  std::size_t at = 0;
  for (const prof::Span& sp : rt.spans) {
    ASSERT_NE(at, std::string::npos);
    const double start_us = static_cast<double>(sp.origin_start) / 1e3;
    const double dur_us = static_cast<double>(sp.duration()) / 1e3;
    EXPECT_EQ(field("timestamp", at), printf0(start_us)) << sp.origin_start;
    EXPECT_EQ(field("duration", at), printf0(dur_us)) << sp.duration();
    EXPECT_EQ(field("ofi_events_read", at),
              printf0(static_cast<double>(sp.origin_ofi_events_read)));
  }
  // The fixed points the comparison rests on.
  EXPECT_EQ(printf0(0.5), "0");
  EXPECT_EQ(printf0(1.5), "2");
  EXPECT_EQ(printf0(2.5), "2");
}

TEST(Zipkin, NamesAreJsonEscaped) {
  const std::string odd = "odd\"name\\x";
  const std::string ctl = "ctl\tname";
  prof::NameRegistry::global().register_name(odd);
  prof::NameRegistry::global().register_name(ctl);
  prof::TraceStore o, t;
  emit_span(o, t, 12, prof::hash16(odd), 0, 1, 2, 0, 10, 20, 30, 0, 0);
  emit_span(o, t, 12, prof::hash16(ctl), 4, 1, 2, 40, 50, 60, 70, 0, 0);
  const auto summary = prof::TraceSummary::build({&o, &t});
  const auto json = prof::to_zipkin_json(summary);
  EXPECT_NE(json.find(R"("name": "odd\"name\\x", "timestamp")"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("name": "ctl\u0009name", "timestamp")"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// CSV export / import
// ---------------------------------------------------------------------------

TEST(ExportCsv, ProfileRoundTrip) {
  prof::ProfileStore store;
  const prof::CallpathKey key{prof::hash16("rt_rpc"), prof::Side::kOrigin, 3,
                              4};
  store.record(key, prof::Interval::kOriginExec, 1234.5);
  store.record(key, prof::Interval::kOriginExec, 5678.5);
  store.record(key, prof::Interval::kInputSer, 42.0);

  std::stringstream ss;
  prof::write_profile_csv(ss, store);
  const auto back = prof::read_profile_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  const auto& stats = back.entries().begin()->second;
  EXPECT_EQ(stats.at(prof::Interval::kOriginExec).count, 2u);
  EXPECT_DOUBLE_EQ(stats.at(prof::Interval::kOriginExec).sum_ns, 6913.0);
  EXPECT_DOUBLE_EQ(stats.at(prof::Interval::kOriginExec).min_ns, 1234.5);
  EXPECT_DOUBLE_EQ(stats.at(prof::Interval::kOriginExec).max_ns, 5678.5);
  EXPECT_EQ(stats.at(prof::Interval::kInputSer).count, 1u);
}

TEST(ExportCsv, TraceRoundTrip) {
  prof::TraceStore store;
  prof::TraceEvent ev;
  ev.request_id = 99;
  ev.order = 3;
  ev.kind = prof::TraceEventKind::kTargetEnd;
  ev.breadcrumb = 0xAABB;
  ev.self_ep = 5;
  ev.peer_ep = 6;
  ev.local_ts = 123456789;
  ev.lamport = 77;
  ev.blocked_ults = 4;
  ev.runnable_ults = 2;
  ev.rss_bytes = 1 << 20;
  ev.cpu_util = 0.5f;
  ev.completion_queue_size = 3;
  ev.num_ofi_events_read = 16;
  ev.num_posted_handles = 8;
  store.append(ev);

  std::stringstream ss;
  prof::write_trace_csv(ss, store);
  const auto back = prof::read_trace_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  const auto& b = back.events()[0];
  EXPECT_EQ(b.request_id, 99u);
  EXPECT_EQ(b.kind, prof::TraceEventKind::kTargetEnd);
  EXPECT_EQ(b.breadcrumb, 0xAABBu);
  EXPECT_EQ(b.local_ts, 123456789u);
  EXPECT_EQ(b.lamport, 77u);
  EXPECT_EQ(b.blocked_ults, 4u);
  EXPECT_FLOAT_EQ(b.num_ofi_events_read, 16.0f);
}

TEST(ExportCsv, SysStatsRoundTrip) {
  prof::SysStatStore store;
  prof::SysStat s;
  s.local_ts = 42;
  s.rss_bytes = 4096;
  s.cpu_util = 0.25f;
  s.blocked_ults = 7;
  s.runnable_ults = 3;
  s.completion_queue_size = 11;
  s.num_posted_handles = 13;
  store.append(s);
  std::stringstream ss;
  prof::write_sysstats_csv(ss, store);
  const auto back = prof::read_sysstats_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.samples()[0].blocked_ults, 7u);
  EXPECT_FLOAT_EQ(back.samples()[0].completion_queue_size, 11.0f);
}

TEST(SysStatsSummary, AggregatesPerProcess) {
  prof::SysStatStore a;
  for (int i = 0; i < 4; ++i) {
    prof::SysStat s;
    s.rss_bytes = (8 + i) << 20;
    s.cpu_util = 0.5f;
    s.blocked_ults = static_cast<std::uint32_t>(i);
    a.append(s);
  }
  const auto summary = prof::SysStatsSummary::build({{"proc-a", &a}});
  ASSERT_EQ(summary.per_process.size(), 1u);
  EXPECT_EQ(summary.per_process[0].samples, 4u);
  EXPECT_NEAR(summary.per_process[0].mean_rss_mb, 9.5, 0.01);
  EXPECT_DOUBLE_EQ(summary.per_process[0].max_blocked, 3);
  EXPECT_NE(summary.format().find("proc-a"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden byte-identity of the trace analysis
// ---------------------------------------------------------------------------
//
// FNV-1a digests of everything TraceSummary::build and the exporters emit
// for two small deterministic deployments: the Zipkin JSON, the recovered
// clock offsets (exact hex floats), every Gantt rendering and every parent
// link. A rewrite of the stitcher or the writer must leave all four alone.
// Neither deployment emits an unregistered leaf name, so the placeholder
// format of NameRegistry::lookup does not enter the digests.

namespace {

struct TraceDigests {
  std::uint64_t zipkin = 0;
  std::uint64_t offsets = 0;
  std::uint64_t gantt = 0;
  std::uint64_t parents = 0;
  std::size_t spans = 0;
};

std::uint64_t fnv(const std::string& s) {
  return sim::fnv1a64(s.data(), s.size());
}

TraceDigests trace_digests(const std::vector<const prof::TraceStore*>& stores) {
  const auto summary = prof::TraceSummary::build(stores);
  TraceDigests d;
  d.spans = summary.total_spans;
  d.zipkin = fnv(prof::to_zipkin_json(summary));
  std::string offsets;
  char buf[64];
  for (const auto& [ep, off] : summary.clock_offset_ns) {
    std::snprintf(buf, sizeof(buf), "%u=%a;", ep, off);
    offsets += buf;
  }
  d.offsets = fnv(offsets);
  std::string gantt;
  std::string parents;
  for (const auto& rt : summary.requests) {
    gantt += summary.format_request(rt);
    for (const auto& sp : rt.spans) {
      parents += std::to_string(sp.parent);
      parents += ',';
    }
    parents += ';';
  }
  d.gantt = fnv(gantt);
  d.parents = fnv(parents);
  std::printf("digests: zipkin=0x%016llx offsets=0x%016llx "
              "gantt=0x%016llx parents=0x%016llx spans=%zu\n",
              static_cast<unsigned long long>(d.zipkin),
              static_cast<unsigned long long>(d.offsets),
              static_cast<unsigned long long>(d.gantt),
              static_cast<unsigned long long>(d.parents), d.spans);
  return d;
}

}  // namespace

TEST(TraceGolden, MobjectDigestsArePinned) {
  sym::workloads::MobjectWorld::Params p;
  p.ior.clients = 4;
  p.ior.ops_per_client = 6;
  p.ior.object_bytes = 16 * 1024;
  sym::workloads::MobjectWorld world(p);
  world.run();
  const TraceDigests d = trace_digests(world.all_traces());
  EXPECT_EQ(d.spans, 258u);
  EXPECT_EQ(d.zipkin, 0x1f6f3d74b50f07deULL);
  EXPECT_EQ(d.offsets, 0x10c039da3ce76d34ULL);
  EXPECT_EQ(d.gantt, 0x1cb423d707564e9fULL);
  EXPECT_EQ(d.parents, 0xd7de44429ccbcc9dULL);
}

TEST(TraceGolden, HepnosDigestsArePinned) {
  sym::workloads::HepnosWorld::Params p;  // 2 server + 2 client nodes
  p.config.total_clients = 4;
  p.config.clients_per_node = 2;
  p.file_model.events_per_file = 256;
  p.file_model.payload_bytes = 128;
  p.files_per_client = 2;
  sym::workloads::HepnosWorld world(p);
  world.run();
  const TraceDigests d = trace_digests(world.all_traces());
  EXPECT_EQ(d.spans, 68u);
  EXPECT_EQ(d.zipkin, 0x0c45354594ffe1c4ULL);
  EXPECT_EQ(d.offsets, 0x37c3551e45ee89b4ULL);
  EXPECT_EQ(d.gantt, 0x57de9801417c3c28ULL);
  EXPECT_EQ(d.parents, 0x723639ea0b5b18cdULL);
}

// ---------------------------------------------------------------------------
// Enum naming used in reports
// ---------------------------------------------------------------------------

TEST(Records, EnumNames) {
  EXPECT_STREQ(prof::to_string(prof::Level::kOff), "Baseline");
  EXPECT_STREQ(prof::to_string(prof::Level::kFull), "Full Support");
  EXPECT_STREQ(prof::to_string(prof::Interval::kHandlerWait),
               "target_ult_handler_time");
  EXPECT_STREQ(prof::to_string(prof::TraceEventKind::kOriginStart),
               "origin_start");
}
