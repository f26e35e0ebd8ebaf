#include "symbiosys/zipkin.hpp"

#include <charconv>
#include <limits>
#include <vector>

#include "symbiosys/breadcrumb.hpp"
#include "symbiosys/flat_hash.hpp"

namespace sym::prof {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Append `v` as 16 lowercase, zero-padded hex digits.
void append_hex64(std::string& out, std::uint64_t v) {
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHexDigits[v & 0xF];
    v >>= 4;
  }
  out.append(buf, sizeof(buf));
}

void append_u32(std::string& out, std::uint32_t v) {
  char buf[std::numeric_limits<std::uint32_t>::digits10 + 1];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Append `v` rounded to an integer: the same digits as printf's "%.0f".
void append_fixed0(std::string& out, double v) {
  // Sign plus every integer digit of the largest finite double.
  char buf[std::numeric_limits<double>::max_exponent10 + 3];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 0);
  out.append(buf, res.ptr);
}

std::uint64_t span_id(const Span& sp) {
  // Deterministic span id from (breadcrumb, base_order).
  std::uint64_t h = sp.breadcrumb * 0x9E3779B97F4A7C15ULL;
  h ^= sp.base_order + 0x100001B3ULL;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h == 0 ? 1 : h;
}

struct LeafHash {
  std::size_t operator()(std::uint16_t leaf) const noexcept {
    return static_cast<std::size_t>((leaf * 0x9E3779B97F4A7C15ULL) >> 32);
  }
};

/// Leaf names resolved once per export call: NameRegistry::lookup takes a
/// mutex and copies the name, which per span would dominate the writer.
class LeafNames {
 public:
  const std::string& operator()(std::uint16_t leaf) {
    std::uint32_t& pos = index_.find_or_insert(leaf);  // name index + 1
    if (pos == 0) {
      names_.push_back(NameRegistry::global().lookup(leaf));
      pos = static_cast<std::uint32_t>(names_.size());
    }
    return names_[pos - 1];
  }

 private:
  FlatHashMap<std::uint16_t, std::uint32_t, LeafHash> index_;
  std::vector<std::string> names_;
};

void append_span_json(std::string& out, const RequestTrace& rt,
                      const Span& sp, LeafNames& names, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "  {\"traceId\": \"";
  append_hex64(out, sp.request_id);
  out += "\", \"id\": \"";
  append_hex64(out, span_id(sp));
  out += "\",";
  // Parent linkage is resolved once in TraceSummary::build (Span::parent).
  if (sp.parent >= 0) {
    out += " \"parentId\": \"";
    append_hex64(out, span_id(rt.spans[static_cast<std::size_t>(sp.parent)]));
    out += "\",";
  }
  out += " \"name\": \"";
  out += names(leaf_of(sp.breadcrumb));
  // Zipkin v2 timestamps/durations are in microseconds.
  out += "\", \"timestamp\": ";
  append_fixed0(out, static_cast<double>(sp.origin_start) / 1e3);
  out += ", \"duration\": ";
  append_fixed0(out, static_cast<double>(sp.duration()) / 1e3);
  out += ", \"kind\": \"CLIENT\", \"localEndpoint\": {\"serviceName\": \"ep-";
  append_u32(out, sp.origin_ep);
  out += "\"}, \"remoteEndpoint\": {\"serviceName\": \"ep-";
  append_u32(out, sp.target_ep);
  out += "\"}, \"tags\": {\"breadcrumb\": \"";
  append_hex64(out, sp.breadcrumb);
  out += "\", \"blocked_ults\": \"";
  append_u32(out, sp.target_blocked_ults);
  out += "\", \"ofi_events_read\": \"";
  append_fixed0(out, static_cast<double>(sp.origin_ofi_events_read));
  out += "\"}}";
}

// A span with a short leaf name serializes to ~350 bytes, so pre-sizing the
// output to 512 bytes/span keeps the append loop reallocation-free.
constexpr std::size_t kSpanJsonReserve = 512;

}  // namespace

std::string to_zipkin_json(const RequestTrace& rt) {
  std::string out;
  out.reserve(8 + rt.spans.size() * kSpanJsonReserve);
  out += "[\n";
  LeafNames names;
  bool first = true;
  for (const auto& sp : rt.spans) append_span_json(out, rt, sp, names, first);
  out += "\n]\n";
  return out;
}

std::string to_zipkin_json(const TraceSummary& summary) {
  std::string out;
  out.reserve(8 + summary.total_spans * kSpanJsonReserve);
  out += "[\n";
  LeafNames names;
  bool first = true;
  for (const auto& rt : summary.requests) {
    for (const auto& sp : rt.spans) {
      append_span_json(out, rt, sp, names, first);
    }
  }
  out += "\n]\n";
  return out;
}

}  // namespace sym::prof
