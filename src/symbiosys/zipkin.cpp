#include "symbiosys/zipkin.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "symbiosys/breadcrumb.hpp"
#include "symbiosys/flat_hash.hpp"

namespace sym::prof {
namespace {

// Each span is written as three appends: the fixed-width head up to the
// name, the cached name, and the fixed-width tail. Head and tail are built
// in stack buffers sized from their literals plus the widest value of each
// field, so no field can overrun them; the name, the only unbounded field,
// never passes through a fixed buffer.

constexpr std::size_t kHexWidth = 16;
constexpr std::size_t kU64Width =
    std::numeric_limits<std::uint64_t>::digits10 + 1;
constexpr std::size_t kU32Width =
    std::numeric_limits<std::uint32_t>::digits10 + 1;
// Sign plus every integer digit of the largest finite float.
constexpr std::size_t kCountWidth =
    std::numeric_limits<float>::max_exponent10 + 3;

constexpr char kSep[] = ",\n";
constexpr char kTraceId[] = "  {\"traceId\": \"";
constexpr char kId[] = "\", \"id\": \"";
constexpr char kParentId[] = "\", \"parentId\": \"";
constexpr char kName[] = "\", \"name\": \"";
constexpr char kTimestamp[] = "\", \"timestamp\": ";
constexpr char kDuration[] = ", \"duration\": ";
constexpr char kLocal[] =
    ", \"kind\": \"CLIENT\", \"localEndpoint\": {\"serviceName\": \"ep-";
constexpr char kRemote[] = "\"}, \"remoteEndpoint\": {\"serviceName\": \"ep-";
constexpr char kBreadcrumb[] = "\"}, \"tags\": {\"breadcrumb\": \"";
constexpr char kBlocked[] = "\", \"blocked_ults\": \"";
constexpr char kOfi[] = "\", \"ofi_events_read\": \"";
constexpr char kEnd[] = "\"}}";

constexpr std::size_t kHeadMax = sizeof(kSep) + sizeof(kTraceId) + sizeof(kId) +
                                 sizeof(kParentId) + sizeof(kName) +
                                 3 * kHexWidth;
constexpr std::size_t kTailMax = sizeof(kTimestamp) + sizeof(kDuration) +
                                 sizeof(kLocal) + sizeof(kRemote) +
                                 sizeof(kBreadcrumb) + sizeof(kBlocked) +
                                 sizeof(kOfi) + sizeof(kEnd) + 2 * kU64Width +
                                 3 * kU32Width + kHexWidth + kCountWidth;

template <std::size_t N>
char* put(char* p, const char (&lit)[N]) {
  std::memcpy(p, lit, N - 1);
  return p + N - 1;
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// `v` as 16 lowercase, zero-padded hex digits.
char* put_hex64(char* p, std::uint64_t v) {
  for (int i = 15; i >= 0; --i) {
    p[i] = kHexDigits[v & 0xF];
    v >>= 4;
  }
  return p + kHexWidth;
}

char* put_u64(char* p, std::uint64_t v) {
  return std::to_chars(p, p + kU64Width, v).ptr;
}

/// Nanoseconds as whole microseconds, the remainder rounded half to even.
/// For every ns < 2^42 (about 51 days) these are the digits printf's "%.0f"
/// gives for the double ns / 1e3; above that the double quotient is itself
/// rounded, and this stays the exact rounding.
char* put_us(char* p, std::uint64_t ns) {
  std::uint64_t us = ns / 1000;
  const std::uint64_t rem = ns % 1000;
  if (rem > 500 || (rem == 500 && (us & 1) != 0)) ++us;
  return put_u64(p, us);
}

/// A sampled counter: an integral value as an integer, anything else (a
/// fraction, a negative zero, a non-finite value) as printf's "%.0f".
char* put_count(char* p, float v) {
  if (v >= 0 && v < 0x1p64f && !std::signbit(v)) {
    const auto u = static_cast<std::uint64_t>(v);
    if (static_cast<float>(u) == v) return put_u64(p, u);
  }
  return std::to_chars(p, p + kCountWidth, static_cast<double>(v),
                       std::chars_format::fixed, 0)
      .ptr;
}

std::uint64_t span_id(const Span& sp) {
  // Deterministic span id from (breadcrumb, base_order).
  std::uint64_t h = sp.breadcrumb * 0x9E3779B97F4A7C15ULL;
  h ^= sp.base_order + 0x100001B3ULL;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h == 0 ? 1 : h;
}

/// `name` as the inside of a JSON string literal.
std::string json_escaped(std::string name) {
  const auto needs_escape = [](unsigned char c) {
    return c == '"' || c == '\\' || c < 0x20;
  };
  std::size_t i = 0;
  while (i < name.size() && !needs_escape(name[i])) ++i;
  if (i == name.size()) return name;
  std::string out = name.substr(0, i);
  for (; i < name.size(); ++i) {
    const auto c = static_cast<unsigned char>(name[i]);
    if (!needs_escape(c)) {
      out += static_cast<char>(c);
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else {
      const char esc[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                          kHexDigits[c & 0xF]};
      out.append(esc, sizeof(esc));
    }
  }
  return out;
}

struct LeafHash {
  std::size_t operator()(std::uint16_t leaf) const noexcept {
    return static_cast<std::size_t>((leaf * 0x9E3779B97F4A7C15ULL) >> 32);
  }
};

/// Leaf names resolved and JSON-escaped once per export call:
/// NameRegistry::lookup takes a mutex and copies the name, which per span
/// would dominate the writer.
class LeafNames {
 public:
  const std::string& operator()(std::uint16_t leaf) {
    std::uint32_t& pos = index_.find_or_insert(leaf);  // name index + 1
    if (pos == 0) {
      names_.push_back(json_escaped(NameRegistry::global().lookup(leaf)));
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
  char head[kHeadMax];
  char* p = head;
  if (!first) p = put(p, kSep);
  first = false;
  p = put_hex64(put(p, kTraceId), sp.request_id);
  p = put_hex64(put(p, kId), span_id(sp));
  // Parent linkage is resolved once in TraceSummary::build (Span::parent).
  if (sp.parent >= 0) {
    p = put_hex64(put(p, kParentId),
                  span_id(rt.spans[static_cast<std::size_t>(sp.parent)]));
  }
  p = put(p, kName);
  out.append(head, static_cast<std::size_t>(p - head));
  out += names(leaf_of(sp.breadcrumb));

  char tail[kTailMax];
  // Zipkin v2 timestamps/durations are in microseconds.
  p = put_us(put(tail, kTimestamp), sp.origin_start);
  p = put_us(put(p, kDuration), sp.duration());
  p = put_u64(put(p, kLocal), sp.origin_ep);
  p = put_u64(put(p, kRemote), sp.target_ep);
  p = put_hex64(put(p, kBreadcrumb), sp.breadcrumb);
  p = put_u64(put(p, kBlocked), sp.target_blocked_ults);
  p = put_count(put(p, kOfi), sp.origin_ofi_events_read);
  p = put(p, kEnd);
  out.append(tail, static_cast<std::size_t>(p - tail));
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
