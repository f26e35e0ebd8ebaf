#include "services/sdskv/store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace sym::sdskv {
namespace {

constexpr std::size_t kLen = sizeof(std::uint32_t);

std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string_view key_of(const std::byte* rec) noexcept {
  return {reinterpret_cast<const char*>(rec + kLen), load_u32(rec)};
}

std::size_t record_size(const std::byte* rec) noexcept {
  const std::uint32_t klen = load_u32(rec);
  return 2 * kLen + klen + load_u32(rec + kLen + klen);
}

std::byte* put_field(std::byte* p, std::string_view s) noexcept {
  const auto n = static_cast<std::uint32_t>(s.size());
  std::memcpy(p, &n, kLen);
  if (n > 0) std::memcpy(p + kLen, s.data(), n);
  return p + kLen + n;
}

/// Append one record; returns its offset. Capacity doubles up to the page
/// limit, so a page that stays small stays small in memory too.
std::uint32_t append(std::vector<std::byte>& bytes, std::string_view key,
                     std::string_view value) {
  const std::size_t off = bytes.size();
  const std::size_t need = off + 2 * kLen + key.size() + value.size();
  if (need > bytes.capacity()) {
    bytes.reserve(std::max(need, std::min(2 * bytes.capacity(),
                                          Store::kPageBytes)));
  }
  bytes.resize(need);
  put_field(put_field(bytes.data() + off, key), value);
  return static_cast<std::uint32_t>(off);
}

}  // namespace

std::size_t Store::page_for(std::string_view key) const {
  const auto it = std::upper_bound(
      pages_.begin(), pages_.end(), key, [](std::string_view k, const Page& p) {
        return k < key_of(p.bytes.data() + p.offsets.front());
      });
  return it == pages_.begin() ? 0 : static_cast<std::size_t>(
                                        it - pages_.begin() - 1);
}

Store::Slot Store::find(std::string_view key) const {
  const std::size_t p = page_for(key);
  const Page& pg = pages_[p];
  const std::byte* base = pg.bytes.data();
  const auto at = std::lower_bound(
      pg.offsets.begin(), pg.offsets.end(), key,
      [base](std::uint32_t off, std::string_view k) {
        return key_of(base + off) < k;
      });
  return {p, static_cast<std::size_t>(at - pg.offsets.begin()),
          at != pg.offsets.end() && key_of(base + *at) == key};
}

bool Store::put(std::string_view key, std::string_view value) {
  if (pages_.empty()) {
    Page& pg = pages_.emplace_back();
    pg.offsets.push_back(append(pg.bytes, key, value));
    ++count_;
    return true;
  }
  auto slot = find(key);
  if (slot.found) {
    Page& pg = pages_[slot.page];
    std::byte* vlen = pg.bytes.data() + pg.offsets[slot.index] + kLen +
                      key.size();
    if (load_u32(vlen) == value.size()) {
      if (!value.empty()) std::memcpy(vlen + kLen, value.data(), value.size());
      return false;
    }
  }
  if (pages_[slot.page].bytes.size() + 2 * kLen + key.size() + value.size() >
      kPageBytes) {
    // Make room first, so that a page never reallocates past the limit.
    rebuild(slot.page);
    slot = find(key);
  }
  Page& pg = pages_[slot.page];
  const std::uint32_t off = append(pg.bytes, key, value);
  if (slot.found) {
    pg.dead += record_size(pg.bytes.data() + pg.offsets[slot.index]);
    pg.offsets[slot.index] = off;
    return false;
  }
  pg.offsets.insert(
      pg.offsets.begin() + static_cast<std::ptrdiff_t>(slot.index), off);
  ++count_;
  return true;
}

bool Store::get(std::string_view key, std::string* value) const {
  if (pages_.empty()) return false;
  const auto [p, i, found] = find(key);
  if (!found) return false;
  if (value != nullptr) {
    const Page& pg = pages_[p];
    const std::byte* vlen = pg.bytes.data() + pg.offsets[i] + kLen + key.size();
    value->assign(reinterpret_cast<const char*>(vlen + kLen), load_u32(vlen));
  }
  return true;
}

std::optional<std::size_t> Store::erase(std::string_view key) {
  if (pages_.empty()) return std::nullopt;
  const auto [p, i, found] = find(key);
  if (!found) return std::nullopt;
  Page& pg = pages_[p];
  const std::size_t n = record_size(pg.bytes.data() + pg.offsets[i]);
  pg.dead += n;
  pg.offsets.erase(pg.offsets.begin() + static_cast<std::ptrdiff_t>(i));
  --count_;
  if (pg.offsets.empty()) {
    pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(p));
  } else if (2 * pg.dead > pg.bytes.size()) {
    rebuild(p);
  }
  return n - 2 * kLen;
}

std::size_t Store::scan(std::string_view start_key, std::size_t max,
                        hg::BufWriter& out) const {
  if (pages_.empty()) return 0;
  auto [p, i, found] = find(start_key);
  if (found) ++i;  // strictly after start_key
  std::size_t n = 0;
  for (; p < pages_.size() && n < max; ++p, i = 0) {
    const Page& pg = pages_[p];
    const std::byte* base = pg.bytes.data();
    const std::size_t stop = i + std::min(pg.offsets.size() - i, max - n);
    n += stop - i;
    while (i < stop) {
      // One run: records that follow each other in the page as in key
      // order go out in one copy.
      const std::uint32_t begin = pg.offsets[i];
      std::size_t end = begin + record_size(base + begin);
      for (++i; i < stop && pg.offsets[i] == end; ++i) {
        end += record_size(base + end);
      }
      out.write_raw(base + begin, end - begin);
    }
  }
  return n;
}

void Store::rebuild(std::size_t p) {
  Page& pg = pages_[p];
  const std::size_t count = pg.offsets.size();
  const std::size_t live = pg.bytes.size() - pg.dead;
  // Records [0, cut) stay on this page, [cut, count) move to a new one.
  std::size_t cut = count;
  if (2 * live > kPageBytes && count > 1) {
    std::size_t acc = 0;
    for (cut = 0; 2 * acc < live; ++cut) {
      acc += record_size(pg.bytes.data() + pg.offsets[cut]);
    }
    cut = std::clamp<std::size_t>(cut, 1, count - 1);
  }
  // Copy records [from, to) in key order to the end of `out`.
  const auto copy_out = [&pg](std::size_t from, std::size_t to, Page& out) {
    for (std::size_t i = from; i < to; ++i) {
      const std::byte* rec = pg.bytes.data() + pg.offsets[i];
      out.offsets.push_back(static_cast<std::uint32_t>(out.bytes.size()));
      out.bytes.insert(out.bytes.end(), rec, rec + record_size(rec));
    }
  };
  // The new page gets the room a full page needs, since it is half full
  // and takes the inserts after its first key; the rest stays untouched.
  Page right;
  if (cut < count) {
    right.bytes.reserve(std::max(kPageBytes, live));
    copy_out(cut, count, right);
  }
  // This page's records are copied once, in key order, into a buffer of
  // the old one's capacity (already the size of a full page), which then
  // replaces it.
  Page left;
  left.bytes.reserve(pg.bytes.capacity());
  copy_out(0, cut, left);
  pg = std::move(left);
  if (cut < count) {
    pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(p) + 1,
                  std::move(right));
  }
}

}  // namespace sym::sdskv
