// services/sdskv/store.hpp
//
// The ordered pair store behind every SDSKV backend. Pairs are kept in key
// order across pages. A page's bytes hold one record per pair in the
// list_keyvals wire encoding — u32 key length, key, u32 value length, value
// — and a sorted array of record offsets; the pages are kept in order of
// their first keys, which is the index a lookup searches first. A range
// scan therefore copies stored encodings into the response: one memcpy per
// run of records that lie in the page in key order.
//
// New records are appended to their page. A changed value of the same
// length is overwritten in place; any other overwrite or erase leaves the
// old record as dead bytes. A page that an append would take past
// kPageBytes is first rewritten in key order without its dead bytes, and
// split in two if its live bytes fill more than half a page. A page more
// than half dead after an erase is rewritten the same way, and a page left
// without records is removed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "merclite/proc.hpp"

namespace sym::sdskv {

class Store {
 public:
  /// Page size limit. A HEPnOS database (about 900 records of 559 bytes)
  /// spans 8–16 pages, and a Mobject extent scan (512 records of about 50
  /// bytes) one or two. A page's buffer grows on demand, doubling up to
  /// the limit; a page made by a split gets a full page of capacity at
  /// once, since it starts half full.
  static constexpr std::size_t kPageBytes = 64 * 1024;

  /// Insert or overwrite a pair. Returns true if the key was new.
  bool put(std::string_view key, std::string_view value);

  /// Copy the value of `key` into `*value` (when non-null). False if absent.
  bool get(std::string_view key, std::string* value) const;

  /// Remove `key`. Returns the key + value bytes of the removed pair, or
  /// nothing if the key was absent.
  std::optional<std::size_t> erase(std::string_view key);

  /// Append to `out` the encodings of up to `max` pairs with key >
  /// `start_key`, in ascending key order. Returns the number of pairs.
  std::size_t scan(std::string_view start_key, std::size_t max,
                   hg::BufWriter& out) const;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t page_count() const noexcept {
    return pages_.size();
  }

 private:
  struct Page {
    std::vector<std::byte> bytes;        ///< records, live and dead
    std::vector<std::uint32_t> offsets;  ///< live record offsets, key order
    std::size_t dead = 0;                ///< bytes of superseded records
  };
  /// Where `key` is or would be inserted: a page and an index into its
  /// offsets. Requires a non-empty store.
  struct Slot {
    std::size_t page;
    std::size_t index;
    bool found;
  };

  [[nodiscard]] std::size_t page_for(std::string_view key) const;
  [[nodiscard]] Slot find(std::string_view key) const;
  /// Rewrite page `p` in key order without dead bytes, split in two when
  /// its live bytes fill more than half a page.
  void rebuild(std::size_t p);

  std::vector<Page> pages_;  ///< ascending by first key; none is empty
  std::size_t count_ = 0;
};

}  // namespace sym::sdskv
