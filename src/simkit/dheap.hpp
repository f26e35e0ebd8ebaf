// simkit/dheap.hpp
//
// 4-ary heap primitives for the Lane event heap. A 4-ary heap is shallower
// than a binary one (log_4 n levels) and keeps a node's children within
// one cache line's worth of entries.
//
// The sifts are hole-based (shift the displaced entry along the path and
// store it once) rather than swap-based: for the 24-byte Lane::HeapEntry
// that halves the stores per level. Both variants place elements at the
// same positions, so the executed event order — and with it every
// determinism digest — is unchanged.
#pragma once

#include <cstddef>
#include <vector>

namespace sym::sim {

inline constexpr std::size_t kHeapArity = 4;

/// Append `e` and restore the heap property. `before(a, b)` is the strict
/// ordering (min element at index 0); pass a function object, not a
/// function pointer, so the comparison inlines into the sift loops.
template <typename T, typename Before>
void dheap_push(std::vector<T>& h, T e, Before before) {
  h.push_back(e);  // placeholder; overwritten by the hole shift below
  std::size_t i = h.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!before(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

/// Remove and return the minimum (caller guarantees non-empty).
template <typename T, typename Before>
T dheap_pop(std::vector<T>& h, Before before) {
  T top = h.front();
  const T last = h.back();
  h.pop_back();
  const std::size_t n = h.size();
  if (n == 0) return top;
  std::size_t i = 0;
  while (true) {
    const std::size_t first_child = kHeapArity * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + kHeapArity < n ? first_child + kHeapArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], last)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
  return top;
}

}  // namespace sym::sim
