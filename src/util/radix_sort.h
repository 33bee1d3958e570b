// Stable LSD radix sort by a 64-bit unsigned key.
//
// The similarity index's bucket stores receive (key, profile id) entries
// in ascending id per key, so a stable sort by the key alone gives the
// (key, id) order a comparison sort would, in eight linear passes.
//
// Digits are 8 bits: one histogram pass counts all eight digits, and a
// digit every item shares costs no scatter pass. 16-bit digits are slower
// at the index's sizes: their 64K-entry histograms cost more than the
// passes they save (on a 4-core AVX-512 host, GCC 12, one sort of 1,590
// random keys, the size of a portal band store, took 34 us with 8-bit
// digits, 195 us with 16-bit ones and 50 us with std::sort; 100,000 keys
// took 4.0, 6.7 and 9.2 ms).

#ifndef VER_UTIL_RADIX_SORT_H_
#define VER_UTIL_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ver {

/// Sorts `items` ascending by `key(item)` (a uint64_t), keeping the input
/// order of items with equal keys.
template <typename T, typename KeyFn>
void StableRadixSort(std::vector<T>* items, const KeyFn& key) {
  const size_t n = items->size();
  if (n < 2) return;
  size_t counts[8][256] = {};
  for (const T& item : *items) {
    const uint64_t k = key(item);
    for (int d = 0; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 0xff];
  }
  std::vector<T> buffer(n);
  T* src = items->data();
  T* dst = buffer.data();
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    size_t* count = counts[d];
    if (count[(key(src[0]) >> shift) & 0xff] == n) continue;
    size_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      const size_t bucket = count[b];
      count[b] = sum;
      sum += bucket;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(key(src[i]) >> shift) & 0xff]++] = std::move(src[i]);
    }
    std::swap(src, dst);
  }
  if (src != items->data()) items->swap(buffer);
}

}  // namespace ver

#endif  // VER_UTIL_RADIX_SORT_H_
