// RowDeduper: the one first-occurrence dedup of the query path.
//
// Table::Project and the materializer dedup projected rows with it, and
// JOIN-GRAPH-SEARCH dedups join graphs and (graph, projection) candidates
// with it. Items are identified by opaque tokens; the caller supplies each
// item's hash and an equality callback that confirms every hash match, so
// a collision never merges two distinct items.
//
// Layout. One flat power-of-two array of {hash, token} slots with linear
// probing, at a load factor of at most 1/2. The slot index is Mix64 of the
// caller's hash, so raw combines of structured keys (column encodings,
// table ids) do not cluster along the probe chains. Items sharing a hash
// sit in separate slots along one chain, so Insert confirms a duplicate
// against every earlier item with that hash. Insert never allocates:
// Reset sizes the table for the items about to be offered.

#ifndef VER_UTIL_ROW_DEDUPER_H_
#define VER_UTIL_ROW_DEDUPER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/hash.h"

namespace ver {

class RowDeduper {
 public:
  /// Forgets every kept item and sizes the table for up to `max_rows`
  /// Insert calls. A deduper reused across calls keeps its capacity.
  void Reset(int64_t max_rows) {
    slots_.assign(CapacityFor(max_rows), Slot{});
    mask_ = slots_.size() - 1;
    num_rows_ = 0;
  }

  /// Returns true (and records the token) when the item is new; false when
  /// an equal item was inserted before. `equal(kept_token, token)` says
  /// whether a kept item equals the one offered; it is called only for
  /// kept items with the same `hash`, which must therefore be equal for
  /// equal items. Tokens are >= 0.
  template <typename Equal>
  bool Insert(uint64_t hash, int64_t token, const Equal& equal) {
    VER_DCHECK(num_rows_ < row_capacity())
        << "RowDeduper sized for " << row_capacity() << " rows";
    size_t i = Mix64(hash) & mask_;
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.token < 0) break;
      if (s.hash == hash && equal(s.token, token)) return false;
    }
    slots_[i] = Slot{hash, token};
    ++num_rows_;
    return true;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t token = -1;  // -1 = empty slot
  };

  static size_t CapacityFor(int64_t max_rows) {
    size_t cap = 16;
    while (cap < static_cast<size_t>(max_rows) * 2) cap <<= 1;
    return cap;
  }
  int64_t row_capacity() const {
    return static_cast<int64_t>(slots_.size() / 2);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int64_t num_rows_ = 0;
};

}  // namespace ver

#endif  // VER_UTIL_ROW_DEDUPER_H_
