#include "engine/view.h"

#include <algorithm>

#include "util/hash.h"

namespace ver {

bool View::HasSameProjection(const std::vector<ColumnRef>& other) const {
  if (projection.size() != other.size()) return false;
  std::vector<uint64_t> a, b;
  a.reserve(projection.size());
  b.reserve(other.size());
  for (const ColumnRef& c : projection) a.push_back(c.Encode());
  for (const ColumnRef& c : other) b.push_back(c.Encode());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

uint64_t RowSetSignature(const uint64_t* begin, const uint64_t* end) {
  uint64_t add = 0, mix = 0;
  for (const uint64_t* p = begin; p != end; ++p) {
    add += Mix64(*p);
    mix ^= Mix64(*p ^ 0x5555555555555555ULL);
  }
  return HashCombine(HashCombine(add, mix),
                     static_cast<uint64_t>(end - begin));
}

uint64_t* RowHashRun(const Table& table, uint64_t* out,
                     std::vector<int>* order) {
  // Column-major through the blocked combine kernel: the same seed and
  // per-row HashCombine chain as the materializer's dedup hash.
  const int64_t n = table.num_rows();
  std::fill(out, out + n, kRowHashSeed);
  table.schema().CanonicalColumnOrder(order);
  for (int c : *order) table.column_data(c).CombineCellHashesInto(out, n);
  std::sort(out, out + n);
  return std::unique(out, out + n);
}

}  // namespace ver
