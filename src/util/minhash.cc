#include "util/minhash.h"

#include <algorithm>
#include <limits>

#include "util/hash.h"
#include "util/simd.h"

namespace ver {

MinHasher::MinHasher(int num_permutations, uint64_t seed)
    : num_permutations_(num_permutations) {
  permutation_seeds_.reserve(num_permutations_);
  uint64_t state = seed;
  for (int i = 0; i < num_permutations_; ++i) {
    state = Mix64(state + 0x9e3779b97f4a7c15ULL);
    permutation_seeds_.push_back(state);
  }
}

MinHashSignature MinHasher::Compute(
    const std::vector<uint64_t>& element_hashes) const {
  MinHashSignature sig;
  sig.cardinality = element_hashes.size();
  sig.slots.assign(num_permutations_,
                   std::numeric_limits<uint64_t>::max());
  // One kernel call: each element updates every permutation's slot, the
  // permutations a vector at a time.
  simd::MinHashUpdate(sig.slots.data(), permutation_seeds_.data(),
                      static_cast<size_t>(num_permutations_),
                      element_hashes.data(), element_hashes.size());
  return sig;
}

void MinHashSignature::SaveTo(SerdeWriter* w) const {
  w->WriteU64(cardinality);
  w->WriteArray(slots);
}

Status MinHashSignature::LoadFrom(SerdeReader* r) {
  VER_RETURN_IF_ERROR(r->ReadU64(&cardinality));
  return r->ReadVector(&slots);
}

double EstimateJaccard(const MinHashSignature& a, const MinHashSignature& b) {
  if (a.slots.size() != b.slots.size() || a.slots.empty()) return 0.0;
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  int agree = 0;
  for (size_t i = 0; i < a.slots.size(); ++i) {
    if (a.slots[i] == b.slots[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.slots.size());
}

double EstimateContainment(const MinHashSignature& a,
                           const MinHashSignature& b) {
  if (a.empty()) return 0.0;
  double j = EstimateJaccard(a, b);
  if (j <= 0.0) return 0.0;
  double na = static_cast<double>(a.cardinality);
  double nb = static_cast<double>(b.cardinality);
  double intersection = j * (na + nb) / (1.0 + j);
  double jc = intersection / na;
  return std::clamp(jc, 0.0, 1.0);
}

namespace {

// Sorted-unique copy so exact set operations are linear merges.
std::vector<uint64_t> SortedUnique(const std::vector<uint64_t>& v) {
  std::vector<uint64_t> s = v;
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

uint64_t IntersectionSize(const std::vector<uint64_t>& sa,
                          const std::vector<uint64_t>& sb) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i] == sb[j]) {
      ++count;
      ++i;
      ++j;
    } else if (sa[i] < sb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

}  // namespace

double ExactJaccard(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
  std::vector<uint64_t> sa = SortedUnique(a);
  std::vector<uint64_t> sb = SortedUnique(b);
  if (sa.empty() && sb.empty()) return 1.0;
  uint64_t inter = IntersectionSize(sa, sb);
  uint64_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double ExactContainment(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
  std::vector<uint64_t> sa = SortedUnique(a);
  std::vector<uint64_t> sb = SortedUnique(b);
  if (sa.empty()) return 0.0;
  uint64_t inter = IntersectionSize(sa, sb);
  return static_cast<double>(inter) / static_cast<double>(sa.size());
}

}  // namespace ver
