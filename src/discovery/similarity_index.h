// Column-similarity index: the NEIGHBORS(threshold) function of the paper's
// Appendix A. Candidate pairs come from two tiers — an exact value-overlap
// posting list for columns whose distinct sets were retained, and LSH banding
// over MinHash signatures for everything — then candidates are verified with
// the containment/Jaccard estimators.
//
// Each tier is one immutable flat bucket store (sorted u64 keys, u32
// offsets, concatenated postings) — the snapshot's layout. Build() writes
// it, SaveTo() writes it out unchanged, and LoadFrom() adopts it (copied
// when resident, borrowed from the mmapped file when paged), so built,
// loaded and paged indexes run the same lookup code.

#ifndef VER_DISCOVERY_SIMILARITY_INDEX_H_
#define VER_DISCOVERY_SIMILARITY_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "discovery/profile.h"
#include "pager/paged_view.h"
#include "util/thread_pool.h"

namespace ver {

struct SimilarityOptions {
  /// Number of LSH bands; rows per band = permutations / bands. Default
  /// 32 bands over 128 permutations (4 rows/band), tuned for the paper's
  /// NEIGHBORS thresholds around 0.5-0.8. More bands = higher recall at
  /// lower thresholds, more candidates to verify.
  int lsh_bands = 32;
  /// Columns with fewer distinct values than this are ignored as join
  /// endpoints (single-value columns join everything and mean nothing).
  /// Units: distinct values; default 2.
  int64_t min_distinct = 2;
  /// Cap on postings per value hash in the overlap tier; very frequent
  /// values (e.g. "0") otherwise create quadratic candidate blowup.
  /// Units: columns per posting list; default 256.
  size_t max_posting_length = 256;
};

struct Neighbor {
  int profile_index;  // index into the profile vector
  double score;       // containment or jaccard, per query
};

/// Approximate nearest-neighbor structure over column profiles.
class SimilarityIndex {
 public:
  /// Builds both tiers from the profiles. Profiles must outlive the index.
  /// Keys come out ascending; a value posting holds the first
  /// max_posting_length eligible profile indices ascending, a band bucket
  /// all of them. With a pool, collection and banding split across
  /// workers; the index is identical for any pool.
  void Build(const std::vector<ColumnProfile>* profiles,
             const SimilarityOptions& options, ThreadPool* pool = nullptr);

  /// Columns b with containment(query ⊆ b) >= threshold (excluding itself).
  std::vector<Neighbor> ContainmentNeighbors(int profile_index,
                                             double threshold) const;

  /// Columns b with Jaccard(query, b) >= threshold (excluding itself).
  std::vector<Neighbor> JaccardNeighbors(int profile_index,
                                         double threshold) const;

  /// Candidate profile indices for a query column (union of both tiers).
  std::vector<int> Candidates(int profile_index) const;

  /// All unordered candidate pairs (i < j) that share a stored bucket of
  /// either tier, ascending and each once, for offline edge construction.
  std::vector<std::pair<int, int>> AllCandidatePairs() const;

  /// Snapshot serialization: SaveTo writes the flat stores as they are
  /// (deterministic bytes for given profiles and options); LoadFrom
  /// restores them with a handful of bulk copies — no rehashing — which is
  /// what makes snapshot cold starts fast. `profiles` and `options` play
  /// the role Build()'s arguments do (options are persisted once, in the
  /// engine's options section, not here); the band geometry stored in the
  /// section must match the one they derive.
  ///
  /// With `borrow` (a paged load) the flat stores are adopted as borrowed
  /// mmap extents and the O(postings) validation scans are skipped; queries
  /// bounds-guard each bucket slice and posting index instead.
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r, const std::vector<ColumnProfile>* profiles,
                  const SimilarityOptions& options, bool borrow = false);

 private:
  /// Immutable bucket store: sorted keys with concatenated posting lists,
  /// written by Build(), bulk-loaded from snapshots, or borrowed straight
  /// out of the mmapped file under a paged load. Queries binary-search it.
  struct FlatBuckets {
    PagedView<uint64_t> keys;      // sorted ascending
    PagedView<uint32_t> offsets;   // keys.size() + 1 entries
    PagedView<int> postings;       // concatenated, in key order

    size_t num_keys() const { return static_cast<size_t>(keys.size()); }
    /// Index of `key`, or -1.
    ptrdiff_t find(uint64_t key) const;
    /// Sorts the (key, profile index) `entries`, which list each key's
    /// indices ascending, by key and groups them, keeping each key's `cap`
    /// smallest indices; a key whose indices the cap drops entirely keeps
    /// an empty bucket. The result is owned.
    void Assign(std::vector<std::pair<uint64_t, int>>* entries, size_t cap);
    /// Bounds-guarded posting slice [begin, end) for key index `i`; empty
    /// on a corrupt offset pair (paged loads skip offset validation).
    std::pair<uint32_t, uint32_t> bucket_range(size_t i) const {
      uint32_t b = offsets[i], e = offsets[i + 1];
      if (b > e || e > postings.size()) return {0, 0};
      return {b, e};
    }
    void SaveTo(SerdeWriter* w) const;
    /// Restores the store; resident loads validate the offset array
    /// (monotonic, in bounds), paged loads defer to bucket_range().
    Status LoadFrom(SerdeReader* r, bool borrow);
  };

  const std::vector<ColumnProfile>* profiles_ = nullptr;
  SimilarityOptions options_;
  int rows_per_band_ = 4;

  // Tier 1: value hash -> profile indices containing that value.
  FlatBuckets flat_value_postings_;
  // Tier 2: per-band bucket -> profile indices.
  std::vector<FlatBuckets> flat_band_buckets_;
  // Columns eligible as join endpoints.
  std::vector<bool> eligible_;

  uint64_t BandHash(const MinHashSignature& sig, int band) const;
};

}  // namespace ver

#endif  // VER_DISCOVERY_SIMILARITY_INDEX_H_
