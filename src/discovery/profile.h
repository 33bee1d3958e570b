// Column profiles: the per-column summaries the discovery index is built on.

#ifndef VER_DISCOVERY_PROFILE_H_
#define VER_DISCOVERY_PROFILE_H_

#include <string>
#include <utility>
#include <vector>

#include "storage/repository.h"
#include "table/column_stats.h"
#include "util/minhash.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace ver {

/// Offline summary of one column: statistics plus sketches.
///
/// `distinct_hashes` is retained (sorted) when the column has at most
/// `exact_set_max` distinct values, enabling exact containment; larger
/// columns fall back to the MinHash/Lazo estimate.
struct ColumnProfile {
  ColumnRef ref;
  std::string attribute_name;  // may be empty (noisy tables)
  ColumnStats stats;
  MinHashSignature signature;
  std::vector<uint64_t> distinct_hashes;  // sorted; empty when too large

  bool has_exact_set() const { return !distinct_hashes.empty(); }

  /// Snapshot serialization (the profiles section of a DiscoverySnapshot).
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r);
};

struct ProfilerOptions {
  /// MinHash signature width (the paper's Lazo sketches, Section VI-A).
  /// Units: permutations; default 128. More = better containment
  /// estimates, linearly more memory per column.
  int minhash_permutations = 128;
  /// Seed deriving the permutation family. Sketches are only comparable
  /// across profiles built with the same seed.
  uint64_t seed = 0x7065726d7574ULL;
  /// Columns with more distinct values than this keep only the sketch
  /// (larger ones would make exact containment too expensive). Units:
  /// distinct values; default 100000.
  int64_t exact_set_max = 100000;
};

/// Profiles every column of the repository (the offline indexing pass),
/// in table order, columns in schema order. With a pool, tables are
/// profiled concurrently; the result is identical for any pool.
std::vector<ColumnProfile> ProfileRepository(const TableRepository& repo,
                                             const ProfilerOptions& options,
                                             ThreadPool* pool = nullptr);

/// Containment JC(a ⊆ b): exact when both profiles kept their value sets,
/// otherwise the Lazo sketch estimate.
double ProfileContainment(const ColumnProfile& a, const ColumnProfile& b);

/// {JC(a ⊆ b), JC(b ⊆ a)}: the two ProfileContainment values, bit for bit,
/// with exact sets intersected once.
std::pair<double, double> ProfileContainments(const ColumnProfile& a,
                                              const ColumnProfile& b);

/// Jaccard similarity J(a, b), exact when possible.
double ProfileJaccard(const ColumnProfile& a, const ColumnProfile& b);

}  // namespace ver

#endif  // VER_DISCOVERY_PROFILE_H_
