// VIEW-DISTILLATION (Section V, Algorithm 3): classify candidate-view pairs
// into the 4C categories — Compatible, Contained, Complementary,
// Contradictory — and distill the view set.
//
// Pipeline per Algorithm 3:
//   1. add views as graph nodes; identify approximate candidate keys
//   2. partition views into schema-based blocks
//   3. per block: row-wise hashing (the materializer hashes each view's
//      rows while it dedups them, see RowSetRun); compatible (equal hash
//      sets) and contained (subset) detection with transitivity shortcuts;
//      overlapping non-contained pairs start as complementary
//   4. second phase: inverted index over key-column values; rows grouped by
//      content; views in different groups for the same key value are
//      contradictory
//
// The default distillation strategy deduplicates compatible views and keeps
// the largest contained view. Complementary union and contradiction-driven
// pruning are exposed as separate operations because they depend on a key
// choice / a user decision (Table IV C3, Fig. 2).

#ifndef VER_CORE_DISTILLATION_H_
#define VER_CORE_DISTILLATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/view.h"

namespace ver {

enum class ViewRelation {
  kCompatible,
  kContained,
  kComplementary,
  kContradictory,
};

const char* ViewRelationToString(ViewRelation r);

/// A labeled edge of the distillation graph G. Complementary/contradictory
/// edges carry the candidate key (attribute names) they were judged under;
/// the same pair may appear once per key with different labels.
struct ViewEdge {
  int view_a = -1;  // index into the input view vector, view_a < view_b
  int view_b = -1;
  ViewRelation relation = ViewRelation::kCompatible;
  /// For kContained: which side is the container.
  int container = -1;
  /// For kComplementary / kContradictory: key attribute names.
  std::vector<std::string> key;
};

/// One contradiction: a key value that maps to different row contents in
/// different views. `groups` partitions the affected views by which row
/// content they agree with.
struct Contradiction {
  std::vector<std::string> key;
  /// Display text of the offending key value.
  std::string key_value_text;
  /// groups[g] = views agreeing with row-content g.
  std::vector<std::vector<int>> groups;

  /// Number of views that agree with the most popular side — the paper's
  /// "degree of discrimination" used to order contradictions (Fig. 2).
  int degree_of_discrimination() const;
  int num_views() const;
};

struct DistillationOptions {
  /// Uniqueness ratio above which a column is an approximate candidate key.
  double key_uniqueness_threshold = 0.9;
  /// Maximum nulls tolerated in a key column.
  double key_max_null_fraction = 0.05;
  /// Also try 2-column composite keys when no single column qualifies.
  bool composite_keys = false;
};

/// Wall-clock breakdown matching the paper's Fig. 4a bars.
struct DistillationTiming {
  double schema_partition_s = 0;
  double hash_and_c1_s = 0;
  double c2_s = 0;
  double c3_c4_s = 0;

  double total_s() const {
    return schema_partition_s + hash_and_c1_s + c2_s + c3_c4_s;
  }
};

struct DistillationResult {
  /// All 4C-labeled edges over the *input* view indices.
  std::vector<ViewEdge> edges;
  /// Views surviving the default strategy (compatible dedup + keep-largest).
  std::vector<int> surviving;
  /// For each pruned view, the surviving view that represents it.
  std::unordered_map<int, int> representative;
  /// All detected contradictions (across blocks and keys).
  std::vector<Contradiction> contradictions;
  /// Candidate keys found per view (attribute names, single or composite).
  std::vector<std::vector<std::vector<std::string>>> view_keys;

  int64_t num_compatible_pairs = 0;
  int64_t num_contained_pairs = 0;
  int64_t num_complementary_pairs = 0;
  int64_t num_contradictory_pairs = 0;

  DistillationTiming timing;

  /// Views remaining after pruning compatible duplicates only (Table IV C1).
  int64_t count_after_compatible = 0;
  /// ... after additionally keeping only the largest contained (Table IV C2).
  int64_t count_after_contained = 0;
};

/// Returns the table of view `i`, gathering its cells if it holds none.
using SurvivorTable = std::function<const Table&(int i)>;

/// Runs Algorithm 3 on a set of candidate views given by their schemas
/// (View::schema()) and their row sets, `runs[i]` being view i's. The
/// partition, C1 and C2 read only schemas and runs. Then
/// `survivor_table(i)` is called once for each view that survived C1/C2,
/// in ascending order, and C3/C4 read only those tables. This is the one
/// 4C body: Ver::Execute passes the materializer's runs and gathers each
/// survivor when asked.
DistillationResult DistillRowSets(const std::vector<View>& views,
                                  const std::vector<RowSetRun>& runs,
                                  const SurvivorTable& survivor_table,
                                  const DistillationOptions& options);

/// Runs Algorithm 3 on views that hold their cells: hashes each table into
/// its run (RowHashRun, timed in hash_and_c1_s), then runs DistillRowSets.
DistillationResult DistillViews(const std::vector<View>& views,
                                const DistillationOptions& options);

/// Table IV C3: number of views left after unioning complementary views
/// under one candidate-key choice per schema block. Returns {worst, best}:
/// the key choices minimizing / maximizing the union opportunities.
struct ComplementaryReduction {
  int64_t worst_case = 0;  // key choice with the least reduction
  int64_t best_case = 0;   // key choice with the largest reduction
};
ComplementaryReduction ComputeComplementaryReduction(
    const std::vector<View>& views, const DistillationResult& result);

/// Fig. 2: remaining view count after each contradiction-pruning step.
/// Contradictions are visited in descending degree of discrimination; at
/// each step the kept side is the one minimizing (best_case=true) or
/// maximizing (best_case=false) the surviving count. Index 0 of the returned
/// vector is the starting count.
std::vector<int64_t> ContradictionPruningCurve(
    const DistillationResult& result, bool best_case, int max_steps);

}  // namespace ver

#endif  // VER_CORE_DISTILLATION_H_
