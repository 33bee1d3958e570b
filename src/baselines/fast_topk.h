// FastTopK (S4 [35]) baseline: overlap-score ranking of candidate views.
//
// This is the comparison system of the paper's user study (Section VI-A) and
// the source of the SELECT-ALL column-selection strategy (Table V). It ranks
// views by how many of the query's example values they contain; the user
// then explores the ranking manually — there is no distillation and no
// question-driven navigation.

#ifndef VER_BASELINES_FAST_TOPK_H_
#define VER_BASELINES_FAST_TOPK_H_

#include <vector>

#include "core/query.h"
#include "engine/view.h"

namespace ver {

struct OverlapRankedView {
  int view_index = -1;
  /// Number of (attribute, example) pairs found in the view.
  int overlap = 0;
  /// Overlap normalized by total examples, in [0, 1].
  double score = 0.0;
};

/// Ranks `views` by example overlap, best first. Ties break toward smaller
/// views (more specific results), then lower index.
std::vector<OverlapRankedView> RankViewsByOverlap(
    const std::vector<View>& views, const ExampleQuery& query);

/// Ranks the views at `indices` (ascending) in place of a vector holding
/// copies of them: the same order, with view_index naming the position in
/// `views`.
std::vector<OverlapRankedView> RankViewsByOverlap(
    const std::vector<View>& views, const std::vector<int>& indices,
    const ExampleQuery& query);

/// Overlap of a single view with the query examples.
int ViewOverlap(const View& view, const ExampleQuery& query);

}  // namespace ver

#endif  // VER_BASELINES_FAST_TOPK_H_
