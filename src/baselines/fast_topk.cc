#include "baselines/fast_topk.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "util/string_util.h"

namespace ver {

int ViewOverlap(const View& view, const ExampleQuery& query) {
  // Collect the view's cell texts once. Dictionary columns contribute each
  // distinct cell exactly once without a row scan; other encodings walk
  // rows through zero-copy views (the set dedups).
  std::unordered_set<std::string> cell_texts;
  const Table& t = view.table;
  for (int c = 0; c < t.num_columns(); ++c) {
    t.column_data(c).ForEachDistinctCell(
        [&](CellView v) { cell_texts.insert(ToLower(v.ToText())); });
  }
  int overlap = 0;
  for (const auto& column : query.columns) {
    for (const std::string& example : column) {
      if (cell_texts.count(ToLower(Trim(example)))) ++overlap;
    }
  }
  return overlap;
}

std::vector<OverlapRankedView> RankViewsByOverlap(
    const std::vector<View>& views, const ExampleQuery& query) {
  std::vector<int> all(views.size());
  std::iota(all.begin(), all.end(), 0);
  return RankViewsByOverlap(views, all, query);
}

std::vector<OverlapRankedView> RankViewsByOverlap(
    const std::vector<View>& views, const std::vector<int>& indices,
    const ExampleQuery& query) {
  int total_examples = 0;
  for (const auto& column : query.columns) {
    total_examples += static_cast<int>(column.size());
  }
  std::vector<OverlapRankedView> ranked;
  ranked.reserve(indices.size());
  for (int i : indices) {
    OverlapRankedView r;
    r.view_index = i;
    r.overlap = ViewOverlap(views[i], query);
    r.score = total_examples == 0
                  ? 0.0
                  : static_cast<double>(r.overlap) /
                        static_cast<double>(total_examples);
    ranked.push_back(r);
  }
  // Indices ascend, so the index tie-break orders a subset exactly as it
  // would order a vector of copies of those views.
  std::sort(ranked.begin(), ranked.end(),
            [&views](const OverlapRankedView& a, const OverlapRankedView& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              int64_t ra = views[a.view_index].table.num_rows();
              int64_t rb = views[b.view_index].table.num_rows();
              if (ra != rb) return ra < rb;
              return a.view_index < b.view_index;
            });
  return ranked;
}

}  // namespace ver
