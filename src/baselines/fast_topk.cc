#include "baselines/fast_topk.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>

#include "util/string_util.h"

namespace ver {

namespace {

// The query's examples, trimmed and lowercased once per ranking call, with
// how often each text occurs: a view containing a text earns all of its
// occurrences. Overlap() walks a view's distinct cells through one reused
// scratch buffer and per-text found flags, so ranking a view allocates
// nothing once the buffers have grown.
class ExampleTexts {
 public:
  explicit ExampleTexts(const ExampleQuery& query) {
    for (const auto& column : query.columns) {
      for (const std::string& example : column) {
        auto [it, fresh] =
            index_.emplace(ToLower(TrimView(example)), multiplicity_.size());
        if (fresh) multiplicity_.push_back(0);
        ++multiplicity_[it->second];
        max_length_ = std::max(max_length_, it->first.size());
      }
    }
    found_.resize(multiplicity_.size());
  }

  int Overlap(const View& view) {
    if (index_.empty()) return 0;
    std::fill(found_.begin(), found_.end(), false);
    int overlap = 0;
    const Table& t = view.table;
    for (int c = 0; c < t.num_columns(); ++c) {
      t.column_data(c).ForEachDistinctCell([&](CellView v) {
        scratch_.clear();
        v.AppendTextTo(&scratch_);
        // Lowercasing keeps the length, so a longer cell matches nothing.
        if (scratch_.size() > max_length_) return;
        ToLowerInPlace(&scratch_);
        auto it = index_.find(scratch_);
        if (it == index_.end() || found_[it->second]) return;
        found_[it->second] = true;
        overlap += multiplicity_[it->second];
      });
    }
    return overlap;
  }

 private:
  std::unordered_map<std::string, size_t> index_;  // text -> slot
  std::vector<int> multiplicity_;                  // slot -> occurrences
  std::vector<bool> found_;                        // slot -> seen in view
  size_t max_length_ = 0;
  std::string scratch_;
};

}  // namespace

int ViewOverlap(const View& view, const ExampleQuery& query) {
  return ExampleTexts(query).Overlap(view);
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
  ExampleTexts examples(query);
  std::vector<OverlapRankedView> ranked;
  ranked.reserve(indices.size());
  for (int i : indices) {
    OverlapRankedView r;
    r.view_index = i;
    r.overlap = examples.Overlap(views[i]);
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
              int64_t ra = views[a.view_index].num_rows();
              int64_t rb = views[b.view_index].num_rows();
              if (ra != rb) return ra < rb;
              return a.view_index < b.view_index;
            });
  return ranked;
}

}  // namespace ver
