// FastTopK baseline and view-specification variant tests.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "baselines/fast_topk.h"
#include "core/view_specification.h"
#include "discovery/engine.h"
#include "util/string_util.h"

namespace ver {
namespace {

Schema MakeSchema(std::vector<std::string> names) {
  Schema s;
  for (std::string& n : names) {
    s.AddAttribute(Attribute{std::move(n), ValueType::kString});
  }
  return s;
}

View MakeView(int64_t id, std::vector<std::string> attrs,
              std::vector<std::vector<std::string>> rows) {
  View v;
  v.id = id;
  v.table = Table("view_" + std::to_string(id), MakeSchema(std::move(attrs)));
  for (auto& row : rows) {
    std::vector<Value> values;
    for (auto& cell : row) values.push_back(Value::Parse(cell));
    EXPECT_TRUE(v.table.AppendRow(std::move(values)).ok());
  }
  return v;
}

TEST(FastTopKTest, RanksByOverlap) {
  std::vector<View> views;
  views.push_back(MakeView(0, {"c"}, {{"china"}}));                 // 1 hit
  views.push_back(MakeView(1, {"c"}, {{"china"}, {"japan"}}));      // 2 hits
  views.push_back(MakeView(2, {"c"}, {{"peru"}}));                  // 0 hits
  ExampleQuery query = ExampleQuery::FromColumns({{"china", "japan"}});
  std::vector<OverlapRankedView> ranked = RankViewsByOverlap(views, query);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].view_index, 1);
  EXPECT_EQ(ranked[0].overlap, 2);
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
  EXPECT_EQ(ranked[2].view_index, 2);
  EXPECT_EQ(ranked[2].overlap, 0);
}

TEST(FastTopKTest, TiesPreferSmallerViews) {
  std::vector<View> views;
  views.push_back(MakeView(0, {"c"}, {{"china"}, {"x"}, {"y"}, {"z"}}));
  views.push_back(MakeView(1, {"c"}, {{"china"}}));
  ExampleQuery query = ExampleQuery::FromColumns({{"china"}});
  std::vector<OverlapRankedView> ranked = RankViewsByOverlap(views, query);
  EXPECT_EQ(ranked[0].view_index, 1);  // same overlap, fewer rows
}

TEST(FastTopKTest, OverlapIsCaseInsensitive) {
  std::vector<View> views;
  views.push_back(MakeView(0, {"c"}, {{"China"}}));
  ExampleQuery query = ExampleQuery::FromColumns({{"  china "}});
  EXPECT_EQ(ViewOverlap(views[0], query), 1);
}

TEST(FastTopKTest, CountsAcrossAllQueryColumns) {
  std::vector<View> views;
  views.push_back(MakeView(0, {"a", "b"}, {{"china", "1400"}}));
  ExampleQuery query =
      ExampleQuery::FromColumns({{"china"}, {"1400", "9999"}});
  EXPECT_EQ(ViewOverlap(views[0], query), 2);
}

TEST(FastTopKTest, EmptyInputs) {
  EXPECT_TRUE(RankViewsByOverlap({}, ExampleQuery()).empty());
  std::vector<View> views;
  views.push_back(MakeView(0, {"a"}, {{"x"}}));
  std::vector<OverlapRankedView> ranked =
      RankViewsByOverlap(views, ExampleQuery());
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_DOUBLE_EQ(ranked[0].score, 0.0);
}

// Ranking copies of the views at `indices`, then naming each by its
// position in `views`: what the pipeline did before it ranked in place.
std::vector<OverlapRankedView> RankCopies(const std::vector<View>& views,
                                          const std::vector<int>& indices,
                                          const ExampleQuery& query) {
  std::vector<View> copies;
  for (int i : indices) copies.push_back(views[i]);
  std::vector<OverlapRankedView> ranked = RankViewsByOverlap(copies, query);
  for (OverlapRankedView& r : ranked) r.view_index = indices[r.view_index];
  return ranked;
}

void ExpectSameRanking(const std::vector<OverlapRankedView>& got,
                       const std::vector<OverlapRankedView>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].view_index, want[i].view_index) << i;
    EXPECT_EQ(got[i].overlap, want[i].overlap) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }
}

TEST(FastTopKTest, RankingASubsetByIndexEqualsRankingCopies) {
  // Overlap and row-count ties across non-adjacent indices exercise every
  // tie-break.
  std::vector<View> views;
  views.push_back(MakeView(0, {"c"}, {{"china"}, {"x"}}));
  views.push_back(MakeView(1, {"c"}, {{"peru"}}));
  views.push_back(MakeView(2, {"c"}, {{"china"}}));
  views.push_back(MakeView(3, {"c"}, {{"china"}, {"y"}}));
  views.push_back(MakeView(4, {"c"}, {{"japan"}, {"china"}}));
  views.push_back(MakeView(5, {"c"}, {{"china"}}));
  views.push_back(MakeView(6, {"c"}, {{"chile"}}));
  const ExampleQuery query = ExampleQuery::FromColumns({{"china", "japan"}});
  for (const std::vector<int>& subset :
       std::vector<std::vector<int>>{{0, 1, 2, 3, 4, 5, 6},
                                     {0, 2, 3, 5},
                                     {1, 3, 5, 6},
                                     {4},
                                     {}}) {
    SCOPED_TRACE(::testing::PrintToString(subset));
    ExpectSameRanking(RankViewsByOverlap(views, subset, query),
                      RankCopies(views, subset, query));
  }
}

// The set-based overlap ViewOverlap replaced, kept as its reference: every
// distinct cell text of the view, lowercased, in a string set, then one
// lookup per example.
int ReferenceViewOverlap(const View& view, const ExampleQuery& query) {
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

TEST(FastTopKTest, OverlapMatchesSetBasedReference) {
  std::vector<View> views;
  views.push_back(MakeView(0, {"country", "pop"},
                           {{"China", "1400"},
                            {"japan", ""},
                            {"CHINA", "125.5"},
                            {"", "7"}}));
  views.push_back(MakeView(1, {"c"}, {{" peru"}, {"Peru"}, {"lima "}}));
  views.push_back(MakeView(2, {"n"}, {{"42"}, {"42"}, {"-3"}, {"4.20"}}));
  views.push_back(MakeView(3, {"a", "b"}, {{"", ""}, {"", ""}}));  // nulls
  views.push_back(MakeView(4, {"c"}, {}));                        // no rows
  const std::vector<ExampleQuery> queries = {
      // Duplicate examples, case and whitespace variants, across columns.
      ExampleQuery::FromColumns({{"china", "China ", " CHINA", "japan"},
                                 {"1400", "1400", "7", "125.5"}}),
      ExampleQuery::FromColumns({{"peru", " peru", "PERU", "lima", "lima "}}),
      // Numeric cells: canonical text, not the text the row was parsed from.
      ExampleQuery::FromColumns({{"42", "42", "4.2", "4.20", "-3", "+42"}}),
      // What a null cell might render as.
      ExampleQuery::FromColumns({{"", "  ", "null", "NULL"}}),
      ExampleQuery::FromColumns({{"no such value"}}),
      ExampleQuery(),
  };
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<OverlapRankedView> ranked =
        RankViewsByOverlap(views, queries[q]);
    ASSERT_EQ(ranked.size(), views.size());
    for (const OverlapRankedView& r : ranked) {
      const View& v = views[static_cast<size_t>(r.view_index)];
      const int want = ReferenceViewOverlap(v, queries[q]);
      EXPECT_EQ(r.overlap, want) << "query " << q << " view " << r.view_index;
      EXPECT_EQ(ViewOverlap(v, queries[q]), want)
          << "query " << q << " view " << r.view_index;
    }
  }
  // The fixture is not vacuous: duplicates and variants count per example.
  EXPECT_EQ(ReferenceViewOverlap(views[0], queries[0]), 8);
}

// ------------------------- view specification ---------------------------

TableRepository MakeSpecRepo() {
  TableRepository repo;
  Table t1("news", MakeSchema({"city", "newspaper"}));
  EXPECT_TRUE(
      t1.AppendRow({Value::String("boston"), Value::String("the globe")})
          .ok());
  EXPECT_TRUE(
      t1.AppendRow({Value::String("chicago"), Value::String("the trib")})
          .ok());
  EXPECT_TRUE(repo.AddTable(std::move(t1)).ok());
  Table t2("people", MakeSchema({"name", "city"}));
  EXPECT_TRUE(
      t2.AppendRow({Value::String("ann"), Value::String("boston")}).ok());
  EXPECT_TRUE(repo.AddTable(std::move(t2)).ok());
  return repo;
}

TEST(ViewSpecificationTest, KeywordSpecFindsValueColumns) {
  TableRepository repo = MakeSpecRepo();
  auto engine = DiscoveryEngine::Build(repo);
  std::vector<ColumnSelectionResult> spec =
      SpecifyByKeywords(*engine, {"boston"});
  ASSERT_EQ(spec.size(), 1u);
  // boston appears in news.city and people.city.
  EXPECT_EQ(spec[0].candidates.size(), 2u);
}

TEST(ViewSpecificationTest, KeywordSpecUsesFuzzyFallback) {
  TableRepository repo = MakeSpecRepo();
  auto engine = DiscoveryEngine::Build(repo);
  std::vector<ColumnSelectionResult> spec =
      SpecifyByKeywords(*engine, {"bostan"});
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_EQ(spec[0].candidates.size(), 2u);
}

TEST(ViewSpecificationTest, AttributeSpecMatchesHeaders) {
  TableRepository repo = MakeSpecRepo();
  auto engine = DiscoveryEngine::Build(repo);
  std::vector<ColumnSelectionResult> spec =
      SpecifyByAttributes(*engine, {"city", "newspaper"});
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_EQ(spec[0].candidates.size(), 2u);  // two 'city' columns
  EXPECT_EQ(spec[1].candidates.size(), 1u);
}

TEST(ViewSpecificationTest, AttributeSpecFuzzyFallback) {
  TableRepository repo = MakeSpecRepo();
  auto engine = DiscoveryEngine::Build(repo);
  std::vector<ColumnSelectionResult> spec =
      SpecifyByAttributes(*engine, {"citty"});
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_EQ(spec[0].candidates.size(), 2u);
}

TEST(ViewSpecificationTest, QbeDelegatesToColumnSelection) {
  TableRepository repo = MakeSpecRepo();
  auto engine = DiscoveryEngine::Build(repo);
  ExampleQuery query = ExampleQuery::FromColumns({{"boston", "chicago"}});
  std::vector<ColumnSelectionResult> spec =
      SpecifyByExample(*engine, query, ColumnSelectionOptions());
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_FALSE(spec[0].candidates.empty());
}

TEST(ViewSpecificationTest, KindNames) {
  EXPECT_STREQ(SpecificationKindToString(SpecificationKind::kQbe), "QBE");
  EXPECT_STREQ(SpecificationKindToString(SpecificationKind::kKeyword),
               "keyword");
  EXPECT_STREQ(SpecificationKindToString(SpecificationKind::kAttribute),
               "attribute");
}

}  // namespace
}  // namespace ver
