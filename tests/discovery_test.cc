// Discovery engine tests: profiles, keyword index, similarity neighbors.

#include <gtest/gtest.h>

#include "discovery/engine.h"
#include "discovery/keyword_index.h"

namespace ver {
namespace {

// Small controlled repository:
//   people(name, city)          city covers all 4 cities
//   addresses(town, zip)        town = 3 of the 4 cities (containment .75..1)
//   cities_full(city_name, id)  all cities plus 1 extra (superset)
//   numbers(n)                  numeric column
TableRepository MakeRepo() {
  TableRepository repo;
  auto add = [&repo](const std::string& name,
                     const std::vector<std::string>& attrs,
                     const std::vector<std::vector<std::string>>& rows) {
    Schema schema;
    for (const auto& a : attrs) {
      schema.AddAttribute(Attribute{a, ValueType::kString});
    }
    Table t(name, schema);
    for (const auto& row : rows) {
      std::vector<Value> values;
      for (const auto& cell : row) values.push_back(Value::Parse(cell));
      EXPECT_TRUE(t.AppendRow(std::move(values)).ok());
    }
    t.InferColumnTypes();
    EXPECT_TRUE(repo.AddTable(std::move(t)).ok());
  };
  add("people", {"name", "city"},
      {{"alice", "boston"},
       {"bob", "chicago"},
       {"carol", "denver"},
       {"dan", "austin"}});
  add("addresses", {"town", "zip"},
      {{"boston", "02115"}, {"chicago", "60601"}, {"denver", "80014"}});
  add("cities_full", {"city_name", "id"},
      {{"boston", "1"},
       {"chicago", "2"},
       {"denver", "3"},
       {"austin", "4"},
       {"seattle", "5"}});
  add("numbers", {"n"}, {{"1"}, {"2"}, {"3"}});
  return repo;
}

class DiscoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new TableRepository(MakeRepo());
    engine_ = DiscoveryEngine::Build(*repo_).release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete repo_;
    engine_ = nullptr;
    repo_ = nullptr;
  }
  static ColumnRef Col(const std::string& table, const std::string& attr) {
    int32_t t = repo_->FindTable(table).value();
    return ColumnRef{t, repo_->table(t).schema().IndexOf(attr)};
  }
  static TableRepository* repo_;
  static DiscoveryEngine* engine_;
};

TableRepository* DiscoveryTest::repo_ = nullptr;
DiscoveryEngine* DiscoveryTest::engine_ = nullptr;

// ------------------------------ profiles --------------------------------

TEST_F(DiscoveryTest, ProfilesCoverEveryColumn) {
  EXPECT_EQ(engine_->profiles().size(),
            static_cast<size_t>(repo_->TotalColumns()));
  const ColumnProfile& p = engine_->profile(Col("people", "city"));
  EXPECT_EQ(p.attribute_name, "city");
  EXPECT_EQ(p.stats.num_distinct, 4);
  EXPECT_TRUE(p.has_exact_set());
}

TEST_F(DiscoveryTest, ProfileContainmentExact) {
  const ColumnProfile& towns = engine_->profile(Col("addresses", "town"));
  const ColumnProfile& cities = engine_->profile(Col("people", "city"));
  EXPECT_DOUBLE_EQ(ProfileContainment(towns, cities), 1.0);
  EXPECT_DOUBLE_EQ(ProfileContainment(cities, towns), 0.75);
  EXPECT_DOUBLE_EQ(ProfileJaccard(towns, cities), 0.75);
}

// ---------------------------- keyword search ----------------------------

TEST_F(DiscoveryTest, ExactValueSearch) {
  std::vector<KeywordHit> hits =
      engine_->SearchKeyword("boston", KeywordTarget::kValues);
  // boston appears in people.city, addresses.town, cities_full.city_name.
  EXPECT_EQ(hits.size(), 3u);
  for (const KeywordHit& h : hits) {
    EXPECT_FALSE(h.matched_attribute);
    EXPECT_TRUE(h.exact);
  }
}

TEST_F(DiscoveryTest, SearchIsCaseInsensitive) {
  EXPECT_EQ(engine_->SearchKeyword("BoStOn", KeywordTarget::kValues).size(),
            3u);
}

TEST_F(DiscoveryTest, AttributeSearch) {
  std::vector<KeywordHit> hits =
      engine_->SearchKeyword("city", KeywordTarget::kAttributes);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(hits[0].matched_attribute);
  EXPECT_EQ(hits[0].column, Col("people", "city"));
}

TEST_F(DiscoveryTest, FuzzySearchFindsTypos) {
  std::vector<KeywordHit> exact =
      engine_->SearchKeyword("bostan", KeywordTarget::kValues, false);
  EXPECT_TRUE(exact.empty());
  std::vector<KeywordHit> fuzzy =
      engine_->SearchKeyword("bostan", KeywordTarget::kValues, true);
  EXPECT_EQ(fuzzy.size(), 3u);
  for (const KeywordHit& h : fuzzy) EXPECT_FALSE(h.exact);
}

TEST_F(DiscoveryTest, SearchAllCombinesTargets) {
  std::vector<KeywordHit> hits =
      engine_->SearchKeyword("city", KeywordTarget::kAll);
  // attribute 'city' + no value 'city'.
  EXPECT_EQ(hits.size(), 1u);
}

TEST_F(DiscoveryTest, NumericValueSearch) {
  std::vector<KeywordHit> hits =
      engine_->SearchKeyword("2", KeywordTarget::kValues);
  // "2" appears in numbers.n and cities_full.id.
  EXPECT_EQ(hits.size(), 2u);
}

// ------------------------------ neighbors -------------------------------

TEST_F(DiscoveryTest, ContainmentNeighbors) {
  // addresses.town ⊆ people.city and ⊆ cities_full.city_name.
  std::vector<ColumnRef> n = engine_->Neighbors(Col("addresses", "town"), 0.8);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_TRUE((n[0] == Col("people", "city") &&
               n[1] == Col("cities_full", "city_name")) ||
              (n[1] == Col("people", "city") &&
               n[0] == Col("cities_full", "city_name")));
}

TEST_F(DiscoveryTest, NeighborsRespectThreshold) {
  // people.city ⊆ addresses.town has containment 0.75 only.
  std::vector<ColumnRef> strict =
      engine_->Neighbors(Col("people", "city"), 0.9);
  for (const ColumnRef& ref : strict) {
    EXPECT_FALSE(ref == Col("addresses", "town"));
  }
  std::vector<ColumnRef> loose =
      engine_->Neighbors(Col("people", "city"), 0.7);
  bool found = false;
  for (const ColumnRef& ref : loose) {
    if (ref == Col("addresses", "town")) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(DiscoveryTest, SimilarColumnsUseJaccard) {
  // town vs city: J = 3/4. town vs city_name: J = 3/5.
  std::vector<ColumnRef> sim =
      engine_->SimilarColumns(Col("addresses", "town"), 0.7);
  ASSERT_EQ(sim.size(), 1u);
  EXPECT_EQ(sim[0], Col("people", "city"));
}

TEST_F(DiscoveryTest, UnknownColumnHasNoNeighbors) {
  EXPECT_TRUE(engine_->Neighbors(ColumnRef{99, 0}, 0.5).empty());
}

TEST_F(DiscoveryTest, JoinableColumnPairsCounted) {
  EXPECT_GT(engine_->num_joinable_column_pairs(), 0);
}

// Keys are ordered by an 8-byte prefix first and by full text only within
// a run of equal prefixes; exact lookup binary-searches that order, so
// every text must be findable, whatever prefix it shares.
TEST(KeywordIndexTest, ExactSearchFindsEdgeTexts) {
  std::vector<std::string> texts;
  // Shared 8-byte prefixes, some texts prefixes of one another.
  texts.insert(texts.end(), {"abcdefgh", "abcdefgh1", "abcdefgh2"});
  texts.insert(texts.end(), {"abcdefghij", "abcdefghijklmnop"});
  texts.insert(texts.end(), {"abcdefghijklmnopq", "a", "ab", "abc"});
  // A trailing NUL pads like the prefix's zero fill.
  texts.push_back(std::string("ab\0", 3));
  texts.push_back(std::string("abcdefgh\0", 9));
  // The empty text.
  texts.push_back("");
  // Bytes >= 0x80 (UTF-8 and raw), which order after every ASCII byte.
  texts.insert(texts.end(), {"\xc3\xa9t\xc3\xa9", "\xc3\xa9", "\xff"});
  texts.push_back(std::string(8, '\xff'));
  texts.push_back(std::string(8, '\xff') + "\x80");
  texts.insert(texts.end(), {"\x80" "abc", "zz", "z\x80"});
  // One column per text, so each text's only posting is its column.
  Schema schema;
  for (size_t i = 0; i < texts.size(); ++i) {
    std::string name = "c" + std::to_string(i);
    schema.AddAttribute(Attribute{name, ValueType::kString});
  }
  Table table("texts", schema);
  std::vector<Value> row;
  for (const std::string& text : texts) row.push_back(Value::String(text));
  ASSERT_TRUE(table.AppendRow(std::move(row)).ok());
  TableRepository repo;
  ASSERT_TRUE(repo.AddTable(std::move(table)).ok());

  KeywordIndex index;
  index.Build(repo);
  EXPECT_EQ(index.vocabulary_size(), static_cast<int64_t>(texts.size()));
  for (size_t i = 0; i < texts.size(); ++i) {
    auto hits = index.Search(texts[i], KeywordTarget::kValues);
    ASSERT_EQ(hits.size(), 1u) << "text #" << i;
    ColumnRef want{0, static_cast<int32_t>(i)};
    EXPECT_EQ(hits[0].column, want) << "text #" << i;
    EXPECT_TRUE(hits[0].exact);
  }
  EXPECT_TRUE(index.Search("abcdefgh3", KeywordTarget::kValues).empty());
  EXPECT_TRUE(index.Search("\xc3", KeywordTarget::kValues).empty());
}

// ------------------------- option sensitivity ---------------------------

TEST(DiscoveryOptionsTest, LowerThresholdMoreJoinablePairs) {
  TableRepository repo = MakeRepo();
  DiscoveryOptions strict;
  strict.join_paths.containment_threshold = 0.95;
  DiscoveryOptions loose;
  loose.join_paths.containment_threshold = 0.5;
  auto strict_engine = DiscoveryEngine::Build(repo, strict);
  auto loose_engine = DiscoveryEngine::Build(repo, loose);
  EXPECT_LE(strict_engine->num_joinable_column_pairs(),
            loose_engine->num_joinable_column_pairs());
}

TEST(DiscoveryOptionsTest, SketchOnlyModeStillFindsNeighbors) {
  TableRepository repo = MakeRepo();
  DiscoveryOptions sketchy;
  sketchy.profiler.exact_set_max = 0;  // force estimates everywhere
  auto engine = DiscoveryEngine::Build(repo, sketchy);
  int32_t addresses = repo.FindTable("addresses").value();
  ColumnRef town{addresses, repo.table(addresses).schema().IndexOf("town")};
  std::vector<ColumnRef> n = engine->Neighbors(town, 0.6);
  EXPECT_FALSE(n.empty());
}

}  // namespace
}  // namespace ver
