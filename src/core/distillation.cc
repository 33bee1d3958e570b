#include "core/distillation.h"

#include <algorithm>
#include <map>
#include <set>

#include "table/column_stats.h"
#include "util/hash.h"
#include "util/row_deduper.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ver {

const char* ViewRelationToString(ViewRelation r) {
  switch (r) {
    case ViewRelation::kCompatible:
      return "compatible";
    case ViewRelation::kContained:
      return "contained";
    case ViewRelation::kComplementary:
      return "complementary";
    case ViewRelation::kContradictory:
      return "contradictory";
  }
  return "unknown";
}

int Contradiction::degree_of_discrimination() const {
  int best = 0;
  for (const auto& g : groups) best = std::max(best, static_cast<int>(g.size()));
  return best;
}

int Contradiction::num_views() const {
  int n = 0;
  for (const auto& g : groups) n += static_cast<int>(g.size());
  return n;
}

namespace {

// Per-view derived data used across the phases.
struct ViewData {
  // H(V), the row-content hash set: the view's sorted, deduplicated run.
  const uint64_t* begin = nullptr;
  const uint64_t* end = nullptr;
  uint64_t set_signature = 0;  // RowSetSignature of the run
  int schema = -1;  // distinct ordered schema, indexes the canonical orders
  const Table* table = nullptr;  // survivors of C1/C2 only
  std::vector<std::vector<std::string>> keys;  // candidate keys (attr names)

  size_t size() const { return static_cast<size_t>(end - begin); }
};

// Row hash in canonical column order, so views with permuted schemas
// compare correctly inside a block.
uint64_t CanonicalRowHash(const Table& t, int64_t row,
                          const std::vector<int>& canonical_cols) {
  uint64_t h = kRowHashSeed;
  for (int c : canonical_cols) h = HashCombine(h, t.cell_hash(row, c));
  return h;
}

// Hash and equality of ordered attribute-name lists: the identity of a
// view's ordered schema, which fixes its canonical order and its block.
uint64_t AttributeNamesHash(const Schema& s) {
  uint64_t h = s.num_attributes();
  for (const Attribute& a : s.attributes()) {
    h = HashCombine(h, HashString(a.name));
  }
  return h;
}

bool SameAttributeNames(const Schema& a, const Schema& b) {
  if (a.num_attributes() != b.num_attributes()) return false;
  for (int i = 0; i < a.num_attributes(); ++i) {
    if (a.attribute(i).name != b.attribute(i).name) return false;
  }
  return true;
}

// True when two views' row-hash sets share an element (merge walk).
bool Overlaps(const ViewData& x, const ViewData& y) {
  const uint64_t* a = x.begin;
  const uint64_t* b = y.begin;
  while (a != x.end && b != y.end) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

std::vector<std::vector<std::string>> FindCandidateKeys(
    const Table& t, const DistillationOptions& options) {
  std::vector<std::vector<std::string>> keys;
  std::vector<int> singles;
  for (int c = 0; c < t.num_columns(); ++c) {
    if (!t.schema().attribute(c).has_name()) continue;
    ColumnStats stats = ComputeColumnStats(t, c);
    if (stats.num_rows == 0) continue;
    if (stats.null_fraction() > options.key_max_null_fraction) continue;
    if (stats.uniqueness() >= options.key_uniqueness_threshold) {
      singles.push_back(c);
      keys.push_back({ToLower(t.schema().attribute(c).name)});
    }
  }
  if (!options.composite_keys || !keys.empty()) return keys;
  // Composite fallback: pairs of named columns that jointly identify rows.
  for (int a = 0; a < t.num_columns(); ++a) {
    if (!t.schema().attribute(a).has_name()) continue;
    for (int b = a + 1; b < t.num_columns(); ++b) {
      if (!t.schema().attribute(b).has_name()) continue;
      std::unordered_set<uint64_t> combos;
      bool has_null = false;
      for (int64_t r = 0; r < t.num_rows(); ++r) {
        if (t.cell(r, a).is_null() || t.cell(r, b).is_null()) {
          has_null = true;
          break;
        }
        combos.insert(HashCombine(t.cell_hash(r, a), t.cell_hash(r, b)));
      }
      if (has_null || t.num_rows() == 0) continue;
      double uniq = static_cast<double>(combos.size()) /
                    static_cast<double>(t.num_rows());
      if (uniq >= options.key_uniqueness_threshold) {
        std::vector<std::string> key = {
            ToLower(t.schema().attribute(a).name),
            ToLower(t.schema().attribute(b).name)};
        std::sort(key.begin(), key.end());
        keys.push_back(std::move(key));
      }
    }
  }
  return keys;
}

// Column indices of the key attributes in a given view, or empty if absent.
std::vector<int> KeyColumnIndices(const Table& t,
                                  const std::vector<std::string>& key) {
  std::vector<int> out;
  for (const std::string& name : key) {
    int idx = t.schema().IndexOf(name);
    if (idx < 0) return {};
    out.push_back(idx);
  }
  return out;
}

std::string KeyLabel(const std::vector<std::string>& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += "+";
    out += key[i];
  }
  return out;
}

}  // namespace

DistillationResult DistillRowSets(const std::vector<View>& views,
                                  const std::vector<RowSetRun>& runs,
                                  const SurvivorTable& survivor_table,
                                  const DistillationOptions& options) {
  DistillationResult result;
  const int n = static_cast<int>(views.size());
  std::vector<ViewData> data(n);
  for (int i = 0; i < n; ++i) {
    data[i].begin = runs[i].begin;
    data[i].end = runs[i].end;
    data[i].set_signature = runs[i].signature;
  }

  // --- Schema partition (Alg. 3 line 2) -------------------------------
  // The views of one projection share their ordered schema, so its
  // canonical column order and its block are resolved once per distinct
  // ordered schema. Blocks are keyed (and later visited) by signature
  // string; map nodes never move, so each schema keeps its block's address.
  std::map<std::string, std::vector<int>> blocks;
  std::vector<std::vector<int>> canonical_orders;  // per ordered schema
  {
    ScopedTimer timer(&result.timing.schema_partition_s);
    std::vector<std::vector<int>*> schema_blocks;
    RowDeduper schemas;
    schemas.Reset(n);
    for (int i = 0; i < n; ++i) {
      const Schema& schema = views[i].schema();
      auto same_schema = [&](int64_t kept, int64_t) {
        if (!SameAttributeNames(views[kept].schema(), schema)) {
          return false;
        }
        data[i].schema = data[kept].schema;
        return true;
      };
      if (schemas.Insert(AttributeNamesHash(schema), i, same_schema)) {
        data[i].schema = static_cast<int>(canonical_orders.size());
        canonical_orders.emplace_back();
        schema.CanonicalColumnOrder(&canonical_orders.back());
        schema_blocks.push_back(&blocks[schema.CanonicalSignature()]);
      }
      schema_blocks[data[i].schema]->push_back(i);
    }
  }

  // --- Compatible detection (lines 5-8) -------------------------------
  // Run equality is set equality.
  std::vector<bool> pruned(n, false);
  {
    ScopedTimer timer(&result.timing.hash_and_c1_s);
    // Group by set signature inside each block; equal sets are compatible.
    for (auto& [sig, members] : blocks) {
      (void)sig;
      if (members.size() < 2) continue;
      std::unordered_map<uint64_t, std::vector<int>> by_set;
      for (int v : members) by_set[data[v].set_signature].push_back(v);
      for (auto& [_, group] : by_set) {
        if (group.size() < 2) continue;
        // Verify signature-equal sets really match (collision safety), then
        // keep the first view as the representative of the group.
        std::sort(group.begin(), group.end());
        int rep = group[0];
        for (size_t gi = 1; gi < group.size(); ++gi) {
          int v = group[gi];
          if (!std::equal(data[v].begin, data[v].end, data[rep].begin,
                          data[rep].end)) {
            continue;
          }
          for (size_t gj = 0; gj < gi; ++gj) {
            result.edges.push_back(ViewEdge{group[gj], v,
                                            ViewRelation::kCompatible, -1,
                                            {}});
          }
          ++result.num_compatible_pairs;
          pruned[v] = true;
          result.representative[v] = rep;
        }
      }
    }
  }
  result.count_after_compatible =
      std::count(pruned.begin(), pruned.end(), false);

  // --- Containment (lines 9-11) ---------------------------------------
  {
    ScopedTimer timer(&result.timing.c2_s);
    std::vector<int> alive;
    std::vector<int> maximal;
    for (auto& [sig, members] : blocks) {
      (void)sig;
      alive.clear();
      for (int v : members) {
        if (!pruned[v]) alive.push_back(v);
      }
      // Largest first; every view is tested against surviving maximal views
      // only (the paper's transitivity shortcut: keep the largest view as
      // the representative of everything it contains).
      std::sort(alive.begin(), alive.end(), [&data](int a, int b) {
        if (data[a].size() != data[b].size()) {
          return data[a].size() > data[b].size();
        }
        return a < b;
      });
      maximal.clear();
      for (int v : alive) {
        bool contained = false;
        for (int m : maximal) {
          // Runs are sorted, so a subset is a merge walk.
          if (std::includes(data[m].begin, data[m].end, data[v].begin,
                            data[v].end)) {
            result.edges.push_back(
                ViewEdge{std::min(v, m), std::max(v, m),
                         ViewRelation::kContained, m, {}});
            ++result.num_contained_pairs;
            pruned[v] = true;
            result.representative[v] = m;
            contained = true;
            break;
          }
        }
        if (!contained) maximal.push_back(v);
      }
    }
  }
  result.count_after_contained =
      std::count(pruned.begin(), pruned.end(), false);

  // --- Keys, complementary and contradictory (lines 12-18) -------------
  // Only now does 4C read cells, and only the survivors'.
  for (int i = 0; i < n; ++i) {
    if (!pruned[i]) data[i].table = &survivor_table(i);
  }
  {
    ScopedTimer timer(&result.timing.c3_c4_s);
    result.view_keys.resize(n);
    for (int i = 0; i < n; ++i) {
      if (pruned[i]) continue;
      data[i].keys = FindCandidateKeys(*data[i].table, options);
      result.view_keys[i] = data[i].keys;
    }

    std::set<std::pair<int, int>> complementary_pairs;
    std::set<std::pair<int, int>> contradictory_pairs;

    for (auto& [sig, members] : blocks) {
      (void)sig;
      std::vector<int> alive;
      for (int v : members) {
        if (!pruned[v]) alive.push_back(v);
      }
      if (alive.size() < 2) continue;

      // Shared candidate keys across this block.
      std::map<std::string, std::vector<std::string>> key_by_label;
      std::map<std::string, std::vector<int>> views_with_key;
      for (int v : alive) {
        for (const auto& key : data[v].keys) {
          std::string label = KeyLabel(key);
          key_by_label.emplace(label, key);
          views_with_key[label].push_back(v);
        }
      }

      for (const auto& [label, key] : key_by_label) {
        const std::vector<int>& kviews = views_with_key[label];
        if (kviews.size() < 2) continue;

        // Inverted index: key value -> (view, row-content hash) pairs.
        struct Entry {
          int view;
          uint64_t row_hash;
        };
        std::unordered_map<uint64_t, std::vector<Entry>> index;
        std::unordered_map<uint64_t, std::string> key_text;
        for (int v : kviews) {
          const Table& t = *data[v].table;
          std::vector<int> key_cols = KeyColumnIndices(t, key);
          if (key_cols.empty()) continue;
          for (int64_t r = 0; r < t.num_rows(); ++r) {
            uint64_t kh = 0x6b657968ULL;
            std::string text;
            for (int c : key_cols) {
              kh = HashCombine(kh, t.cell_hash(r, c));
              if (!text.empty()) text += "|";
              text += t.cell(r, c).ToText();
            }
            index[kh].push_back(Entry{
                v, CanonicalRowHash(t, r, canonical_orders[data[v].schema])});
            key_text.emplace(kh, std::move(text));
          }
        }

        // Group rows per key value by content; >1 group = contradiction.
        std::set<std::pair<int, int>> contradictory_here;
        for (auto& [kh, entries] : index) {
          std::unordered_map<uint64_t, std::vector<int>> groups_by_content;
          for (const Entry& e : entries) {
            auto& g = groups_by_content[e.row_hash];
            if (g.empty() || g.back() != e.view) g.push_back(e.view);
          }
          if (groups_by_content.size() < 2) continue;
          Contradiction contra;
          contra.key = key;
          contra.key_value_text = key_text[kh];
          for (auto& [_, g] : groups_by_content) {
            std::sort(g.begin(), g.end());
            g.erase(std::unique(g.begin(), g.end()), g.end());
            contra.groups.push_back(g);
          }
          std::sort(contra.groups.begin(), contra.groups.end());
          for (size_t gi = 0; gi < contra.groups.size(); ++gi) {
            for (size_t gj = gi + 1; gj < contra.groups.size(); ++gj) {
              for (int va : contra.groups[gi]) {
                for (int vb : contra.groups[gj]) {
                  if (va == vb) continue;
                  contradictory_here.insert(
                      {std::min(va, vb), std::max(va, vb)});
                }
              }
            }
          }
          result.contradictions.push_back(std::move(contra));
        }

        // Pairwise complementary/contradictory labeling under this key.
        for (size_t i = 0; i < kviews.size(); ++i) {
          for (size_t j = i + 1; j < kviews.size(); ++j) {
            int va = std::min(kviews[i], kviews[j]);
            int vb = std::max(kviews[i], kviews[j]);
            if (contradictory_here.count({va, vb})) {
              result.edges.push_back(ViewEdge{
                  va, vb, ViewRelation::kContradictory, -1, key});
              contradictory_pairs.insert({va, vb});
            } else if (Overlaps(data[va], data[vb])) {
              result.edges.push_back(ViewEdge{
                  va, vb, ViewRelation::kComplementary, -1, key});
              complementary_pairs.insert({va, vb});
            }
          }
        }
      }
    }
    result.num_complementary_pairs =
        static_cast<int64_t>(complementary_pairs.size());
    result.num_contradictory_pairs =
        static_cast<int64_t>(contradictory_pairs.size());
  }

  for (int i = 0; i < n; ++i) {
    if (!pruned[i]) result.surviving.push_back(i);
  }
  return result;
}

DistillationResult DistillViews(const std::vector<View>& views,
                                const DistillationOptions& options) {
  // Every view's run goes into one flat array, which never reallocates
  // once sized: the runs point into it.
  double hash_s = 0;
  std::vector<uint64_t> hashes;
  std::vector<RowSetRun> runs(views.size());
  {
    ScopedTimer timer(&hash_s);
    size_t total_rows = 0;
    for (const View& v : views) {
      total_rows += static_cast<size_t>(v.table.num_rows());
    }
    hashes.resize(total_rows);
    std::vector<int> order;
    uint64_t* out = hashes.data();
    for (size_t i = 0; i < views.size(); ++i) {
      uint64_t* end = RowHashRun(views[i].table, out, &order);
      runs[i] = RowSetRun{out, end, RowSetSignature(out, end)};
      out = end;
    }
  }
  DistillationResult result = DistillRowSets(
      views, runs, [&views](int i) -> const Table& { return views[i].table; },
      options);
  result.timing.hash_and_c1_s += hash_s;
  return result;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

ComplementaryReduction ComputeComplementaryReduction(
    const std::vector<View>& views, const DistillationResult& result) {
  ComplementaryReduction out;

  // Rebuild the block structure over surviving views.
  std::map<std::string, std::vector<int>> blocks;
  for (int v : result.surviving) {
    blocks[views[v].schema().CanonicalSignature()].push_back(v);
  }

  // Complementary edges indexed by key label.
  // pair -> set of key labels complementary under.
  std::map<std::string, std::vector<std::pair<int, int>>> comp_by_key;
  for (const ViewEdge& e : result.edges) {
    if (e.relation != ViewRelation::kComplementary) continue;
    std::string label;
    for (size_t i = 0; i < e.key.size(); ++i) {
      if (i) label += "+";
      label += e.key[i];
    }
    comp_by_key[label].push_back({e.view_a, e.view_b});
  }

  for (const auto& [sig, members] : blocks) {
    (void)sig;
    int64_t base = static_cast<int64_t>(members.size());
    int64_t block_best = base;   // minimal surviving count
    int64_t block_worst = base;  // maximal surviving count among key choices

    // Candidate key labels available in this block.
    std::set<std::string> labels;
    for (int v : members) {
      for (const auto& key : result.view_keys[v]) {
        std::string label;
        for (size_t i = 0; i < key.size(); ++i) {
          if (i) label += "+";
          label += key[i];
        }
        labels.insert(label);
      }
    }
    if (labels.empty()) {
      out.best_case += base;
      out.worst_case += base;
      continue;
    }

    std::unordered_map<int, int> local;  // view -> dense index
    for (size_t i = 0; i < members.size(); ++i) {
      local[members[i]] = static_cast<int>(i);
    }
    // Surviving count for each candidate-key choice: union-find components
    // over the complementary pairs valid under that key.
    int64_t min_count = base;
    int64_t max_count = 0;
    for (const std::string& label : labels) {
      auto it = comp_by_key.find(label);
      UnionFind uf(static_cast<int>(members.size()));
      if (it != comp_by_key.end()) {
        for (const auto& [a, b] : it->second) {
          auto la = local.find(a);
          auto lb = local.find(b);
          if (la != local.end() && lb != local.end()) {
            uf.Union(la->second, lb->second);
          }
        }
      }
      std::set<int> roots;
      for (size_t i = 0; i < members.size(); ++i) {
        roots.insert(uf.Find(static_cast<int>(i)));
      }
      int64_t count = static_cast<int64_t>(roots.size());
      min_count = std::min(min_count, count);
      max_count = std::max(max_count, count);
    }
    block_best = min_count;   // key with the largest reduction
    block_worst = max_count;  // key with the least reduction
    out.best_case += block_best;
    out.worst_case += block_worst;
  }
  return out;
}

std::vector<int64_t> ContradictionPruningCurve(
    const DistillationResult& result, bool best_case, int max_steps) {
  std::unordered_set<int> remaining(result.surviving.begin(),
                                    result.surviving.end());
  std::vector<int64_t> curve;
  curve.push_back(static_cast<int64_t>(remaining.size()));

  std::vector<bool> used(result.contradictions.size(), false);
  for (int step = 0; step < max_steps; ++step) {
    // Re-evaluate each unused contradiction against the remaining set.
    int best_idx = -1;
    int best_discrimination = -1;
    std::vector<std::vector<int>> best_groups;
    for (size_t ci = 0; ci < result.contradictions.size(); ++ci) {
      if (used[ci]) continue;
      std::vector<std::vector<int>> groups;
      for (const auto& g : result.contradictions[ci].groups) {
        std::vector<int> alive;
        for (int v : g) {
          if (remaining.count(v)) alive.push_back(v);
        }
        if (!alive.empty()) groups.push_back(std::move(alive));
      }
      if (groups.size() < 2) continue;  // no longer discriminative
      int discrimination = 0;
      for (const auto& g : groups) {
        discrimination = std::max(discrimination, static_cast<int>(g.size()));
      }
      if (discrimination > best_discrimination) {
        best_discrimination = discrimination;
        best_idx = static_cast<int>(ci);
        best_groups = std::move(groups);
      }
    }
    if (best_idx < 0) break;  // nothing discriminative left
    used[best_idx] = true;

    // The user keeps one side; every view agreeing with another side is
    // pruned. Best case keeps the smallest side (largest reduction), worst
    // case keeps the largest side.
    size_t keep = 0;
    for (size_t g = 1; g < best_groups.size(); ++g) {
      bool smaller = best_groups[g].size() < best_groups[keep].size();
      if (best_case ? smaller : !smaller) keep = g;
    }
    for (size_t g = 0; g < best_groups.size(); ++g) {
      if (g == keep) continue;
      for (int v : best_groups[g]) remaining.erase(v);
    }
    curve.push_back(static_cast<int64_t>(remaining.size()));
  }
  return curve;
}

}  // namespace ver
