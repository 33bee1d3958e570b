#include "core/view_union.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/hash.h"
#include "util/string_util.h"

namespace ver {

namespace {

std::string KeyLabel(const std::vector<std::string>& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += "+";
    out += key[i];
  }
  return out;
}

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

// Merges a group of same-schema views into one table (set semantics).
// Columns are reordered to the first view's schema by attribute name.
Table MergeGroup(const std::vector<View>& views,
                 const std::vector<int>& group, const std::string& name) {
  const Table& first = views[group.front()].table;
  Table out(name, first.schema());
  std::unordered_set<uint64_t> seen;
  for (int v : group) {
    const Table& t = views[v].table;
    // Map each of the first view's columns to this view's column index.
    std::vector<int> mapping(first.num_columns(), -1);
    for (int c = 0; c < first.num_columns(); ++c) {
      mapping[c] = t.schema().IndexOf(first.schema().attribute(c).name);
    }
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      // Hash first through the typed columns (cached dictionary hashes);
      // only rows that survive dedup materialize cell views.
      uint64_t h = 0x756e696f6eULL;
      for (int c : mapping) {
        h = HashCombine(h, c >= 0 ? t.cell_hash(r, c) : kNullValueHash);
      }
      if (seen.insert(h).second) {
        std::vector<CellView> row;
        row.reserve(mapping.size());
        for (int c : mapping) {
          row.push_back(c >= 0 ? t.cell(r, c) : CellView::Null());
        }
        (void)out.AppendCells(row);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<UnionedView> UnionComplementaryViews(
    const std::vector<View>& views, const DistillationResult& distillation,
    KeyChoice choice) {
  // Block structure over surviving views.
  std::map<std::string, std::vector<int>> blocks;
  for (int v : distillation.surviving) {
    blocks[views[v].schema().CanonicalSignature()].push_back(v);
  }

  // Complementary pairs per key label.
  std::map<std::string, std::vector<std::pair<int, int>>> comp_by_key;
  std::map<std::string, std::vector<std::string>> key_by_label;
  for (const ViewEdge& e : distillation.edges) {
    if (e.relation != ViewRelation::kComplementary) continue;
    std::string label = KeyLabel(e.key);
    comp_by_key[label].push_back({e.view_a, e.view_b});
    key_by_label.emplace(label, e.key);
  }

  std::vector<UnionedView> out;
  for (const auto& [sig, members] : blocks) {
    (void)sig;
    // Candidate key labels available in this block.
    std::set<std::string> labels;
    for (int v : members) {
      for (const auto& key : distillation.view_keys[v]) {
        labels.insert(KeyLabel(key));
      }
    }

    std::unordered_map<int, int> local;
    for (size_t i = 0; i < members.size(); ++i) {
      local[members[i]] = static_cast<int>(i);
    }

    // Evaluate every key; remember the best/worst by component count.
    std::string chosen_label;
    std::vector<int> chosen_roots;
    int64_t chosen_count = -1;
    for (const std::string& label : labels) {
      UnionFind uf(static_cast<int>(members.size()));
      auto it = comp_by_key.find(label);
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
      std::vector<int> root_of(members.size());
      for (size_t i = 0; i < members.size(); ++i) {
        root_of[i] = uf.Find(static_cast<int>(i));
        roots.insert(root_of[i]);
      }
      auto count = static_cast<int64_t>(roots.size());
      bool better = chosen_count < 0 ||
                    (choice == KeyChoice::kBestCase ? count < chosen_count
                                                    : count > chosen_count);
      if (better) {
        chosen_count = count;
        chosen_label = label;
        chosen_roots = root_of;
      }
    }

    if (chosen_count < 0) {
      // No candidate keys: pass members through untouched.
      for (int v : members) {
        UnionedView uv;
        uv.table = views[v].table;
        uv.sources = {v};
        out.push_back(std::move(uv));
      }
      continue;
    }

    // Materialize the components under the chosen key.
    std::map<int, std::vector<int>> groups;
    for (size_t i = 0; i < members.size(); ++i) {
      groups[chosen_roots[i]].push_back(members[i]);
    }
    for (auto& [_, group] : groups) {
      std::sort(group.begin(), group.end());
      UnionedView uv;
      uv.sources = group;
      if (group.size() == 1) {
        uv.table = views[group.front()].table;
      } else {
        uv.key = key_by_label[chosen_label];
        std::string name = "union";
        for (int v : group) name += "_" + std::to_string(views[v].id);
        uv.table = MergeGroup(views, group, name);
      }
      out.push_back(std::move(uv));
    }
  }
  return out;
}

}  // namespace ver
