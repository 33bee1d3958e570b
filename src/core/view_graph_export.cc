#include "core/view_graph_export.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace ver {

namespace {

const char* EdgeColor(ViewRelation r) {
  switch (r) {
    case ViewRelation::kCompatible:
      return "gray";
    case ViewRelation::kContained:
      return "blue";
    case ViewRelation::kComplementary:
      return "darkgreen";
    case ViewRelation::kContradictory:
      return "red";
  }
  return "black";
}

std::string EscapeDot(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
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

std::string ViewGraphToDot(const std::vector<View>& views,
                           const DistillationResult& distillation) {
  std::unordered_set<int> surviving(distillation.surviving.begin(),
                                    distillation.surviving.end());
  std::string dot = "graph view_distillation {\n";
  dot += "  node [shape=box, fontsize=10];\n";
  for (size_t i = 0; i < views.size(); ++i) {
    dot += "  v" + std::to_string(i) + " [label=\"" +
           EscapeDot(views[i].name()) + "\\n" +
           EscapeDot(views[i].schema().ToString()) + "\\n" +
           std::to_string(views[i].num_rows()) + " rows\"";
    if (!surviving.count(static_cast<int>(i))) {
      dot += ", style=dashed, color=gray";
    }
    dot += "];\n";
  }
  // Deduplicate parallel edges of the same category (multiple keys).
  std::set<std::string> emitted;
  for (const ViewEdge& e : distillation.edges) {
    std::string label = ViewRelationToString(e.relation);
    if (!e.key.empty()) label += " (" + KeyLabel(e.key) + ")";
    std::string dedup_key = std::to_string(e.view_a) + "-" +
                            std::to_string(e.view_b) + "-" + label;
    if (!emitted.insert(dedup_key).second) continue;
    dot += "  v" + std::to_string(e.view_a) + " -- v" +
           std::to_string(e.view_b) + " [color=" + EdgeColor(e.relation) +
           ", label=\"" + EscapeDot(label) + "\", fontsize=8];\n";
  }
  dot += "}\n";
  return dot;
}

std::string DistillationReport(const std::vector<View>& views,
                               const DistillationResult& distillation) {
  std::string out;
  out += "view distillation report\n";
  out += "  input views        : " + std::to_string(views.size()) + "\n";
  out += "  after compatible   : " +
         std::to_string(distillation.count_after_compatible) + "\n";
  out += "  after contained    : " +
         std::to_string(distillation.count_after_contained) + "\n";
  out += "  compatible pairs   : " +
         std::to_string(distillation.num_compatible_pairs) + "\n";
  out += "  contained pairs    : " +
         std::to_string(distillation.num_contained_pairs) + "\n";
  out += "  complementary pairs: " +
         std::to_string(distillation.num_complementary_pairs) + "\n";
  out += "  contradictory pairs: " +
         std::to_string(distillation.num_contradictory_pairs) + "\n";
  out += "  contradictions     : " +
         std::to_string(distillation.contradictions.size()) + "\n";

  // Contradiction digest, most discriminative first.
  std::vector<const Contradiction*> ordered;
  for (const Contradiction& c : distillation.contradictions) {
    ordered.push_back(&c);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Contradiction* a, const Contradiction* b) {
              return a->degree_of_discrimination() >
                     b->degree_of_discrimination();
            });
  int shown = 0;
  for (const Contradiction* c : ordered) {
    if (++shown > 5) break;
    out += "    key " + KeyLabel(c->key) + " = '" + c->key_value_text +
           "': " + std::to_string(c->groups.size()) + " sides, " +
           std::to_string(c->num_views()) + " views, discrimination " +
           std::to_string(c->degree_of_discrimination()) + "\n";
  }

  out += "  surviving views    :";
  for (int v : distillation.surviving) {
    out += " " + views[v].name();
  }
  out += "\n";
  return out;
}

}  // namespace ver
