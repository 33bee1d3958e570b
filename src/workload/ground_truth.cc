#include "workload/ground_truth.h"

#include <algorithm>

#include "engine/materializer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace ver {

Result<ColumnRef> ResolveColumn(const TableRepository& repo,
                                const std::string& table,
                                const std::string& attribute) {
  VER_ASSIGN_OR_RETURN(int32_t tid, repo.FindTable(table));
  int col = repo.table(tid).schema().IndexOf(attribute);
  if (col < 0) {
    return Status::NotFound("no attribute '" + attribute + "' in table '" +
                            table + "'");
  }
  return ColumnRef{tid, col};
}

Result<std::vector<ColumnRef>> ResolveProjection(const TableRepository& repo,
                                                 const GroundTruthQuery& gt) {
  std::vector<ColumnRef> out;
  for (size_t i = 0; i < gt.gt_tables.size(); ++i) {
    VER_ASSIGN_OR_RETURN(
        ColumnRef ref, ResolveColumn(repo, gt.gt_tables[i],
                                     gt.gt_attributes[i]));
    out.push_back(ref);
  }
  return out;
}

Result<Table> MaterializeGroundTruth(const TableRepository& repo,
                                     const GroundTruthQuery& gt) {
  VER_ASSIGN_OR_RETURN(std::vector<ColumnRef> projection,
                       ResolveProjection(repo, gt));
  JoinGraph graph;
  for (const GtJoin& j : gt.joins) {
    VER_ASSIGN_OR_RETURN(ColumnRef left,
                         ResolveColumn(repo, j.left_table, j.left_attribute));
    VER_ASSIGN_OR_RETURN(
        ColumnRef right, ResolveColumn(repo, j.right_table, j.right_attribute));
    graph.edges.push_back(JoinEdge{left, right, 1.0, 1.0});
  }
  std::vector<int32_t> mandatory;
  for (const ColumnRef& p : projection) mandatory.push_back(p.table_id);
  NormalizeJoinGraph(&graph, mandatory);
  Materializer materializer(&repo);
  MaterializeOptions options;
  return materializer.Materialize(graph, projection, options,
                                  "gt_" + gt.name);
}

namespace {

// Row set of a table: its sorted, deduplicated row-hash run (RowHashRun).
std::vector<uint64_t> RowSet(const Table& t) {
  std::vector<uint64_t> run(static_cast<size_t>(t.num_rows()));
  std::vector<int> order;
  run.resize(static_cast<size_t>(RowHashRun(t, run.data(), &order) -
                                 run.data()));
  return run;
}

}  // namespace

Result<std::vector<int>> GroundTruthMatches(const TableRepository& repo,
                                            const GroundTruthQuery& gt,
                                            const std::vector<View>& views) {
  VER_ASSIGN_OR_RETURN(std::vector<ColumnRef> projection,
                       ResolveProjection(repo, gt));
  VER_ASSIGN_OR_RETURN(Table gt_table, MaterializeGroundTruth(repo, gt));
  std::string gt_signature = gt_table.schema().CanonicalSignature();
  const std::vector<uint64_t> gt_rows = RowSet(gt_table);

  std::vector<int> matches;
  for (size_t i = 0; i < views.size(); ++i) {
    const View& v = views[i];
    if (v.HasSameProjection(projection)) {
      matches.push_back(static_cast<int>(i));
      continue;
    }
    // Content equivalence: same schema block and covers every GT row.
    if (!v.has_columns()) continue;
    if (v.schema().CanonicalSignature() != gt_signature) continue;
    const std::vector<uint64_t> rows = RowSet(v.table);
    if (std::includes(rows.begin(), rows.end(), gt_rows.begin(),
                      gt_rows.end())) {
      matches.push_back(static_cast<int>(i));
    }
  }
  return matches;
}

Result<bool> ContainsGroundTruth(const TableRepository& repo,
                                 const GroundTruthQuery& gt,
                                 const std::vector<View>& views) {
  VER_ASSIGN_OR_RETURN(std::vector<int> matches,
                       GroundTruthMatches(repo, gt, views));
  return !matches.empty();
}

}  // namespace ver
