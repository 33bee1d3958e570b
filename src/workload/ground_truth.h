// Ground-truth bookkeeping for the synthetic workloads: which PJ-view a
// query is "about", how to materialize it, and whether a candidate view set
// hits it (the Ground Truth Hit Ratio of Table V).

#ifndef VER_WORKLOAD_GROUND_TRUTH_H_
#define VER_WORKLOAD_GROUND_TRUTH_H_

#include <string>
#include <vector>

#include "engine/view.h"
#include "storage/repository.h"
#include "util/result.h"

namespace ver {

/// One join edge of a ground-truth view, by names.
struct GtJoin {
  std::string left_table;
  std::string left_attribute;
  std::string right_table;
  std::string right_attribute;
};

/// A ground-truth PJ-query: the projection that defines the desired view,
/// the joins needed to materialize it, and per-attribute noise columns
/// (columns with high Jaccard containment w.r.t. the ground-truth column,
/// used by the Medium/High noise query generators).
struct GroundTruthQuery {
  std::string name;  // "Q1".."Q5"
  std::vector<std::string> gt_tables;      // one per query attribute
  std::vector<std::string> gt_attributes;  // parallel to gt_tables
  std::vector<GtJoin> joins;               // empty for single-table views
  std::vector<std::string> noise_tables;      // parallel; may hold ""
  std::vector<std::string> noise_attributes;  // parallel; may hold ""
};

/// A generated dataset: the pathless collection plus its query workload.
struct GeneratedDataset {
  std::string name;
  TableRepository repo;
  std::vector<GroundTruthQuery> queries;
};

/// Resolves a (table, attribute) name pair to a ColumnRef.
Result<ColumnRef> ResolveColumn(const TableRepository& repo,
                                const std::string& table,
                                const std::string& attribute);

/// Resolves the ground-truth projection columns.
Result<std::vector<ColumnRef>> ResolveProjection(const TableRepository& repo,
                                                 const GroundTruthQuery& gt);

/// Materializes the ground-truth view itself (set semantics).
Result<Table> MaterializeGroundTruth(const TableRepository& repo,
                                     const GroundTruthQuery& gt);

/// Indices of candidate views that *are* the ground truth: either projected
/// from exactly the ground-truth columns, or content-equivalent (same schema
/// block, row set containing every ground-truth row). A view without
/// columns (pruned by 4C before delivery) matches only by projection; its
/// representative among the survivors holds every row it holds, so
/// ContainsGroundTruth over a whole QueryResult::views is unaffected.
Result<std::vector<int>> GroundTruthMatches(const TableRepository& repo,
                                            const GroundTruthQuery& gt,
                                            const std::vector<View>& views);

/// True when at least one view matches (Table V's hit predicate).
Result<bool> ContainsGroundTruth(const TableRepository& repo,
                                 const GroundTruthQuery& gt,
                                 const std::vector<View>& views);

}  // namespace ver

#endif  // VER_WORKLOAD_GROUND_TRUTH_H_
