// Shared test helper: the View contract of a pipeline result.
//
// A view carries its cells if and only if it was delivered (it survived 4C
// at some point, or distillation was off). A delivered view's cells equal
// its Materializer::MaterializeView rebuild; a view without columns keeps
// the name, schema, row count and row-set signature of its rebuild.

#ifndef VER_TESTS_DELIVERY_CONTRACT_H_
#define VER_TESTS_DELIVERY_CONTRACT_H_

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/query_observer.h"
#include "core/ver.h"
#include "engine/materializer.h"

namespace ver {

/// Observer keeping a copy of every delivered view. Read it only after the
/// request finished (events fire on the thread running the request).
struct DeliveryRecorder : public QueryObserver {
  std::vector<View> views;
  void OnViewDelivered(const View& view, int, double) override {
    views.push_back(view);
  }
};

/// `v` rebuilt over `repo` from its graph and projection.
inline View RebuildView(const TableRepository& repo, const View& v) {
  Materializer materializer(&repo);
  Result<View> rebuilt = materializer.MaterializeView(
      v.graph, v.projection, MaterializeOptions(), v.id);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  return rebuilt.ok() ? std::move(rebuilt).value() : View();
}

inline std::string SchemaText(const Schema& schema) {
  std::string out;
  for (const Attribute& a : schema.attributes()) {
    out += a.name + ":" + std::to_string(static_cast<int>(a.type)) + ",";
  }
  return out;
}

/// Every delivered view carries cells equal to its rebuild.
inline void ExpectDeliveredViewsMatchRebuilds(
    const TableRepository& repo, const std::vector<View>& delivered) {
  for (const View& v : delivered) {
    SCOPED_TRACE("delivered view " + std::to_string(v.id));
    ASSERT_TRUE(v.has_columns());
    const View rebuilt = RebuildView(repo, v);
    EXPECT_EQ(v.table.ToString(v.num_rows()),
              rebuilt.table.ToString(rebuilt.num_rows()));
    EXPECT_EQ(SchemaText(v.schema()), SchemaText(rebuilt.schema()));
    EXPECT_EQ(v.row_set_signature, rebuilt.row_set_signature);
  }
}

/// The views of `result` carry columns exactly when `delivered` holds
/// them, each was delivered at most once, and every view without columns
/// keeps its rebuild's name, schema, row count and row-set signature.
inline void ExpectColumnsOnlyWhereDelivered(
    const TableRepository& repo, const QueryResult& result,
    const std::vector<View>& delivered) {
  std::set<int64_t> ids;
  for (const View& v : delivered) {
    EXPECT_TRUE(ids.insert(v.id).second) << "view " << v.id << " twice";
  }
  for (const View& v : result.views) {
    SCOPED_TRACE("view " + std::to_string(v.id));
    EXPECT_EQ(v.has_columns(), ids.count(v.id) == 1);
    if (v.has_columns()) continue;
    const View rebuilt = RebuildView(repo, v);
    EXPECT_EQ(v.name(), rebuilt.name());
    EXPECT_EQ(SchemaText(v.schema()), SchemaText(rebuilt.schema()));
    EXPECT_EQ(v.num_rows(), rebuilt.num_rows());
    EXPECT_EQ(v.row_set_signature, rebuilt.row_set_signature);
  }
}

}  // namespace ver

#endif  // VER_TESTS_DELIVERY_CONTRACT_H_
