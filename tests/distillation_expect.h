// Shared test helper: field-by-field equality of two DistillationResults
// (every field but the timings), for tests that check one 4C path against
// another.

#ifndef VER_TESTS_DISTILLATION_EXPECT_H_
#define VER_TESTS_DISTILLATION_EXPECT_H_

#include <gtest/gtest.h>

#include <string>

#include "core/distillation.h"

namespace ver {

inline void ExpectSameDistillation(const DistillationResult& got,
                                   const DistillationResult& want) {
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (size_t i = 0; i < got.edges.size(); ++i) {
    SCOPED_TRACE("edge " + std::to_string(i));
    EXPECT_EQ(got.edges[i].view_a, want.edges[i].view_a);
    EXPECT_EQ(got.edges[i].view_b, want.edges[i].view_b);
    EXPECT_EQ(got.edges[i].relation, want.edges[i].relation);
    EXPECT_EQ(got.edges[i].container, want.edges[i].container);
    EXPECT_EQ(got.edges[i].key, want.edges[i].key);
  }
  EXPECT_EQ(got.surviving, want.surviving);
  EXPECT_EQ(got.representative, want.representative);
  ASSERT_EQ(got.contradictions.size(), want.contradictions.size());
  for (size_t i = 0; i < got.contradictions.size(); ++i) {
    SCOPED_TRACE("contradiction " + std::to_string(i));
    EXPECT_EQ(got.contradictions[i].key, want.contradictions[i].key);
    EXPECT_EQ(got.contradictions[i].key_value_text,
              want.contradictions[i].key_value_text);
    EXPECT_EQ(got.contradictions[i].groups, want.contradictions[i].groups);
  }
  EXPECT_EQ(got.view_keys, want.view_keys);
  EXPECT_EQ(got.num_compatible_pairs, want.num_compatible_pairs);
  EXPECT_EQ(got.num_contained_pairs, want.num_contained_pairs);
  EXPECT_EQ(got.num_complementary_pairs, want.num_complementary_pairs);
  EXPECT_EQ(got.num_contradictory_pairs, want.num_contradictory_pairs);
  EXPECT_EQ(got.count_after_compatible, want.count_after_compatible);
  EXPECT_EQ(got.count_after_contained, want.count_after_contained);
}

}  // namespace ver

#endif  // VER_TESTS_DISTILLATION_EXPECT_H_
