#include "core/top_n.h"

#include <gtest/gtest.h>

#include "test_index.h"

namespace irbuf::core {
namespace {

TestCollection TwoDocCollection() {
  // doc 0: freq 3 of term 0 (idf log2(4/2)=1); doc 1: freq 1.
  // doc 2: freq 4 of term 1 (idf 1).
  return MakeCollection(4, 404,
                        {{{0, 3}, {1, 1}}, {{2, 4}, {3, 1}}});
}

TEST(TopNTest, NormalizesByDocNorm) {
  TestCollection tc = TwoDocCollection();
  AccumulatorSet acc;
  acc.Insert(0, 9.0);
  acc.Insert(1, 9.0);
  auto top = SelectTopN(acc, tc.index, 10);
  ASSERT_EQ(top.size(), 2u);
  // W_0 = 3, W_1 = 1 -> doc 1 ranks first with score 9.
  EXPECT_EQ(top[0].doc, 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 9.0);
  EXPECT_EQ(top[1].doc, 0u);
  EXPECT_DOUBLE_EQ(top[1].score, 3.0);
}

TEST(TopNTest, KeepsOnlyNBest) {
  TestCollection tc = TwoDocCollection();
  AccumulatorSet acc;
  for (DocId d = 0; d < 4; ++d) acc.Insert(d, 1.0 + d);
  auto top = SelectTopN(acc, tc.index, 2);
  EXPECT_EQ(top.size(), 2u);
  EXPECT_GE(top[0].score, top[1].score);
}

TEST(TopNTest, TiesBrokenByDocIdAscending) {
  TestCollection tc = MakeCollection(4, 404, {{{0, 1}, {1, 1}, {2, 1}}});
  AccumulatorSet acc;
  acc.Insert(2, 5.0);
  acc.Insert(0, 5.0);
  acc.Insert(1, 5.0);
  auto top = SelectTopN(acc, tc.index, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].doc, 0u);
  EXPECT_EQ(top[1].doc, 1u);
}

TEST(TopNTest, ZeroNAndEmptySet) {
  TestCollection tc = TwoDocCollection();
  AccumulatorSet acc;
  EXPECT_TRUE(SelectTopN(acc, tc.index, 5).empty());
  acc.Insert(0, 1.0);
  EXPECT_TRUE(SelectTopN(acc, tc.index, 0).empty());
}

TEST(TopNTest, ZeroNormDocsScoreZero) {
  TestCollection tc = MakeCollection(4, 404, {{{0, 1}}});
  AccumulatorSet acc;
  acc.Insert(3, 7.0);  // Doc 3 never appears in any list: norm 0.
  auto top = SelectTopN(acc, tc.index, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.0);
}

TEST(AccumulatorSetTest, BasicOperations) {
  AccumulatorSet acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.FindOrNull(3), nullptr);
  double& v = acc.Insert(3, 1.5);
  EXPECT_EQ(acc.size(), 1u);
  v += 1.0;
  ASSERT_NE(acc.FindOrNull(3), nullptr);
  EXPECT_DOUBLE_EQ(*acc.FindOrNull(3), 2.5);
  acc.Clear();
  EXPECT_TRUE(acc.empty());
}

}  // namespace
}  // namespace irbuf::core
