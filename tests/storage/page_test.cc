#include "storage/page.h"

#include <gtest/gtest.h>

namespace irbuf::storage {
namespace {

TEST(PageIdTest, PackIsInjective) {
  PageId a{1, 2}, b{2, 1}, c{1, 3};
  EXPECT_NE(a.Pack(), b.Pack());
  EXPECT_NE(a.Pack(), c.Pack());
  EXPECT_EQ(a.Pack(), (PageId{1, 2}).Pack());
}

TEST(PageIdTest, HashSpreads) {
  PageIdHash hash;
  EXPECT_NE(hash(PageId{0, 0}), hash(PageId{0, 1}));
  EXPECT_NE(hash(PageId{1, 0}), hash(PageId{0, 1}));
}

// Postings spelled out as a vector: IsFrequencySorted is overloaded on
// std::vector<Posting> and PostingBlock, so a bare braced list would be
// ambiguous.
using PostingVec = std::vector<Posting>;

TEST(FrequencySortedTest, AcceptsValidOrder) {
  EXPECT_TRUE(IsFrequencySorted(PostingVec{}));
  EXPECT_TRUE(IsFrequencySorted(PostingVec{{5, 3}}));
  EXPECT_TRUE(
      IsFrequencySorted(PostingVec{{5, 3}, {9, 3}, {1, 2}, {2, 2}, {0, 1}}));
}

TEST(FrequencySortedTest, RejectsAscendingFreq) {
  EXPECT_FALSE(IsFrequencySorted(PostingVec{{1, 1}, {2, 2}}));
}

TEST(FrequencySortedTest, RejectsDocDisorderWithinTies) {
  EXPECT_FALSE(IsFrequencySorted(PostingVec{{9, 3}, {5, 3}}));
  EXPECT_FALSE(
      IsFrequencySorted(PostingVec{{5, 3}, {5, 3}}));  // Duplicate doc.
}

// The block overload judges the posting sequence the runs spell, like
// the AoS overload: a frequency split over adjacent runs passes when
// doc ids rise across the split.
PostingBlock Block(std::vector<DocId> docs, std::vector<PostingRun> runs) {
  PostingBlock block;
  block.doc_ids = std::move(docs);
  block.runs = std::move(runs);
  return block;
}

TEST(FrequencySortedTest, BlockAgreesWithPostingsAcrossSplitRuns) {
  const PostingBlock rising =
      Block({10, 2, 7}, {{5, 0, 1}, {3, 1, 2}, {3, 2, 3}});
  EXPECT_TRUE(IsFrequencySorted(rising.ToPostings()));
  EXPECT_TRUE(IsFrequencySorted(rising));
  const PostingBlock falling =
      Block({10, 7, 2}, {{5, 0, 1}, {3, 1, 2}, {3, 2, 3}});
  EXPECT_FALSE(IsFrequencySorted(falling.ToPostings()));
  EXPECT_FALSE(IsFrequencySorted(falling));
  const PostingBlock ascending = Block({1, 2}, {{1, 0, 1}, {2, 1, 2}});
  EXPECT_FALSE(IsFrequencySorted(ascending));
  const PostingBlock tie_disorder = Block({9, 5}, {{3, 0, 2}});
  EXPECT_FALSE(IsFrequencySorted(tie_disorder));
}

TEST(PageTest, MinMaxFreq) {
  Page page;
  EXPECT_EQ(page.MaxFreq(), 0u);
  EXPECT_EQ(page.MinFreq(), 0u);
  page.SetPostings({{1, 9}, {4, 5}, {2, 1}});
  EXPECT_EQ(page.MaxFreq(), 9u);
  EXPECT_EQ(page.MinFreq(), 1u);
}

}  // namespace
}  // namespace irbuf::storage
