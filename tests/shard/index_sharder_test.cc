// IndexSharder invariants: doc-range partitioning, order preservation,
// global-vs-shard-local lexicon statistics, and the shards=1 physical
// byte-identity that anchors the differential suite.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "../core/test_index.h"
#include "shard/index_sharder.h"
#include "storage/codec.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

// Decodes every page of `index`'s list for `t` into one flat vector.
std::vector<Posting> DecodeList(const index::InvertedIndex& index, TermId t) {
  std::vector<Posting> postings;
  storage::PostingBlock block;
  for (uint32_t p = 0; p < index.disk().NumPages(t); ++p) {
    auto image = index.disk().PageImage(PageId{t, p});
    EXPECT_TRUE(image.ok());
    EXPECT_TRUE(storage::DecodePostingsInto(*image.value(), &block).ok());
    const std::vector<Posting> page = block.ToPostings();
    postings.insert(postings.end(), page.begin(), page.end());
  }
  return postings;
}

TEST(IndexSharderTest, RejectsDegenerateOptions) {
  TestCollection tc = MakeRandomCollection(7, 50, 5, 8);
  shard::ShardOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_FALSE(shard::ShardIndex(tc.index, zero_shards).ok());
  shard::ShardOptions zero_page;
  zero_page.page_size = 0;
  EXPECT_FALSE(shard::ShardIndex(tc.index, zero_page).ok());
}

TEST(IndexSharderTest, DocRangesPartitionTheCollection) {
  TestCollection tc = MakeRandomCollection(11, 103, 8, 8);
  for (size_t num_shards : {1u, 2u, 3u, 4u, 8u}) {
    shard::ShardOptions options;
    options.num_shards = num_shards;
    options.page_size = 8;
    auto sharded = shard::ShardIndex(tc.index, options);
    ASSERT_TRUE(sharded.ok());
    const shard::ShardedIndex& si = sharded.value();
    ASSERT_EQ(si.num_shards(), num_shards);
    // Ranges are contiguous, disjoint, and cover [0, N).
    EXPECT_EQ(si.doc_begin(0), 0u);
    for (size_t s = 0; s + 1 < num_shards; ++s) {
      EXPECT_EQ(si.doc_end(s), si.doc_begin(s + 1));
    }
    EXPECT_EQ(si.doc_end(num_shards - 1), si.num_docs());
    // ShardOf agrees with the ranges.
    for (DocId d = 0; d < si.num_docs(); ++d) {
      const size_t s = si.ShardOf(d);
      EXPECT_GE(d, si.doc_begin(s));
      EXPECT_LT(d, si.doc_end(s));
    }
  }
}

TEST(IndexSharderTest, ShardListsAreOrderPreservingDocRangeFilters) {
  TestCollection tc = MakeRandomCollection(13, 120, 10, 8);
  shard::ShardOptions options;
  options.num_shards = 3;
  options.page_size = 5;  // Deliberately different from the source's.
  auto sharded = shard::ShardIndex(tc.index, options);
  ASSERT_TRUE(sharded.ok());
  const shard::ShardedIndex& si = sharded.value();

  for (TermId t = 0; t < tc.index.lexicon().size(); ++t) {
    const std::vector<Posting> source = DecodeList(tc.index, t);
    for (size_t s = 0; s < si.num_shards(); ++s) {
      // Expected: the source list filtered to the shard's doc range,
      // order preserved.
      std::vector<Posting> expected;
      for (const Posting& p : source) {
        if (si.ShardOf(p.doc) == s) expected.push_back(p);
      }
      const std::vector<Posting> actual = DecodeList(si.shard(s), t);
      ASSERT_EQ(actual.size(), expected.size())
          << "term " << t << " shard " << s;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].doc, expected[i].doc);
        EXPECT_EQ(actual[i].freq, expected[i].freq);
      }
    }
  }
}

TEST(IndexSharderTest, GlobalStatsStayGlobalAndLocalStatsTurnLocal) {
  TestCollection tc = MakeRandomCollection(17, 90, 8, 8);
  shard::ShardOptions options;
  options.num_shards = 4;
  options.page_size = 8;
  auto sharded = shard::ShardIndex(tc.index, options);
  ASSERT_TRUE(sharded.ok());
  const shard::ShardedIndex& si = sharded.value();

  const index::Lexicon& global = tc.index.lexicon();
  for (TermId t = 0; t < global.size(); ++t) {
    const index::TermInfo& src = global.info(t);
    // The coordinator's lexicon is the source's, verbatim.
    EXPECT_EQ(si.lexicon().info(t).idf, src.idf);
    EXPECT_EQ(si.lexicon().info(t).fmax, src.fmax);
    EXPECT_EQ(si.lexicon().info(t).pages, src.pages);

    uint32_t fmax_over_shards = 0;
    uint32_t postings = 0;
    for (size_t s = 0; s < si.num_shards(); ++s) {
      const index::TermInfo& info = si.shard(s).lexicon().info(t);
      // idf/ft remain GLOBAL in every shard (scores depend on them).
      EXPECT_EQ(info.idf, src.idf);
      EXPECT_EQ(info.ft, src.ft);
      // pages is shard-local and consistent with the shard's disk.
      EXPECT_EQ(info.pages, si.shard(s).disk().NumPages(t));
      EXPECT_LE(info.fmax, src.fmax);
      fmax_over_shards = std::max(fmax_over_shards, info.fmax);
      postings += static_cast<uint32_t>(DecodeList(si.shard(s), t).size());
    }
    // Global fmax is recovered as the max over shards, and no posting
    // is lost or duplicated.
    EXPECT_EQ(fmax_over_shards, src.fmax);
    EXPECT_EQ(postings, static_cast<uint32_t>(DecodeList(tc.index, t).size()));
  }

  // Every shard carries the full global norm vector.
  for (size_t s = 0; s < si.num_shards(); ++s) {
    ASSERT_EQ(si.shard(s).num_docs(), tc.index.num_docs());
    for (DocId d = 0; d < tc.index.num_docs(); ++d) {
      EXPECT_EQ(si.shard(s).doc_norm(d), tc.index.doc_norm(d));
    }
  }
}

TEST(IndexSharderTest, SingleShardAtSourcePageSizeIsByteIdentical) {
  const uint32_t page_size = 8;
  TestCollection tc = MakeRandomCollection(19, 80, 6, page_size);
  shard::ShardOptions options;
  options.num_shards = 1;
  options.page_size = page_size;
  auto sharded = shard::ShardIndex(tc.index, options);
  ASSERT_TRUE(sharded.ok());
  const index::InvertedIndex& shard0 = sharded.value().shard(0);

  ASSERT_EQ(shard0.total_pages(), tc.index.total_pages());
  for (TermId t = 0; t < tc.index.lexicon().size(); ++t) {
    ASSERT_EQ(shard0.disk().NumPages(t), tc.index.disk().NumPages(t));
    for (uint32_t p = 0; p < tc.index.disk().NumPages(t); ++p) {
      auto source_image = tc.index.disk().PageImage(PageId{t, p});
      auto shard_image = shard0.disk().PageImage(PageId{t, p});
      ASSERT_TRUE(source_image.ok());
      ASSERT_TRUE(shard_image.ok());
      // Same chunking -> same encoded images, byte for byte.
      EXPECT_EQ(*shard_image.value(), *source_image.value())
          << "term " << t << " page " << p;
    }
  }
}

TEST(IndexSharderTest, MoreShardsThanDocsLeavesSurplusShardsEmpty) {
  TestCollection tc = MakeRandomCollection(23, 3, 4, 4);
  shard::ShardOptions options;
  options.num_shards = 8;
  auto sharded = shard::ShardIndex(tc.index, options);
  ASSERT_TRUE(sharded.ok());
  const shard::ShardedIndex& si = sharded.value();
  ASSERT_EQ(si.num_shards(), 8u);
  uint64_t pages = 0;
  for (size_t s = 0; s < si.num_shards(); ++s) {
    if (si.doc_begin(s) >= si.num_docs()) {
      EXPECT_EQ(si.shard(s).total_pages(), 0u);
    }
    pages += si.shard(s).total_pages();
  }
  EXPECT_GT(pages, 0u);
}

}  // namespace
}  // namespace irbuf
