#include <gtest/gtest.h>

#include <set>

#include "core/filtering_evaluator.h"
#include "test_index.h"

namespace irbuf::core {
namespace {

EvalOptions BafOptions(double c_ins = 0.07, double c_add = 0.002) {
  EvalOptions options;
  options.c_ins = c_ins;
  options.c_add = c_add;
  options.buffer_aware = true;
  options.top_n = 100;
  return options;
}

TEST(BafEvaluatorTest, FullEvalMatchesDfExactly) {
  // With filtering off, both algorithms process every posting; the
  // processing order cannot change the final accumulated scores.
  TestCollection tc = MakeRandomCollection(42, 120, 10, 4);
  Query q;
  for (TermId t = 0; t < 7; ++t) q.AddTerm(t, 1 + t % 3);

  EvalOptions df_options = BafOptions(0.0, 0.0);
  df_options.buffer_aware = false;
  FilteringEvaluator df(&tc.index, df_options);
  FilteringEvaluator baf(&tc.index, BafOptions(0.0, 0.0));

  auto pool1 = MakeBigPool(tc);
  auto pool2 = MakeBigPool(tc);
  auto rdf = df.Evaluate(q, &pool1);
  auto rbaf = baf.Evaluate(q, &pool2);
  ASSERT_TRUE(rdf.ok());
  ASSERT_TRUE(rbaf.ok());
  ASSERT_EQ(rdf.value().top_docs.size(), rbaf.value().top_docs.size());
  for (size_t i = 0; i < rdf.value().top_docs.size(); ++i) {
    EXPECT_EQ(rdf.value().top_docs[i].doc, rbaf.value().top_docs[i].doc);
    EXPECT_NEAR(rdf.value().top_docs[i].score,
                rbaf.value().top_docs[i].score, 1e-9);
  }
  EXPECT_EQ(rdf.value().disk_reads, rbaf.value().disk_reads);
}

TEST(BafEvaluatorTest, ColdStartOrderMatchesDfOrder) {
  // With nothing buffered and Smax = 0, d_t equals the list length, so
  // BAF picks shortest-list-first = decreasing idf = DF's order.
  TestCollection tc = MakeRandomCollection(9, 100, 8, 2);
  Query q;
  for (TermId t = 0; t < 8; ++t) q.AddTerm(t);

  EvalOptions df_options = BafOptions(0.0, 0.0);
  df_options.buffer_aware = false;
  FilteringEvaluator df(&tc.index, df_options);
  FilteringEvaluator baf(&tc.index, BafOptions(0.0, 0.0));

  auto pool1 = MakeBigPool(tc);
  auto pool2 = MakeBigPool(tc);
  auto rdf = df.Evaluate(q, &pool1);
  auto rbaf = baf.Evaluate(q, &pool2);
  ASSERT_TRUE(rdf.ok());
  ASSERT_TRUE(rbaf.ok());
  ASSERT_EQ(rdf.value().trace.size(), rbaf.value().trace.size());
  for (size_t i = 0; i < rdf.value().trace.size(); ++i) {
    EXPECT_EQ(rdf.value().trace[i].term, rbaf.value().trace[i].term) << i;
  }
}

TEST(BafEvaluatorTest, BufferedTermProcessedFirst) {
  // Three equal-length lists; pre-load term 2's pages into the pool. BAF
  // must process term 2 first (d_t = 0), DF would not.
  std::vector<std::vector<Posting>> lists(3);
  for (TermId t = 0; t < 3; ++t) {
    for (DocId d = 0; d < 8; ++d) {
      lists[t].push_back({d + t, 2});
    }
  }
  TestCollection tc = MakeCollection(64, 2, std::move(lists));
  buffer::BufferManager pool(&tc.index.disk(), 16,
                             buffer::MakePolicy(buffer::PolicyKind::kLru));
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool.FetchPinned(PageId{2, p}).ok());
  }

  Query q;
  q.AddTerm(0);
  q.AddTerm(1);
  q.AddTerm(2);
  FilteringEvaluator baf(&tc.index, BafOptions(0.0, 0.0));
  auto result = baf.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().trace.size(), 3u);
  EXPECT_EQ(result.value().trace[0].term, 2u);
  EXPECT_EQ(result.value().trace[0].pages_read, 0u);  // All buffered.
  EXPECT_EQ(result.value().trace[0].pages_processed, 4u);
}

TEST(BafEvaluatorTest, RefinementReadsLessThanDf) {
  // The Section 3.2.1 scenario: run a query, then refine it by adding a
  // medium-idf term while the original lists are buffered. BAF pushes the
  // new term back and reads fewer pages than DF.
  Pcg32 rng(77);
  std::vector<std::vector<Posting>> lists;
  // Five "original" terms: short-ish lists.
  for (int t = 0; t < 5; ++t) {
    std::vector<Posting> list;
    uint32_t ft = 20 + rng.NextBounded(20);
    TruncatedGeometric freq(0.5, 30);
    for (DocId d : SampleDistinct(2000, ft, &rng)) {
      list.push_back({d, freq.Sample(&rng)});
    }
    lists.push_back(std::move(list));
  }
  // The added term: long list, mid idf.
  {
    std::vector<Posting> list;
    TruncatedGeometric freq(0.6, 30);
    for (DocId d : SampleDistinct(2000, 400, &rng)) {
      list.push_back({d, freq.Sample(&rng)});
    }
    lists.push_back(std::move(list));
  }
  TestCollection tc = MakeCollection(2000, 4, std::move(lists));

  Query original;
  for (TermId t = 0; t < 5; ++t) original.AddTerm(t, 1 + t % 2);
  Query refined = original;
  refined.AddTerm(5, 1);

  auto run = [&tc, &original, &refined](bool buffer_aware) {
    EvalOptions options = BafOptions(0.2, 0.02);
    options.buffer_aware = buffer_aware;
    FilteringEvaluator evaluator(&tc.index, options);
    buffer::BufferManager pool(
        &tc.index.disk(), tc.index.total_pages() + 1,
        buffer::MakePolicy(buffer::PolicyKind::kLru));
    auto first = evaluator.Evaluate(original, &pool);
    EXPECT_TRUE(first.ok());
    auto second = evaluator.Evaluate(refined, &pool);
    EXPECT_TRUE(second.ok());
    return second.value().disk_reads;
  };

  uint64_t df_reads = run(false);
  uint64_t baf_reads = run(true);
  EXPECT_LE(baf_reads, df_reads);
  EXPECT_GT(df_reads, 0u);
}

TEST(BafEvaluatorTest, NewTermCanBeSkippedEntirely) {
  // A refinement term with tiny fmax can be skipped altogether by BAF
  // (Section 3.2.2's caveat)...
  std::vector<Posting> strong = {{0, 40}, {1, 30}};
  std::vector<Posting> weak;
  for (DocId d = 50; d < 70; ++d) weak.push_back({d, 1});
  TestCollection tc = MakeCollection(1024, 4, {strong, weak});

  Query q;
  q.AddTerm(0, 5);
  q.AddTerm(1, 1);
  {
    FilteringEvaluator baf(&tc.index, BafOptions(0.2, 0.02));
    auto pool = MakeBigPool(tc);
    auto result = baf.Evaluate(q, &pool);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().terms_skipped, 1u);
  }
  // ...unless the always-read-first-page fix is on.
  {
    EvalOptions options = BafOptions(0.2, 0.02);
    options.always_read_first_page = true;
    FilteringEvaluator baf(&tc.index, options);
    auto pool = MakeBigPool(tc);
    auto result = baf.Evaluate(q, &pool);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().terms_skipped, 0u);
    // The weak term's first page was read and contributed.
    bool weak_processed = false;
    for (const TermTrace& t : result.value().trace) {
      if (t.term == 1 && t.pages_processed >= 1) weak_processed = true;
    }
    EXPECT_TRUE(weak_processed);
  }
}

TEST(BafEvaluatorTest, EffectivenessCloseToDfUnderFiltering) {
  // Property over random collections: the BAF/DF top-20 overlap must be
  // high even with tuned (unsafe) thresholds.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    TestCollection tc = MakeRandomCollection(seed, 300, 12, 8);
    Pcg32 rng(seed);
    Query q;
    for (int i = 0; i < 8; ++i) {
      q.AddTerm(rng.NextBounded(12), 1 + rng.NextBounded(2));
    }
    EvalOptions df_options;
    df_options.top_n = 20;
    FilteringEvaluator df(&tc.index, df_options);
    EvalOptions baf_options = df_options;
    baf_options.buffer_aware = true;
    FilteringEvaluator baf(&tc.index, baf_options);

    auto pool1 = MakeBigPool(tc);
    auto pool2 = MakeBigPool(tc);
    auto rdf = df.Evaluate(q, &pool1);
    auto rbaf = baf.Evaluate(q, &pool2);
    ASSERT_TRUE(rdf.ok());
    ASSERT_TRUE(rbaf.ok());

    std::set<DocId> df_docs, baf_docs;
    for (const auto& sd : rdf.value().top_docs) df_docs.insert(sd.doc);
    for (const auto& sd : rbaf.value().top_docs) baf_docs.insert(sd.doc);
    size_t overlap = 0;
    for (DocId d : df_docs) overlap += baf_docs.count(d);
    // On a cold pool BAF's order equals DF's except for estimation error;
    // answers should agree almost perfectly.
    EXPECT_GE(overlap * 10, df_docs.size() * 8) << "seed " << seed;
  }
}

}  // namespace
}  // namespace irbuf::core
