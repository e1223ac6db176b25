// Golden differentials for the scatter-gather engine: the sharded
// ranking must equal the unsharded evaluator's BIT FOR BIT (exact
// double equality, not tolerance), across {DF warm sequences, BAF cold
// queries} x {LRU, RAP, FIFO, CLOCK} x shard counts, and under the
// term-level controls (term budget, deadline) — and at shards=1 the
// whole QueryServer response (counters and trace included) must be
// byte-identical to the legacy single-pool serving path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

constexpr uint32_t kPageSize = 4;
constexpr buffer::PolicyKind kPolicies[] = {
    buffer::PolicyKind::kLru, buffer::PolicyKind::kRap,
    buffer::PolicyKind::kFifo, buffer::PolicyKind::kClock};

// A deterministic refinement-ish sequence of multi-term queries of
// min_width .. min_width + 2 terms.
std::vector<core::Query> MakeQueries(const TestCollection& tc, uint64_t seed,
                                     size_t count, uint32_t min_width = 2) {
  Pcg32 rng(seed);
  const uint32_t num_terms =
      static_cast<uint32_t>(tc.index.lexicon().size());
  std::vector<core::Query> queries;
  for (size_t i = 0; i < count; ++i) {
    core::Query q;
    const uint32_t width = min_width + rng.NextBounded(3);
    for (TermId t : SampleDistinct(num_terms, width, &rng)) {
      q.AddTerm(t, 1 + rng.NextBounded(2));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<core::ScoredDoc>& sharded,
                        const std::vector<core::ScoredDoc>& reference,
                        const std::string& what) {
  ASSERT_EQ(sharded.size(), reference.size()) << what;
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].doc, reference[i].doc) << what << " rank " << i;
    // Exact FP equality — the whole point of the barrier design.
    EXPECT_EQ(sharded[i].score, reference[i].score) << what << " rank " << i;
  }
}

shard::ShardedEngineOptions EngineOptions(buffer::PolicyKind policy,
                                          bool buffer_aware) {
  shard::ShardedEngineOptions options;
  options.eval.buffer_aware = buffer_aware;
  options.pool.total_pages = 16;
  options.pool.policy = policy;
  return options;
}

// ---- DF: warm sequences, every policy, several shard counts. ----

TEST(ShardedGoldenTest, DfWarmSequencesMatchUnshardedBitForBit) {
  TestCollection tc = MakeRandomCollection(31, 160, 12, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 77, 6);
  core::EvalOptions eval;  // DF

  for (buffer::PolicyKind policy : kPolicies) {
    // Unsharded reference: one pool warmed across the whole sequence.
    buffer::BufferManager reference_pool(&tc.index.disk(), 16,
                                         buffer::MakePolicy(policy));
    core::FilteringEvaluator reference(&tc.index, eval);
    std::vector<std::vector<core::ScoredDoc>> expected;
    for (const core::Query& q : queries) {
      auto result = reference.Evaluate(q, &reference_pool);
      ASSERT_TRUE(result.ok());
      expected.push_back(std::move(result.value().top_docs));
    }

    for (size_t num_shards : {1u, 2u, 3u, 4u}) {
      shard::ShardOptions sharding;
      sharding.num_shards = num_shards;
      sharding.page_size = kPageSize;
      auto sharded = shard::ShardIndex(tc.index, sharding);
      ASSERT_TRUE(sharded.ok());
      shard::ShardedEngine engine(&sharded.value(),
                                  EngineOptions(policy, false));
      for (size_t i = 0; i < queries.size(); ++i) {
        auto result = engine.Evaluate(queries[i], nullptr, 0);
        ASSERT_TRUE(result.ok());
        ExpectBitIdentical(
            result.value().top_docs, expected[i],
            "DF policy " + std::to_string(static_cast<int>(policy)) +
                " shards " + std::to_string(num_shards) + " query " +
                std::to_string(i));
      }
    }
  }
}

// ---- BAF: cold single queries, every policy. Both paths see b_t = 0
// for every unprocessed term throughout, so the buffer-aware order (and
// hence everything downstream) coincides. ----

TEST(ShardedGoldenTest, BafColdQueriesMatchUnshardedBitForBit) {
  TestCollection tc = MakeRandomCollection(37, 140, 10, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 101, 5);
  core::EvalOptions eval;
  eval.buffer_aware = true;

  for (buffer::PolicyKind policy : kPolicies) {
    for (size_t num_shards : {1u, 2u, 4u}) {
      shard::ShardOptions sharding;
      sharding.num_shards = num_shards;
      sharding.page_size = kPageSize;
      auto sharded = shard::ShardIndex(tc.index, sharding);
      ASSERT_TRUE(sharded.ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        // Fresh pools on both sides: the cold-start contract.
        buffer::BufferManager reference_pool(&tc.index.disk(), 16,
                                             buffer::MakePolicy(policy));
        core::FilteringEvaluator reference(&tc.index, eval);
        auto expected = reference.Evaluate(queries[i], &reference_pool);
        ASSERT_TRUE(expected.ok());

        shard::ShardedEngine engine(&sharded.value(),
                                    EngineOptions(policy, true));
        auto result = engine.Evaluate(queries[i], nullptr, 0);
        ASSERT_TRUE(result.ok());
        ExpectBitIdentical(
            result.value().top_docs, expected.value().top_docs,
            "BAF policy " + std::to_string(static_cast<int>(policy)) +
                " shards " + std::to_string(num_shards) + " query " +
                std::to_string(i));
      }
    }
  }
}

// ---- Term-level controls: the term budget (EvalControl::max_terms)
// and the deadline probe must cut both paths at the same term boundary,
// forfeit the same terms into quality_bound and leave the same trace.
// A counter clock makes the deadline pass after exactly k boundaries on
// either side; pools are cold, so BAF's order is shard-invariant too.
// max_pages_per_term stays off: it caps shard-local pages. ----

uint64_t g_clock_us = 0;
uint64_t CountingClock() { return g_clock_us++; }

TEST(ShardedGoldenTest, TermBudgetAndDeadlineCutsMatchUnsharded) {
  TestCollection tc = MakeRandomCollection(53, 160, 12, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 211, 5, 4);
  struct Cut {
    uint32_t max_terms;
    uint64_t deadline_after;  // Term boundaries before it passes; 0 = none.
  };
  // Budget only, deadline only (early and late), and both armed so the
  // budget fires first at a boundary where the clock is never read.
  const Cut cuts[] = {{2, 0}, {0, 1}, {0, 3}, {2, 3}};
  size_t trimmed = 0;
  size_t deadlines = 0;

  for (bool buffer_aware : {false, true}) {
    core::EvalOptions eval;
    eval.buffer_aware = buffer_aware;
    core::FilteringEvaluator reference(&tc.index, eval);
    for (size_t num_shards : {1u, 2u, 3u, 4u}) {
      shard::ShardOptions sharding;
      sharding.num_shards = num_shards;
      sharding.page_size = kPageSize;
      auto sharded = shard::ShardIndex(tc.index, sharding);
      ASSERT_TRUE(sharded.ok());
      for (const Cut& cut : cuts) {
        core::EvalControl control;
        control.now_us = &CountingClock;
        control.max_terms = cut.max_terms;
        control.deadline_us = cut.deadline_after;
        for (size_t i = 0; i < queries.size(); ++i) {
          const std::string what =
              std::string(buffer_aware ? "BAF" : "DF") + " shards " +
              std::to_string(num_shards) + " max_terms " +
              std::to_string(cut.max_terms) + " deadline " +
              std::to_string(cut.deadline_after) + " query " +
              std::to_string(i);
          buffer::BufferManager reference_pool(
              &tc.index.disk(), 16,
              buffer::MakePolicy(buffer::PolicyKind::kRap));
          g_clock_us = 0;
          auto expected = reference.Evaluate(queries[i], &reference_pool,
                                             &control);
          ASSERT_TRUE(expected.ok()) << what;

          shard::ShardedEngine engine(
              &sharded.value(),
              EngineOptions(buffer::PolicyKind::kRap, buffer_aware));
          g_clock_us = 0;
          auto result = engine.Evaluate(queries[i], &control, 0);
          ASSERT_TRUE(result.ok()) << what;

          const core::EvalResult& want = expected.value();
          const core::EvalResult& got = result.value();
          trimmed += want.work_trimmed ? 1 : 0;
          deadlines += want.deadline_hit ? 1 : 0;
          ExpectBitIdentical(got.top_docs, want.top_docs, what);
          EXPECT_EQ(got.quality_bound, want.quality_bound) << what;
          EXPECT_EQ(got.work_trimmed, want.work_trimmed) << what;
          EXPECT_EQ(got.deadline_hit, want.deadline_hit) << what;
          EXPECT_EQ(got.degraded, want.degraded) << what;
          EXPECT_EQ(got.terms_skipped, want.terms_skipped) << what;
          ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
          for (size_t j = 0; j < got.trace.size(); ++j) {
            const core::TermTrace& g = got.trace[j];
            const core::TermTrace& w = want.trace[j];
            EXPECT_EQ(g.term, w.term) << what << " row " << j;
            EXPECT_EQ(g.idf, w.idf) << what << " row " << j;
            EXPECT_EQ(g.smax_before, w.smax_before) << what << " row " << j;
            EXPECT_EQ(g.smax_after, w.smax_after) << what << " row " << j;
            EXPECT_EQ(g.f_ins, w.f_ins) << what << " row " << j;
            EXPECT_EQ(g.f_add, w.f_add) << what << " row " << j;
            EXPECT_EQ(g.skipped, w.skipped) << what << " row " << j;
            if (num_shards == 1) {
              // One shard at the source page size is the source index,
              // so the page and posting counters agree as well.
              EXPECT_EQ(g.total_pages, w.total_pages) << what << " row " << j;
              EXPECT_EQ(g.pages_processed, w.pages_processed)
                  << what << " row " << j;
              EXPECT_EQ(g.pages_read, w.pages_read) << what << " row " << j;
              EXPECT_EQ(g.postings_processed, w.postings_processed)
                  << what << " row " << j;
            }
          }
        }
      }
    }
  }
  // Both cuts actually fired somewhere (the queries are wide enough).
  EXPECT_GT(trimmed, 0u);
  EXPECT_GT(deadlines, 0u);
}

// ---- Shared-context RAP: each shard pool's merge of its live query
// leases must not change the (DF) ranking either. ----

TEST(ShardedGoldenTest, SharedContextDfStillMatches) {
  TestCollection tc = MakeRandomCollection(41, 120, 10, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 55, 4);
  core::EvalOptions eval;

  buffer::BufferManager reference_pool(
      &tc.index.disk(), 16, buffer::MakePolicy(buffer::PolicyKind::kRap));
  core::FilteringEvaluator reference(&tc.index, eval);

  shard::ShardOptions sharding;
  sharding.num_shards = 4;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());
  shard::ShardedEngineOptions options =
      EngineOptions(buffer::PolicyKind::kRap, false);
  options.shared_context = true;
  options.lanes_per_shard = 2;
  shard::ShardedEngine engine(&sharded.value(), options);

  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = reference.Evaluate(queries[i], &reference_pool);
    auto result = engine.Evaluate(queries[i], nullptr, 0);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(result.value().top_docs, expected.value().top_docs,
                       "shared-context query " + std::to_string(i));
  }
}

// ---- shards=1 through the server: the engine-routed QueryServer must
// reproduce the legacy single-pool path byte for byte — ranking,
// counters and the per-term trace. ----

TEST(ShardedGoldenTest, SingleShardServerResponseByteIdenticalToLegacy) {
  TestCollection tc = MakeRandomCollection(43, 150, 10, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 203, 8);

  serve::ServerOptions legacy;
  legacy.num_threads = 1;
  legacy.buffer_pages = 16;
  legacy.policy = buffer::PolicyKind::kRap;
  serve::QueryServer legacy_server(&tc.index, legacy);
  legacy_server.Start();

  shard::ShardOptions sharding;
  sharding.num_shards = 1;
  sharding.page_size = kPageSize;  // Source page size: byte-identical shard.
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());
  shard::ShardedEngineOptions engine_options =
      EngineOptions(buffer::PolicyKind::kRap, false);
  shard::ShardedEngine engine(&sharded.value(), engine_options);

  serve::ServerOptions routed;
  routed.num_threads = 1;
  routed.engine = &engine;
  serve::QueryServer routed_server(&tc.index, routed);
  routed_server.Start();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto legacy_response = legacy_server.Execute(1, queries[i]);
    auto routed_response = routed_server.Execute(1, queries[i]);
    ASSERT_TRUE(legacy_response.ok());
    ASSERT_TRUE(routed_response.ok());
    const core::EvalResult& want = legacy_response.value().eval;
    const core::EvalResult& got = routed_response.value().eval;

    ExpectBitIdentical(got.top_docs, want.top_docs,
                       "server query " + std::to_string(i));
    EXPECT_EQ(got.disk_reads, want.disk_reads);
    EXPECT_EQ(got.pages_processed, want.pages_processed);
    EXPECT_EQ(got.postings_processed, want.postings_processed);
    EXPECT_EQ(got.accumulators, want.accumulators);
    EXPECT_EQ(got.terms_skipped, want.terms_skipped);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.deadline_hit, want.deadline_hit);
    EXPECT_EQ(got.quality_bound, want.quality_bound);
    ASSERT_EQ(got.trace.size(), want.trace.size());
    for (size_t j = 0; j < got.trace.size(); ++j) {
      EXPECT_EQ(got.trace[j].term, want.trace[j].term);
      EXPECT_EQ(got.trace[j].idf, want.trace[j].idf);
      EXPECT_EQ(got.trace[j].total_pages, want.trace[j].total_pages);
      EXPECT_EQ(got.trace[j].smax_before, want.trace[j].smax_before);
      EXPECT_EQ(got.trace[j].smax_after, want.trace[j].smax_after);
      EXPECT_EQ(got.trace[j].f_ins, want.trace[j].f_ins);
      EXPECT_EQ(got.trace[j].f_add, want.trace[j].f_add);
      EXPECT_EQ(got.trace[j].pages_processed, want.trace[j].pages_processed);
      EXPECT_EQ(got.trace[j].pages_read, want.trace[j].pages_read);
      EXPECT_EQ(got.trace[j].postings_processed,
                want.trace[j].postings_processed);
      EXPECT_EQ(got.trace[j].skipped, want.trace[j].skipped);
      EXPECT_EQ(got.trace[j].pages_lost, want.trace[j].pages_lost);
    }
  }

  // Identical decisions -> identical pool stats, shard prefix aside.
  const buffer::BufferStats legacy_stats =
      legacy_server.PoolStatsSnapshot();
  const buffer::BufferStats routed_stats =
      routed_server.PoolStatsSnapshot();
  EXPECT_EQ(routed_stats.fetches, legacy_stats.fetches);
  EXPECT_EQ(routed_stats.hits, legacy_stats.hits);
  EXPECT_EQ(routed_stats.misses, legacy_stats.misses);
  EXPECT_EQ(routed_stats.evictions, legacy_stats.evictions);
}

// ---- Multi-shard ranking still agrees with ground truth. ----

TEST(ShardedGoldenTest, ShardedRankingMatchesBruteForceOnLooseThresholds) {
  TestCollection tc = MakeRandomCollection(47, 100, 8, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 19, 5);

  shard::ShardOptions sharding;
  sharding.num_shards = 4;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());
  shard::ShardedEngineOptions options =
      EngineOptions(buffer::PolicyKind::kLru, false);
  // Thresholds off: the filtered evaluation degenerates to exact
  // cosine, so the merged answer must equal brute force exactly.
  options.eval.c_ins = 0.0;
  options.eval.c_add = 0.0;
  shard::ShardedEngine engine(&sharded.value(), options);

  for (const core::Query& q : queries) {
    auto result = engine.Evaluate(q, nullptr, 0);
    ASSERT_TRUE(result.ok());
    const std::vector<core::ScoredDoc> truth =
        BruteForceRanking(tc, q, options.eval.top_n);
    ASSERT_EQ(result.value().top_docs.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(result.value().top_docs[i].doc, truth[i].doc);
      EXPECT_NEAR(result.value().top_docs[i].score, truth[i].score, 1e-9);
    }
  }
}

}  // namespace
}  // namespace irbuf
