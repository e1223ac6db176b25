// Prefetch-vs-policy differential suite: across {LRU, RAP, CLOCK, FIFO}
// the async miss pipeline must be invisible to everything that matters —
// rankings are bit-identical with readahead on or off (a plan is a pure
// hint; every page still arrives through FetchPinned), and the
// replacement policy's victim choices are undistorted by prefetch-tagged
// frames it was never told about (no OnInsert until a demand touch).
// The hint filter is pinned here too: resident pages never reach the
// readahead queue, and every hinted page is counted as exactly one of
// queued, skipped or dropped.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../buffer/test_disk.h"
#include "../core/test_index.h"
#include "buffer/policy_factory.h"
#include "core/filtering_evaluator.h"
#include "fault/backoff.h"
#include "obs/metrics.h"
#include "serve/concurrent_buffer_pool.h"
#include "util/zipf.h"

namespace irbuf::serve {
namespace {

using buffer::PolicyKind;

constexpr PolicyKind kPolicies[] = {PolicyKind::kLru, PolicyKind::kRap,
                                    PolicyKind::kClock, PolicyKind::kFifo};

const char* Name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "LRU";
    case PolicyKind::kRap: return "RAP";
    case PolicyKind::kClock: return "CLOCK";
    case PolicyKind::kFifo: return "FIFO";
    default: return "?";
  }
}

/// Bounded wait on an asynchronous pool condition (readahead runs on
/// background workers; tests must not assert mid-flight).
template <typename Pred>
void WaitUntil(Pred pred, const char* what) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return;
    fault::SleepUs(1000);
  }
  FAIL() << "timed out waiting for " << what;
}

/// Asserts the pool's hint-outcome counters, and that they account for
/// every hinted page exactly once.
void ExpectHints(const obs::MetricsRegistry& registry, size_t hinted,
                 uint64_t queued, uint64_t skipped, uint64_t dropped) {
  const uint64_t q =
      registry.FindCounter("buffer.prefetch_hints_queued")->value();
  const uint64_t s =
      registry.FindCounter("buffer.prefetch_hints_skipped")->value();
  const uint64_t d =
      registry.FindCounter("buffer.prefetch_hints_dropped")->value();
  EXPECT_EQ(q, queued);
  EXPECT_EQ(s, skipped);
  EXPECT_EQ(d, dropped);
  EXPECT_EQ(q + s + d, hinted);
}

// (a) Rankings are bit-identical with readahead on vs off, for every
// policy. DF evaluation is buffer-state independent, so any divergence
// here means a prefetched page's CONTENT differed from the demand-read
// page — exactly the corruption the pipeline must never introduce.
TEST(PrefetchPolicyTest, RankingsBitIdenticalPrefetchOnOff) {
  core::TestCollection tc = core::MakeRandomCollection(321, 300, 10, 3);
  Pcg32 rng(5);
  std::vector<core::Query> queries;
  for (int i = 0; i < 12; ++i) {
    core::Query q;
    for (TermId t : SampleDistinct(10, 2 + rng.NextBounded(3), &rng)) {
      q.AddTerm(t, 1 + rng.NextBounded(2));
    }
    queries.push_back(std::move(q));
  }
  core::EvalOptions eval;
  core::FilteringEvaluator evaluator(&tc.index, eval);

  for (PolicyKind kind : kPolicies) {
    SCOPED_TRACE(Name(kind));
    ConcurrentPoolOptions off;
    off.capacity = 12;
    off.policy = kind;
    ConcurrentPoolOptions on = off;
    on.prefetch_depth = 4;
    ConcurrentBufferPool pool_off(&tc.index.disk(), off);
    ConcurrentBufferPool pool_on(&tc.index.disk(), on);

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto a = evaluator.Evaluate(queries[qi], &pool_off);
      auto b = evaluator.Evaluate(queries[qi], &pool_on);
      ASSERT_TRUE(a.ok()) << a.status().message();
      ASSERT_TRUE(b.ok()) << b.status().message();
      ASSERT_EQ(a.value().top_docs.size(), b.value().top_docs.size())
          << "query " << qi;
      for (size_t r = 0; r < a.value().top_docs.size(); ++r) {
        EXPECT_EQ(a.value().top_docs[r].doc, b.value().top_docs[r].doc)
            << "query " << qi << " rank " << r;
        EXPECT_EQ(a.value().top_docs[r].score, b.value().top_docs[r].score)
            << "query " << qi << " rank " << r;  // Bitwise, no tolerance.
      }
      EXPECT_EQ(a.value().quality_bound, b.value().quality_bound);
      EXPECT_EQ(a.value().degraded, b.value().degraded);
    }
  }
}

// (b) Victim-choice integrity: the policy never learns prefetch-tagged
// frames, so over the SAME demand stream and the SAME number of
// policy-managed frames the victim sequence is identical whether or not
// a readahead window occupies the rest of the pool. The off-pool gets
// capacity 4; the on-pool gets capacity 8 whose 4 extra frames are
// filled by readahead pages of a term the demand stream never touches
// (the window cap for depth 2 is min(2*2, 8/2) = 4, so none of them is
// ever reclaimed either).
TEST(PrefetchPolicyTest, VictimSequenceUndistortedByUntouchedPrefetch) {
  for (PolicyKind kind : kPolicies) {
    SCOPED_TRACE(Name(kind));
    auto disk_off = buffer::MakeTestDisk({8, 4});
    auto disk_on = buffer::MakeTestDisk({8, 4});

    ConcurrentPoolOptions off;
    off.capacity = 4;
    off.policy = kind;
    ConcurrentBufferPool pool_off(disk_off.get(), off);

    ConcurrentPoolOptions on;
    on.capacity = 8;
    on.policy = kind;
    on.prefetch_depth = 2;
    ConcurrentBufferPool pool_on(disk_on.get(), on);

    buffer::QueryLease lease_off;
    buffer::QueryLease lease_on;
    if (kind == PolicyKind::kRap) {
      buffer::QueryContext ctx;
      ctx.SetWeight(0, 2.0);
      lease_off = pool_off.BeginQuery(ctx);
      lease_on = pool_on.BeginQuery(std::move(ctx));
    }

    std::vector<PageId> victims_off;
    std::vector<PageId> victims_on;
    pool_off.SetEvictionObserver([&](PageId id, bool policy_victim) {
      if (policy_victim) victims_off.push_back(id);
    });
    pool_on.SetEvictionObserver([&](PageId id, bool policy_victim) {
      if (policy_victim) victims_on.push_back(id);
    });

    // Park term-1 readahead in the on-pool's spare frames; the demand
    // stream below never touches term 1.
    std::vector<PageId> plan;
    for (uint32_t p = 0; p < 4; ++p) plan.push_back(PageId{1, p});
    pool_on.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
    WaitUntil(
        [&] {
          return pool_on.PrefetchStatsSnapshot().issued == 4 &&
                 pool_on.ResidentPages(1) == 4;
        },
        "the term-1 readahead to publish");

    // Identical demand stream on both pools: re-references over 8
    // term-0 pages against 4 policy frames, forcing steady evictions.
    Pcg32 rng(17);
    for (int i = 0; i < 200; ++i) {
      const PageId id{0, rng.NextBounded(8)};
      auto a = pool_off.FetchPinned(id);
      auto b = pool_on.FetchPinned(id);
      ASSERT_TRUE(a.ok()) << a.status().message();
      ASSERT_TRUE(b.ok()) << b.status().message();
      EXPECT_EQ(a.value().was_miss(), b.value().was_miss()) << "fetch " << i;
    }

    ASSERT_EQ(victims_off.size(), victims_on.size());
    ASSERT_GT(victims_off.size(), 0u);  // The stream must evict at all.
    for (size_t i = 0; i < victims_off.size(); ++i) {
      EXPECT_EQ(victims_on[i].term, victims_off[i].term) << "victim " << i;
      EXPECT_EQ(victims_on[i].page_no, victims_off[i].page_no)
          << "victim " << i;
      // A tagged frame the policy never saw must never be its victim.
      EXPECT_EQ(victims_on[i].term, 0u) << "victim " << i;
    }

    // The window was never demand-touched: nothing promoted, nothing
    // reclaimed, all four term-1 pages still parked.
    const PoolPrefetchStats ps = pool_on.PrefetchStatsSnapshot();
    EXPECT_EQ(ps.issued, 4u);
    EXPECT_EQ(ps.used, 0u);
    EXPECT_EQ(ps.wasted, 0u);
    EXPECT_EQ(pool_on.ResidentPages(1), 4u);
  }
}

// A demand touch promotes a tagged frame: the policy learns it (as an
// insert), prefetch_used counts it, and the fetch is a hit that never
// reached the device.
TEST(PrefetchPolicyTest, DemandTouchPromotesPrefetchedFrame) {
  auto disk = buffer::MakeTestDisk({6});
  ConcurrentPoolOptions opts;
  opts.capacity = 8;
  opts.prefetch_depth = 2;
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<PageId> plan = {PageId{0, 2}, PageId{0, 3}};
  pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().issued == 2; },
            "the readahead to publish");
  const uint64_t reads_before = disk->stats().reads;

  auto r = pool.FetchPinned(PageId{0, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().was_miss());  // Resident: a hit, no device read.
  EXPECT_EQ(disk->stats().reads, reads_before);

  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(ps.used, 1u);
  EXPECT_EQ(ps.wasted, 0u);
  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

// The bounded window self-reclaims: readahead beyond the window cap
// evicts the OLDEST tagged frame (counted wasted, no policy callback),
// never an untagged one, so readahead cannot consume more than its
// share of the pool no matter how long the plan is.
TEST(PrefetchPolicyTest, WindowOverflowReclaimsOldestTaggedOnly) {
  auto disk = buffer::MakeTestDisk({12});
  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.prefetch_depth = 2;  // Window cap = min(4, 8) = 4.
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<std::pair<PageId, bool>> evictions;
  pool.SetEvictionObserver([&](PageId id, bool policy_victim) {
    evictions.push_back({id, policy_victim});
  });

  std::vector<PageId> plan;
  for (uint32_t p = 0; p < 10; ++p) plan.push_back(PageId{0, p});
  pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().issued == 10; },
            "the whole plan to be read");
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().wasted == 6; },
            "window overflow reclaims");
  // wasted is counted before the observer runs, so the last append may
  // still be in progress. Clearing the observer takes the pool latch the
  // observer runs under, which orders every append before the reads.
  pool.SetEvictionObserver(nullptr);

  // 10 readaheads through a 4-frame window: 6 reclaimed, oldest first,
  // every one a non-policy eviction.
  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(ps.issued, 10u);
  EXPECT_EQ(ps.wasted, 6u);
  EXPECT_EQ(ps.used, 0u);
  for (const auto& [id, policy_victim] : evictions) {
    EXPECT_FALSE(policy_victim) << "page " << id.page_no;
  }
  EXPECT_EQ(pool.ResidentPages(0), 4u);  // Exactly the window survives.
}

// A plan over a full, resident pool is filtered at the hint: nothing is
// queued, so no I/O worker wakes and the device is never touched.
TEST(PrefetchPolicyTest, ResidentPlanQueuesNothing) {
  auto disk = buffer::MakeTestDisk({8});
  ConcurrentPoolOptions opts;
  opts.capacity = 8;
  opts.prefetch_depth = 4;
  obs::MetricsRegistry registry;  // Outlives the pool's I/O workers.
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);

  std::vector<PageId> plan;
  for (uint32_t p = 0; p < 8; ++p) {
    plan.push_back(PageId{0, p});
    ASSERT_TRUE(pool.FetchPinned(plan.back()).ok());  // Fills the pool.
  }
  const uint64_t reads_before = disk->stats().reads;

  pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  ExpectHints(registry, plan.size(), /*queued=*/0, /*skipped=*/8,
              /*dropped=*/0);
  fault::SleepUs(20000);  // Time enough for a woken worker to read.
  EXPECT_EQ(pool.PrefetchStatsSnapshot().issued, 0u);
  EXPECT_EQ(disk->stats().reads, reads_before);
}

// A plan mixing resident and absent pages queues and reads exactly the
// absent ones; the resident ones cost no device read.
TEST(PrefetchPolicyTest, MixedPlanReadsOnlyAbsentPages) {
  auto disk = buffer::MakeTestDisk({8});
  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.prefetch_depth = 4;  // Window cap = min(8, 8) = 8: no reclaims.
  obs::MetricsRegistry registry;  // Outlives the pool's I/O workers.
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);

  for (uint32_t p = 0; p < 8; p += 2) {
    ASSERT_TRUE(pool.FetchPinned(PageId{0, p}).ok());  // Even pages.
  }
  const uint64_t reads_before = disk->stats().reads;

  std::vector<PageId> plan;
  for (uint32_t p = 0; p < 8; ++p) plan.push_back(PageId{0, p});
  pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  ExpectHints(registry, plan.size(), /*queued=*/4, /*skipped=*/4,
              /*dropped=*/0);
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().issued == 4; },
            "the absent pages to be read");
  EXPECT_EQ(disk->stats().reads - reads_before, 4u);

  // The odd pages are the ones read ahead: demanding them is all hits.
  for (uint32_t p = 1; p < 8; p += 2) {
    auto r = pool.FetchPinned(PageId{0, p});
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().was_miss()) << "page " << p;
  }
  EXPECT_EQ(pool.PrefetchStatsSnapshot().used, 4u);
  EXPECT_EQ(disk->stats().reads - reads_before, 4u);
}

// A plan longer than the queue bound counts its overflow as dropped, and
// a dropped page is never read. With resident pages in the same plan,
// all three outcomes occur at once.
TEST(PrefetchPolicyTest, PlanPastQueueBoundCountsOverflowAsDropped) {
  auto disk = buffer::MakeTestDisk({100});
  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.prefetch_depth = 1;  // Queue bound = max(64, 8) = 64.
  obs::MetricsRegistry registry;  // Outlives the pool's I/O workers.
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);

  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool.FetchPinned(PageId{0, p}).ok());
  }
  const uint64_t reads_before = disk->stats().reads;

  std::vector<PageId> plan;
  for (uint32_t p = 0; p < 100; ++p) plan.push_back(PageId{0, p});
  pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  ExpectHints(registry, plan.size(), /*queued=*/64, /*skipped=*/4,
              /*dropped=*/32);
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().issued == 64; },
            "the queued pages to be read");
  fault::SleepUs(20000);  // Time enough for a stray read to land.
  EXPECT_EQ(pool.PrefetchStatsSnapshot().issued, 64u);
  EXPECT_EQ(disk->stats().reads - reads_before, 64u);
}

// Pages that pass the filter but find the queue already full are
// dropped too.
TEST(PrefetchPolicyTest, PlanIntoFullQueueCountsDropped) {
  auto disk = buffer::MakeTestDisk({64, 8});
  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.prefetch_depth = 1;  // Queue bound = 64, one worker.
  // Each read holds the worker for 300 ms, so between the two hints
  // below it dequeues at most one page.
  opts.io_delay_us_per_miss = 300000;
  obs::MetricsRegistry registry;  // Outlives the pool's I/O workers.
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);

  std::vector<PageId> fill;
  std::vector<PageId> more;
  for (uint32_t p = 0; p < 64; ++p) fill.push_back(PageId{0, p});
  for (uint32_t p = 0; p < 8; ++p) more.push_back(PageId{1, p});
  pool.Prefetch(buffer::PageAccessPlan(fill.data(), fill.size()));
  pool.Prefetch(buffer::PageAccessPlan(more.data(), more.size()));

  const uint64_t queued =
      registry.FindCounter("buffer.prefetch_hints_queued")->value();
  const uint64_t dropped =
      registry.FindCounter("buffer.prefetch_hints_dropped")->value();
  EXPECT_GE(queued, 64u);
  EXPECT_LE(queued, 65u);
  EXPECT_EQ(registry.FindCounter("buffer.prefetch_hints_skipped")->value(),
            0u);
  EXPECT_EQ(queued + dropped, fill.size() + more.size());
}

}  // namespace
}  // namespace irbuf::serve
