#include "serve/concurrent_buffer_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "../buffer/test_disk.h"
#include "buffer/buffer_manager.h"
#include "buffer/policy_factory.h"
#include "util/rng.h"

namespace irbuf::serve {
namespace {

using buffer::MakeTestDisk;
using buffer::PinnedPage;
using buffer::PolicyKind;

ConcurrentPoolOptions Opts(size_t capacity,
                           PolicyKind policy = PolicyKind::kLru) {
  ConcurrentPoolOptions o;
  o.capacity = capacity;
  o.policy = policy;
  return o;
}

buffer::QueryContext Weights(TermId term, double weight) {
  buffer::QueryContext context;
  context.SetWeight(term, weight);
  return context;
}

TEST(ConcurrentPoolTest, PinBlocksEvictionAndReleaseAllows) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool pool(disk.get(), Opts(2));

  auto a = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().was_miss());
  EXPECT_EQ(pool.PinCount(PageId{0, 0}), 1u);

  auto b = pool.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(b.ok());

  // Both frames pinned: a third distinct page cannot get a frame.
  auto c = pool.FetchPinned(PageId{0, 2});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);

  // Releasing one pin frees exactly one frame.
  a.value().Release();
  EXPECT_EQ(pool.PinCount(PageId{0, 0}), 0u);
  auto c2 = pool.FetchPinned(PageId{0, 2});
  ASSERT_TRUE(c2.ok());
  // Page {0,0} was the only unpinned frame, so it was the victim.
  EXPECT_EQ(pool.ResidentPages(0), 2u);
  EXPECT_EQ(pool.PinCount(PageId{0, 1}), 1u);

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ConcurrentPoolTest, PinnedPointerSurvivesEvictionPressure) {
  auto disk = MakeTestDisk({8});
  ConcurrentBufferPool pool(disk.get(), Opts(3));
  obs::MetricsRegistry registry;
  pool.BindMetrics(&registry);

  auto pinned = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(pinned.ok());
  const storage::Page* raw = pinned.value().get();
  ASSERT_NE(raw, nullptr);

  // Churn every other frame several times over.
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 1; p < 8; ++p) {
      auto r = pool.FetchPinned(PageId{0, p});
      ASSERT_TRUE(r.ok());
    }
  }
  // The pinned page was never evicted and its frame never recycled.
  EXPECT_EQ(pinned.value().get(), raw);
  EXPECT_EQ(raw->id.page_no, 0u);
  EXPECT_EQ(pool.PinCount(PageId{0, 0}), 1u);
  // The pinned page was LRU's victim every time: each eviction fell back.
  EXPECT_EQ(registry.FindCounter("buffer.victim_fallbacks")->value(),
            pool.StatsSnapshot().evictions);
}

TEST(ConcurrentPoolTest, HitMissAttributionPerFetch) {
  auto disk = MakeTestDisk({2});
  ConcurrentBufferPool pool(disk.get(), Opts(4));

  auto miss = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss.value().was_miss());
  miss.value().Release();

  auto hit = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit.value().was_miss());

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.misses, disk->stats().reads);
}

TEST(ConcurrentPoolTest, UnknownPageReportsNotFoundAndFreesTheFrame) {
  auto disk = MakeTestDisk({1});
  ConcurrentBufferPool pool(disk.get(), Opts(1));

  auto bad = pool.FetchPinned(PageId{7, 0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  // The reserved frame went back to the free list; the pool still works
  // and the failed fetch was not counted (misses == disk reads).
  auto good = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(pool.StatsSnapshot().misses, disk->stats().reads);
}

/// Drives BufferManager and ConcurrentBufferPool through the same fetch
/// sequence on one thread and asserts identical decisions.
void ExpectSingleThreadEquivalence(PolicyKind kind, bool with_context) {
  auto disk_a = MakeTestDisk({6, 4, 5, 3});
  auto disk_b = MakeTestDisk({6, 4, 5, 3});
  buffer::BufferManager manager(disk_a.get(), 4, buffer::MakePolicy(kind));
  ConcurrentBufferPool pool(disk_b.get(), Opts(4, kind));

  buffer::QueryLease manager_lease;
  buffer::QueryLease pool_lease;
  if (with_context) {
    buffer::QueryContext ctx;
    ctx.SetWeight(0, 2.0);
    ctx.SetWeight(2, 5.0);
    manager_lease = manager.BeginQuery(ctx);
    pool_lease = pool.BeginQuery(std::move(ctx));
  }

  Pcg32 rng(99);
  const std::vector<uint32_t> pages = {6, 4, 5, 3};
  for (int i = 0; i < 400; ++i) {
    const TermId term = rng.NextBounded(4);
    const PageId id{term, rng.NextBounded(pages[term])};
    auto a = manager.FetchPinned(id);
    auto b = pool.FetchPinned(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().was_miss(), b.value().was_miss()) << "fetch " << i;
  }
  for (TermId t = 0; t < 4; ++t) {
    EXPECT_EQ(manager.ResidentPages(t), pool.ResidentPages(t)) << "t" << t;
  }
  const buffer::BufferStats sa = manager.StatsSnapshot();
  const buffer::BufferStats sb = pool.StatsSnapshot();
  EXPECT_EQ(sa.fetches, sb.fetches);
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.evictions, sb.evictions);
}

TEST(ConcurrentPoolTest, SingleThreadMatchesBufferManagerLru) {
  ExpectSingleThreadEquivalence(PolicyKind::kLru, false);
}

TEST(ConcurrentPoolTest, SingleThreadMatchesBufferManagerRap) {
  ExpectSingleThreadEquivalence(PolicyKind::kRap, true);
}

TEST(ConcurrentPoolTest, SingleThreadMatchesBufferManagerClock) {
  ExpectSingleThreadEquivalence(PolicyKind::kClock, false);
}

TEST(ConcurrentPoolTest, SharedContextKeepsPagesAnotherLeaseValues) {
  // Term 0 pages store 100, 99, 98; term 1's one page stores 200.
  auto disk = MakeTestDisk({3, 1});
  ConcurrentPoolOptions options = Opts(2, PolicyKind::kRap);
  options.shared_context = true;
  ConcurrentBufferPool pool(disk.get(), options);
  std::vector<PageId> victims;
  pool.SetEvictionObserver([&](PageId id, bool) { victims.push_back(id); });

  buffer::QueryLease other = pool.BeginQuery(Weights(1, 1.0));
  const buffer::QueryLease evaluating = pool.BeginQuery(Weights(0, 1.0));
  ASSERT_TRUE(pool.FetchPinned(PageId{1, 0}).ok());
  ASSERT_TRUE(pool.FetchPinned(PageId{0, 0}).ok());
  // Under the merge (1,0) is worth 200 and (0,0) 100, so the page only
  // the other query values survives. The newest lease alone would value
  // (1,0) at 0 and evict it.
  ASSERT_TRUE(pool.FetchPinned(PageId{0, 1}).ok());
  EXPECT_EQ(victims, (std::vector<PageId>{{0, 0}}));

  // Once the other query ends, (1,0) is worth 0 and is the victim.
  other.End();
  ASSERT_TRUE(pool.FetchPinned(PageId{0, 2}).ok());
  EXPECT_EQ(victims, (std::vector<PageId>{{0, 0}, {1, 0}}));
  EXPECT_EQ(pool.ResidentPages(1), 0u);
}

TEST(ConcurrentPoolTest, PerQueryContextIsTheNewestLease) {
  // Term 0 pages store 100, 99; term 1 pages 200, 199.
  auto disk = MakeTestDisk({2, 2});
  ConcurrentBufferPool pool(disk.get(), Opts(2, PolicyKind::kRap));
  std::vector<PageId> victims;
  pool.SetEvictionObserver([&](PageId id, bool) { victims.push_back(id); });

  const buffer::QueryLease older = pool.BeginQuery(Weights(1, 1.0));
  buffer::QueryLease newer = pool.BeginQuery(Weights(0, 1.0));
  ASSERT_TRUE(pool.FetchPinned(PageId{1, 1}).ok());
  ASSERT_TRUE(pool.FetchPinned(PageId{0, 1}).ok());
  // Only the newer lease counts: (1,1) is worth 0 and goes, where the
  // merge or the older lease would evict (0,1).
  ASSERT_TRUE(pool.FetchPinned(PageId{1, 0}).ok());
  EXPECT_EQ(victims, (std::vector<PageId>{{1, 1}}));

  // Ending the newer lease changes nothing: (1,0) is still worth 0.
  // Under the older lease, or under no weights at all, (0,1) would go.
  newer.End();
  ASSERT_TRUE(pool.FetchPinned(PageId{0, 0}).ok());
  EXPECT_EQ(victims, (std::vector<PageId>{{1, 1}, {1, 0}}));
}

}  // namespace
}  // namespace irbuf::serve
