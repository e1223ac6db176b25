#include "buffer/buffer_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "buffer/lru_policy.h"
#include "buffer/policy_factory.h"
#include "obs/query_tracer.h"
#include "test_disk.h"

namespace irbuf::buffer {
namespace {

TEST(BufferManagerTest, HitAndMissAccounting) {
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());

  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Miss.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Hit.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Miss.
  EXPECT_EQ(bm.stats().fetches, 3u);
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 2u);
  EXPECT_EQ(bm.stats().evictions, 0u);
  EXPECT_DOUBLE_EQ(bm.stats().HitRate(), 1.0 / 3.0);
  // Misses equal disk reads.
  EXPECT_EQ(disk->stats().reads, 2u);
}

TEST(BufferManagerTest, EvictsWhenFull) {
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts page 0 (LRU).
  EXPECT_EQ(bm.stats().evictions, 1u);
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));
  EXPECT_TRUE(bm.Contains(PageId{0, 1}));
  EXPECT_TRUE(bm.Contains(PageId{0, 2}));
}

TEST(BufferManagerTest, ReturnedPageContentIsCorrect) {
  auto disk = MakeTestDisk({2});
  BufferManager bm(disk.get(), 1, std::make_unique<LruPolicy>());
  auto page = bm.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value()->id, (PageId{0, 1}));
  EXPECT_EQ(page.value()->block.size(), 2u);
  EXPECT_DOUBLE_EQ(page.value()->max_weight, 99.0);
}

TEST(BufferManagerTest, ResidencyCountersTrackTerms) {
  auto disk = MakeTestDisk({3, 2});
  BufferManager bm(disk.get(), 4, std::make_unique<LruPolicy>());
  EXPECT_EQ(bm.ResidentPages(0), 0u);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());
  EXPECT_EQ(bm.ResidentPages(0), 2u);
  EXPECT_EQ(bm.ResidentPages(1), 1u);
  EXPECT_EQ(bm.ResidentPages(99), 0u);

  // Refetching a resident page does not change counters.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  EXPECT_EQ(bm.ResidentPages(0), 2u);

  // Filling the pool evicts term 0's LRU page (0,1 was least recent).
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());  // Pool now full; evict.
  EXPECT_EQ(bm.ResidentPages(0) + bm.ResidentPages(1), 4u);
}

TEST(BufferManagerTest, FlushEmptiesEverything) {
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 3, std::make_unique<LruPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  bm.Flush();
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));
  EXPECT_EQ(bm.ResidentPages(0), 0u);
  EXPECT_TRUE(bm.ResidentPageIds().empty());
  // Fetch after flush is a miss again.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  EXPECT_EQ(bm.stats().misses, 3u);
}

TEST(BufferManagerTest, CapacityZeroClampsToOne) {
  auto disk = MakeTestDisk({2});
  BufferManager bm(disk.get(), 0, std::make_unique<LruPolicy>());
  EXPECT_EQ(bm.capacity(), 1u);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  EXPECT_EQ(bm.stats().evictions, 1u);
}

TEST(BufferManagerTest, MissingPagePropagatesError) {
  auto disk = MakeTestDisk({1});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  auto result = bm.FetchPinned(PageId{5, 0});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(BufferManagerTest, ResidentPageIdsMatchesContains) {
  auto disk = MakeTestDisk({4});
  BufferManager bm(disk.get(), 8, std::make_unique<LruPolicy>());
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
  }
  auto ids = bm.ResidentPageIds();
  EXPECT_EQ(ids.size(), 4u);
  for (const PageId& id : ids) EXPECT_TRUE(bm.Contains(id));
}

TEST(BufferManagerTest, PoolLargerThanDataNeverEvicts) {
  auto disk = MakeTestDisk({5});
  BufferManager bm(disk.get(), 100, std::make_unique<LruPolicy>());
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 5; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
    }
  }
  EXPECT_EQ(bm.stats().misses, 5u);
  EXPECT_EQ(bm.stats().hits, 10u);
  EXPECT_EQ(bm.stats().evictions, 0u);
}

TEST(BufferManagerTest, ResetStatsLeavesDiskCountersAlone) {
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_EQ(bm.stats().fetches, 3u);
  ASSERT_EQ(disk->stats().reads, 2u);

  // Pool counters and disk counters are independent: resetting one
  // never touches the other, in either direction.
  bm.ResetStats();
  EXPECT_EQ(bm.stats().fetches, 0u);
  EXPECT_EQ(bm.stats().hits, 0u);
  EXPECT_EQ(bm.stats().misses, 0u);
  EXPECT_EQ(bm.stats().evictions, 0u);
  EXPECT_EQ(disk->stats().reads, 2u);

  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Hit: no disk read.
  disk->ResetStats();
  EXPECT_EQ(disk->stats().reads, 0u);
  EXPECT_EQ(bm.stats().fetches, 1u);
  EXPECT_EQ(bm.stats().hits, 1u);
}

TEST(BufferManagerTest, TracerRecordsFetchesAndEvictions) {
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  QueryContext context;
  context.SetWeight(0, 2.0);
  const QueryLease lease = bm.BeginQuery(std::move(context));
  obs::QueryTracer tracer;
  bm.SetTracer(&tracer);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // miss
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // hit
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // miss
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // miss + evict (0,0)

  EXPECT_EQ(tracer.CountKind(obs::TraceEventKind::kFetch), 4u);
  EXPECT_EQ(tracer.CountKind(obs::TraceEventKind::kEvict), 1u);
  size_t hits = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::TraceEventKind::kFetch && e.hit) ++hits;
    if (e.kind != obs::TraceEventKind::kEvict) continue;
    EXPECT_EQ(e.term, 0u);
    EXPECT_EQ(e.page_no, 0u);
    // The RAP-style replacement value is max_weight * w_{q,t}.
    EXPECT_DOUBLE_EQ(e.a, 100.0);
    EXPECT_DOUBLE_EQ(e.b, e.a * 2.0);
    // (0,0) entered at fetch 1; the eviction happens during fetch 4.
    EXPECT_EQ(e.n, 3u);
  }
  EXPECT_EQ(hits, 1u);

  // Uninstalling stops recording.
  bm.SetTracer(nullptr);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  EXPECT_EQ(tracer.CountKind(obs::TraceEventKind::kFetch), 4u);
}

TEST(BufferManagerTest, FetchPinnedProtectsThePageFromEviction) {
  auto disk = MakeTestDisk({4});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  obs::MetricsRegistry registry;
  bm.BindMetrics(&registry);
  auto pinned = bm.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(pinned.value().was_miss());
  EXPECT_EQ(bm.PinCount(PageId{0, 0}), 1u);
  const storage::Page* raw = pinned.value().get();

  // Churn through the rest of the list; page 0 is LRU every time but
  // must never be the victim while pinned.
  for (int round = 0; round < 2; ++round) {
    for (uint32_t p = 1; p < 4; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
    }
  }
  EXPECT_TRUE(bm.Contains(PageId{0, 0}));
  EXPECT_EQ(pinned.value().get(), raw);
  EXPECT_EQ(raw->id.page_no, 0u);
  // The pinned page was LRU's victim every time: each eviction fell back.
  EXPECT_GT(bm.stats().evictions, 0u);
  EXPECT_EQ(registry.FindCounter("buffer.victim_fallbacks")->value(),
            bm.stats().evictions);

  // The guard's destructor releases the pin; then page 0 is evictable.
  pinned.value().Release();
  EXPECT_EQ(bm.PinCount(PageId{0, 0}), 0u);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));
}

TEST(BufferManagerTest, AllFramesPinnedReportsResourceExhausted) {
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  auto a = bm.FetchPinned(PageId{0, 0});
  auto b = bm.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = bm.FetchPinned(PageId{0, 2});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing a pin makes the fetch succeed again.
  b.value().Release();
  EXPECT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
}

TEST(BufferManagerTest, FlushDiscardsPins) {
  auto disk = MakeTestDisk({2});
  BufferManager bm(disk.get(), 2, std::make_unique<LruPolicy>());
  auto pinned = bm.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(pinned.ok());
  bm.Flush();
  EXPECT_EQ(bm.PinCount(PageId{0, 0}), 0u);
  // The stale guard's release must not underflow the recycled frame's
  // pin count or block future pins.
  pinned.value().Release();
  auto again = bm.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(bm.PinCount(PageId{0, 1}), 1u);
}

}  // namespace
}  // namespace irbuf::buffer
