// The two ways a demand fetch's join of a page load can end. A fetch
// that finds its page loading waits for the loader instead of reading:
// (a) the load publishes, and the fetch wakes to a coalesced hit;
// (b) the load fails, and the fetch retries as the page's loader.
// A 200 ms device delay holds each load open long enough for the second
// party to join it, so both cases are reached on every run rather than
// by chance under the stress suites.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "../buffer/test_disk.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::serve {
namespace {

constexpr uint32_t kDelayUs = 200000;

/// Bounded wait on a condition another thread brings about.
template <typename Pred>
void WaitUntil(Pred pred, const char* what) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return;
    fault::SleepUs(1000);
  }
  FAIL() << "timed out waiting for " << what;
}

// (a) A demand fetch joins a readahead load: the one device read serves
// both, the fetch is a coalesced hit, and the load publishes promoted —
// counted prefetch_used and untagged, so it takes no place in the
// readahead window, the window never reclaims its frame and a later
// fetch is a plain hit.
TEST(LoadJoinTest, DemandFetchJoinsReadaheadLoad) {
  auto disk = buffer::MakeTestDisk({4});
  ConcurrentPoolOptions opts;
  opts.capacity = 8;
  opts.prefetch_depth = 1;  // Window cap = min(2, 4) = 2.
  opts.io_delay_us_per_miss = kDelayUs;
  obs::MetricsRegistry registry;  // Outlives the pool's I/O worker.
  std::vector<PageId> evicted;
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);
  pool.SetEvictionObserver(
      [&](PageId id, bool /*policy_victim*/) { evicted.push_back(id); });

  // Fill the window with tagged pages 1 and 2: a tagged publish of the
  // joined page would now have to reclaim one of them.
  const std::vector<PageId> fill = {PageId{0, 1}, PageId{0, 2}};
  pool.Prefetch(buffer::PageAccessPlan(fill.data(), fill.size()));
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().issued == 2; },
            "the window to fill");

  // Repeat the hint until it is skipped: the worker has then made the
  // page's loading entry, and the device delay keeps it loading.
  const PageId page{0, 0};
  const obs::Counter* skipped =
      registry.FindCounter("buffer.prefetch_hints_skipped");
  WaitUntil(
      [&] {
        pool.Prefetch(buffer::PageAccessPlan(&page, 1));
        return skipped->value() > 0;
      },
      "the readahead load to start");

  auto joined = pool.FetchPinned(page);
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  EXPECT_FALSE(joined.value().was_miss());
  joined.value().Release();
  PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(ps.issued, 3u);
  EXPECT_EQ(ps.device_reads, 3u);  // One read for the page, not two.
  EXPECT_EQ(ps.coalesced_misses, 1u);
  EXPECT_EQ(ps.used, 1u);
  EXPECT_EQ(ps.wasted, 0u);  // The promoted publish left the window be.

  // Page 3 overflows the window once. The joined page is not in it, so
  // the reclaim takes page 1, the oldest tagged page.
  const PageId overflow{0, 3};
  pool.Prefetch(buffer::PageAccessPlan(&overflow, 1));
  WaitUntil([&] { return pool.PrefetchStatsSnapshot().wasted == 1; },
            "the window to overflow");
  // Clearing the observer takes the latch it runs under, which orders
  // its last append before the reads below.
  pool.SetEvictionObserver(nullptr);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].page_no, 1u);

  auto again = pool.FetchPinned(page);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().was_miss());
  ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(ps.issued, 4u);
  EXPECT_EQ(ps.used, 1u);  // Promoted once, at the joined publish.
  EXPECT_EQ(ps.coalesced_misses, 1u);
  EXPECT_EQ(disk->stats().reads, 4u);
  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
}

// (b) A demand fetch joins a demand load whose read fails. The failure
// erases the loading entry; the joiner wakes, becomes the loader and
// reads the page itself. The bit flip fails the first read in
// FinishRead, after the device delay, which gives the second fetch time
// to join; a transient fault would fail in BeginRead, before any delay.
TEST(LoadJoinTest, JoinerOfFailedLoadRetriesAsLoader) {
  auto disk = buffer::MakeTestDisk({2});
  fault::FaultSpec spec;
  fault::FaultRule flip;
  flip.kind = fault::FaultKind::kBitFlip;
  flip.probability = 1.0;
  flip.max_faults = 1;
  spec.rules.push_back(flip);
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);
  obs::SpanRecorder spans;
  ConcurrentPoolOptions opts;
  opts.capacity = 4;
  opts.io_delay_us_per_miss = kDelayUs;
  opts.span_recorder = &spans;
  ConcurrentBufferPool pool(disk.get(), opts);

  const PageId page{0, 0};
  Status first;
  std::thread loader([&] { first = pool.FetchPinned(page).status(); });
  // The flip is drawn in BeginRead, so once it is counted the loader is
  // sleeping the device delay with its loading entry in the table.
  WaitUntil(
      [&] { return injector.injected(fault::FaultKind::kBitFlip) > 0; },
      "the first read to begin");
  auto second = pool.FetchPinned(page);
  loader.join();
  disk->SetFaultInjector(nullptr);

  EXPECT_EQ(first.code(), StatusCode::kCorrupted);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_TRUE(second.value().was_miss());  // It read the page itself.
  second.value().Release();
  const buffer::BufferStats stats = pool.StatsSnapshot();
  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(stats.fetches, 1u);  // A failed fetch is not counted.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(ps.device_reads, 1u);
  EXPECT_EQ(ps.coalesced_misses, 0u);
  EXPECT_EQ(disk->stats().reads, 1u);

  // The second fetch waited on the first load (one async-wait span),
  // then both fetches ran a load of their own (two miss-read spans).
  size_t async_waits = 0;
  size_t miss_reads = 0;
  for (const obs::ThreadSpans& thread : spans.Snapshot()) {
    for (const obs::Span& span : thread.spans) {
      async_waits += span.stage == obs::SpanStage::kAsyncWait ? 1 : 0;
      miss_reads += span.stage == obs::SpanStage::kMissRead ? 1 : 0;
    }
  }
  EXPECT_EQ(async_waits, 1u);
  EXPECT_EQ(miss_reads, 2u);
}

}  // namespace
}  // namespace irbuf::serve
