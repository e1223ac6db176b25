// Multi-threaded stress tests for the serving subsystem. These run under
// ThreadSanitizer in CI (ctest -L concurrency) — they are written to
// maximise interleavings (many threads, small pool, overlapping term
// sets), and their assertions are conservation laws that hold under any
// schedule, not schedule-dependent values.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "../buffer/test_disk.h"
#include "../core/test_index.h"
#include "fault/backoff.h"
#include "serve/concurrent_buffer_pool.h"
#include "serve/query_server.h"
#include "util/rng.h"

namespace irbuf::serve {
namespace {

constexpr size_t kClients = 8;
constexpr size_t kQueriesPerClient = 125;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(123, 500, 18, 4));
  }

  /// A random query of 2-5 terms from a client-specific window, so
  /// clients overlap pairwise but not globally (contended pages).
  core::Query RandomQuery(size_t client, Pcg32* rng) {
    const uint32_t num_terms = 18;
    const uint32_t base = static_cast<uint32_t>(client * 2) % num_terms;
    core::Query q;
    const uint32_t k = 2 + rng->NextBounded(4);
    for (uint32_t i = 0; i < k; ++i) {
      q.AddTerm((base + rng->NextBounded(9)) % num_terms);
    }
    return q;
  }

  /// Closed-loop load: kClients threads, each its own session, one
  /// outstanding query at a time. Asserts the conservation laws.
  void RunClosedLoop(const ServerOptions& options) {
    QueryServer server(&tc_->index, options);
    server.Start();
    const uint64_t disk_reads_before = tc_->index.disk().stats().reads;

    std::vector<std::thread> clients;
    std::atomic<uint64_t> answered{0};
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Pcg32 rng(1000 + c);
        for (size_t i = 0; i < kQueriesPerClient; ++i) {
          auto r = server.Execute(c, RandomQuery(c, &rng));
          ASSERT_TRUE(r.ok()) << r.status().message();
          ASSERT_FALSE(r.value().eval.top_docs.empty());
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : clients) t.join();
    server.Stop();

    const uint64_t total = kClients * kQueriesPerClient;
    EXPECT_EQ(answered.load(), total);

    const ServerStats stats = server.StatsSnapshot();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, total);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.rejected, 0u);  // Closed loop never overflows.

    // Pool conservation: every fetch is exactly one of hit/miss, and
    // every miss is exactly one disk read.
    const buffer::BufferStats pool = server.PoolStatsSnapshot();
    EXPECT_EQ(pool.fetches, pool.hits + pool.misses);
    EXPECT_EQ(pool.misses,
              tc_->index.disk().stats().reads - disk_reads_before);
    EXPECT_GT(pool.hits, 0u);  // Overlapping topics must share pages.

    // Session conservation: per-user accounting sums to the totals.
    uint64_t session_queries = 0;
    uint64_t session_reads = 0;
    for (size_t c = 0; c < kClients; ++c) {
      const SessionStats s = server.SessionSnapshot(c);
      EXPECT_EQ(s.queries, kQueriesPerClient) << "session " << c;
      session_queries += s.queries;
      session_reads += s.disk_reads;
    }
    EXPECT_EQ(session_queries, total);
    EXPECT_EQ(session_reads, pool.misses);
  }

  std::optional<core::TestCollection> tc_;
};

TEST_F(ConcurrencyStressTest, EightWorkersLruDfConserveStats) {
  ServerOptions options;
  options.num_threads = 8;
  options.queue_depth = kClients;
  options.buffer_pages = 32;
  options.policy = buffer::PolicyKind::kLru;
  RunClosedLoop(options);
}

TEST_F(ConcurrencyStressTest, EightWorkersRapBafSharedContextConserveStats) {
  // The hardest configuration: ranking-aware replacement reading the
  // merged context snapshot while every completion republishes it, and
  // BAF reading b_t estimates that race with insertions/evictions.
  ServerOptions options;
  options.num_threads = 8;
  options.queue_depth = kClients;
  options.buffer_pages = 32;
  options.policy = buffer::PolicyKind::kRap;
  options.eval.buffer_aware = true;
  options.shared_context = true;
  RunClosedLoop(options);
}

TEST_F(ConcurrencyStressTest, SubmitFloodRespectsQueueBound) {
  // Open-loop flood from many threads against a tiny queue: every
  // submission is either admitted (and eventually answered) or visibly
  // rejected — nothing is lost or double-counted.
  ServerOptions options;
  options.num_threads = 2;
  options.queue_depth = 4;
  options.buffer_pages = 32;
  QueryServer server(&tc_->index, options);
  server.Start();

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> floods;
  for (size_t c = 0; c < 4; ++c) {
    floods.emplace_back([&, c] {
      Pcg32 rng(77 + c);
      std::vector<std::future<Result<QueryResponse>>> pending;
      for (size_t i = 0; i < 100; ++i) {
        auto r = server.Submit(c, RandomQuery(c, &rng));
        if (r.ok()) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          pending.push_back(std::move(r).value());
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (auto& f : pending) {
        ASSERT_TRUE(f.get().ok());  // Admitted => answered.
      }
    });
  }
  for (auto& t : floods) t.join();
  server.Stop();

  const ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, admitted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, admitted.load());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(admitted.load() + rejected.load(), 400u);
}

TEST(ConcurrentPoolStressTest, HammerWithHeldPinsConservesStats) {
  // Raw pool hammer: each thread holds one pin while fetching a second
  // page, so the evictor constantly trips over pinned frames and must
  // take the re-check-and-retry path.
  auto disk = buffer::MakeTestDisk({12, 12, 12, 12});
  ConcurrentPoolOptions opts;
  opts.capacity = 24;
  opts.policy = buffer::PolicyKind::kLru;
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(500 + t);
      for (int i = 0; i < 2000; ++i) {
        const PageId first{rng.NextBounded(4), rng.NextBounded(12)};
        auto held = pool.FetchPinned(first);
        ASSERT_TRUE(held.ok()) << held.status().message();
        ASSERT_EQ(held.value().get()->id.term, first.term);
        const PageId second{rng.NextBounded(4), rng.NextBounded(12)};
        auto other = pool.FetchPinned(second);
        ASSERT_TRUE(other.ok()) << other.status().message();
        ASSERT_EQ(other.value().get()->id.page_no, second.page_no);
        // Held pin's frame must have stayed intact throughout.
        ASSERT_EQ(held.value().get()->id.term, first.term);
        ASSERT_EQ(held.value().get()->id.page_no, first.page_no);
      }
    });
  }
  for (auto& t : threads) t.join();

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, 8u * 2000u * 2u);
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses, disk->stats().reads);
  // Everything unpinned at the end.
  for (TermId term = 0; term < 4; ++term) {
    for (uint32_t p = 0; p < 12; ++p) {
      EXPECT_EQ(pool.PinCount(PageId{term, p}), 0u);
    }
  }
}

TEST(ConcurrentPoolStressTest, SamePageMissStormIssuesExactlyOneRead) {
  // The duplicate-read race: many threads demand the SAME cold page
  // while the (slow, simulated) device transfer is in flight. The page's
  // loading entry must coalesce all of them onto one load, so the
  // device sees exactly one read under ANY schedule — the loader counts
  // the miss, everyone else a (possibly coalesced) hit.
  auto disk = buffer::MakeTestDisk({4});
  ConcurrentPoolOptions opts;
  opts.capacity = 8;
  opts.io_delay_us_per_miss = 10000;  // A wide window for the storm.
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto r = pool.FetchPinned(PageId{0, 0});
      ASSERT_TRUE(r.ok()) << r.status().message();
      ASSERT_EQ(r.value().get()->id.page_no, 0u);
    });
  }
  for (auto& t : threads) t.join();

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, 8u);
  EXPECT_EQ(stats.misses, 1u);  // One loader; the page is never evicted.
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(disk->stats().reads, 1u);
  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(ps.device_reads, 1u);
  // How many of the 7 hits actually waited on the in-flight load is
  // schedule-dependent; it can never exceed the hit count.
  EXPECT_LE(ps.coalesced_misses, 7u);
}

TEST(ConcurrentPoolStressTest, MissStormConservesDiskReadsExactly) {
  // Heavy overlap plus eviction pressure: misses must equal device
  // reads EXACTLY (no duplicate reads, no unaccounted reads) even while
  // the same page is simultaneously demanded, evicted and re-demanded.
  // The pool destructor re-checks both conservation laws under DCHECK.
  auto disk = buffer::MakeTestDisk({12, 12});
  ConcurrentPoolOptions opts;
  opts.capacity = 10;  // Far below the 24-page working set.
  opts.io_delay_us_per_miss = 200;
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(42 + t);
      for (int i = 0; i < 300; ++i) {
        const PageId id{rng.NextBounded(2), rng.NextBounded(12)};
        auto r = pool.FetchPinned(id);
        ASSERT_TRUE(r.ok()) << r.status().message();
        ASSERT_EQ(r.value().get()->id.page_no, id.page_no);
      }
    });
  }
  for (auto& t : threads) t.join();

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses, disk->stats().reads);  // Exact, not <=.
  EXPECT_EQ(pool.PrefetchStatsSnapshot().device_reads, disk->stats().reads);
}

TEST(ConcurrentPoolStressTest, PrefetchHammerConservesDeviceReads) {
  // Readahead and demand racing on the same pages: every successful
  // device read is accounted exactly once — misses + prefetch_issued ==
  // device reads == what the disk counted — and the destructor
  // re-checks the same law after joining the I/O workers.
  auto disk = buffer::MakeTestDisk({10, 10, 10, 10});
  ConcurrentPoolOptions opts;
  opts.capacity = 24;
  opts.prefetch_depth = 4;
  opts.io_delay_us_per_miss = 100;
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(7 + t);
      for (int i = 0; i < 200; ++i) {
        const TermId term = rng.NextBounded(4);
        const uint32_t page = rng.NextBounded(10);
        if (i % 4 == 0) {
          std::vector<PageId> plan;
          for (uint32_t p = page; p < 10; ++p) {
            plan.push_back(PageId{term, p});
          }
          pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
        }
        auto r = pool.FetchPinned(PageId{term, page});
        ASSERT_TRUE(r.ok()) << r.status().message();
        ASSERT_EQ(r.value().get()->id.term, term);
      }
    });
  }
  for (auto& t : threads) t.join();

  // The clients are done, but readahead workers may still be draining
  // hints; wait until the device-read counter goes quiet before taking
  // the quiescent snapshots.
  uint64_t last = pool.PrefetchStatsSnapshot().device_reads;
  for (int i = 0; i < 100; ++i) {
    fault::SleepUs(20000);
    const uint64_t now = pool.PrefetchStatsSnapshot().device_reads;
    if (now == last && now == disk->stats().reads) break;
    last = now;
  }

  const buffer::BufferStats stats = pool.StatsSnapshot();
  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses + ps.issued, ps.device_reads);
  EXPECT_EQ(ps.device_reads, disk->stats().reads);
  // Every issued readahead is at most one of used/wasted (or still
  // sitting untouched in the window).
  EXPECT_LE(ps.used + ps.wasted, ps.issued);
}

TEST(ConcurrentPoolStressTest, SimulatedIoDelayOverlapsAcrossThreads) {
  // With a per-miss device delay, N threads missing on N distinct pages
  // must overlap their (simulated) I/O: wall time for the batch is far
  // below N * delay. This is the mechanism the throughput benchmark
  // relies on, so pin it down here.
  auto disk = buffer::MakeTestDisk({16});
  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.io_delay_us_per_miss = 20000;  // 20 ms per miss.
  ConcurrentBufferPool pool(disk.get(), opts);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto r = pool.FetchPinned(PageId{0, t});
      ASSERT_TRUE(r.ok());
    });
  }
  for (auto& t : threads) t.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_EQ(pool.StatsSnapshot().misses, 8u);
  // Serial would be >= 160 ms; allow generous scheduling slack.
  EXPECT_LT(elapsed.count(), 120);
}

}  // namespace
}  // namespace irbuf::serve
