#include <gtest/gtest.h>

#include "buffer/buffer_manager.h"
#include "buffer/clock_policy.h"
#include "buffer/fifo_policy.h"
#include "buffer/lru_k_policy.h"
#include "buffer/policy_factory.h"
#include "buffer/two_q_policy.h"
#include "test_disk.h"

namespace irbuf::buffer {
namespace {

TEST(FifoPolicyTest, EvictsOldestInsertion) {
  auto disk = MakeTestDisk({4});
  BufferManager bm(disk.get(), 3, std::make_unique<FifoPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Hit: FIFO unaffected.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());  // Evicts 0 anyway.
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));
  EXPECT_TRUE(bm.Contains(PageId{0, 1}));
}

TEST(ClockPolicyTest, SecondChanceForReferencedPages) {
  auto disk = MakeTestDisk({4});
  BufferManager bm(disk.get(), 3, std::make_unique<ClockPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  // All reference bits set: the sweep clears them and evicts frame 0.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));

  // Re-reference (0,1): its bit is set again, so the next victim is (0,2).
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  EXPECT_TRUE(bm.Contains(PageId{0, 1}));
  EXPECT_FALSE(bm.Contains(PageId{0, 2}));
}

TEST(LruKPolicyTest, SingleReferencePagesEvictedBeforeTwice) {
  auto disk = MakeTestDisk({4});
  BufferManager bm(disk.get(), 3, std::make_unique<LruKPolicy>(2));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Page 0 has 2 refs.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Page 2 has 2 refs.
  // Page 1 has a single reference -> infinite K-distance -> victim.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());
  EXPECT_FALSE(bm.Contains(PageId{0, 1}));
  EXPECT_TRUE(bm.Contains(PageId{0, 0}));
  EXPECT_TRUE(bm.Contains(PageId{0, 2}));
}

TEST(LruKPolicyTest, HistorySurvivesEviction) {
  // LRU-K retains reference history for evicted pages; a page referenced
  // twice long ago still beats a once-referenced newcomer.
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 1, std::make_unique<LruKPolicy>(2));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Evicts 0; history kept.
  // Re-fetch page 0: it has K refs in history, so when page 2 arrives,
  // page 0 wins... but pool size 1 forces eviction regardless; this test
  // just exercises the retained-history code path end to end.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  EXPECT_TRUE(bm.Contains(PageId{0, 2}));
  EXPECT_EQ(bm.stats().evictions, 3u);
}

TEST(LruKPolicyTest, KEqualsOneBehavesLikeLru) {
  auto disk = MakeTestDisk({4});
  BufferManager lruk(disk.get(), 3, std::make_unique<LruKPolicy>(1));
  ASSERT_TRUE(lruk.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(lruk.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(lruk.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(lruk.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(lruk.FetchPinned(PageId{0, 3}).ok());  // LRU would evict 1.
  EXPECT_FALSE(lruk.Contains(PageId{0, 1}));
}


TEST(LruKPolicyTest, HistoryStaysBounded) {
  // The retained ghost history must not grow without bound over a long
  // session: churn far more distinct pages than the trim limit and check
  // the policy still behaves (indirectly: no unbounded state, victims
  // remain valid). 20k distinct pages through a 4-frame pool.
  auto disk = std::make_unique<storage::SimulatedDisk>();
  for (uint32_t p = 0; p < 20000; ++p) {
    ASSERT_TRUE(disk->AppendPage(0, {{p, 1}}, 1.0).ok());
  }
  BufferManager bm(disk.get(), 4, std::make_unique<LruKPolicy>(2));
  for (uint32_t p = 0; p < 20000; ++p) {
    ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
  }
  // Every fetch was a miss (sequential scan), pool stayed consistent.
  EXPECT_EQ(bm.stats().misses, 20000u);
  EXPECT_EQ(bm.ResidentPageIds().size(), 4u);
}

TEST(TwoQPolicyTest, ColdScanDoesNotFlushHotPages) {
  // The signature 2Q property: a page re-referenced after leaving A1in
  // enters Am and survives a long cold scan. Pool of 8: Kin = 2, Kout = 4.
  auto disk = MakeTestDisk({16});
  BufferManager bm(disk.get(), 8, std::make_unique<TwoQPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  for (uint32_t p = 1; p <= 8; ++p) {  // Fill the pool and overflow once.
    ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
  }
  ASSERT_FALSE(bm.Contains(PageId{0, 0}));       // Aged out of A1in.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Ghost hit -> Am.
  // Cold scan over never-re-referenced pages keeps draining A1in only.
  for (uint32_t p = 9; p < 13; ++p) {
    ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
  }
  EXPECT_TRUE(bm.Contains(PageId{0, 0}));
}

TEST(TwoQPolicyTest, HitsInsideA1InDoNotPromote) {
  auto disk = MakeTestDisk({16});
  BufferManager bm(disk.get(), 8, std::make_unique<TwoQPolicy>());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Hit while in A1in.
  // Push enough new pages through A1in to age page 0 out regardless.
  for (uint32_t p = 1; p <= 8; ++p) {
    ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
  }
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));
}

TEST(PolicyFactoryTest, MakesEveryKind) {
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), PolicyKindName(kind));
  }
}

TEST(PolicyFactoryTest, ParsesNamesCaseInsensitively) {
  EXPECT_EQ(ParsePolicyKind("lru").value(), PolicyKind::kLru);
  EXPECT_EQ(ParsePolicyKind("MRU").value(), PolicyKind::kMru);
  EXPECT_EQ(ParsePolicyKind("Rap").value(), PolicyKind::kRap);
  EXPECT_EQ(ParsePolicyKind("lru-2").value(), PolicyKind::kLruK);
  EXPECT_EQ(ParsePolicyKind("2q").value(), PolicyKind::kTwoQ);
  EXPECT_EQ(ParsePolicyKind("clock").value(), PolicyKind::kClock);
  EXPECT_EQ(ParsePolicyKind("fifo").value(), PolicyKind::kFifo);
  EXPECT_FALSE(ParsePolicyKind("arc").ok());
}

TEST(AllPoliciesTest, SurviveChurnAndFlush) {
  // Property-style stress: every policy must keep the pool consistent
  // under a mixed reference string with interleaved flushes.
  for (PolicyKind kind : AllPolicyKinds()) {
    auto disk = MakeTestDisk({7, 5, 3});
    BufferManager bm(disk.get(), 4, MakePolicy(kind));
    QueryContext ctx;
    ctx.SetWeight(0, 1.0);
    ctx.SetWeight(1, 2.0);
    const QueryLease lease = bm.BeginQuery(ctx);
    uint32_t seq = 0;
    for (int step = 0; step < 500; ++step) {
      TermId term = seq % 3;
      uint32_t pages = disk->NumPages(term);
      PageId id{term, (seq * 7 + step) % pages};
      ASSERT_TRUE(bm.FetchPinned(id).ok())
          << PolicyKindName(kind) << " step " << step;
      ASSERT_LE(bm.ResidentPageIds().size(), 4u);
      if (step % 97 == 0) bm.Flush();
      ++seq;
    }
    // Residency counters must equal the actual resident census.
    uint32_t census[3] = {0, 0, 0};
    for (const PageId& id : bm.ResidentPageIds()) ++census[id.term];
    for (TermId t = 0; t < 3; ++t) {
      EXPECT_EQ(bm.ResidentPages(t), census[t]) << PolicyKindName(kind);
    }
  }
}

}  // namespace
}  // namespace irbuf::buffer
