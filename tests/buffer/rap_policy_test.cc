#include "buffer/rap_policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "buffer/buffer_manager.h"
#include "test_disk.h"
#include "util/rng.h"

namespace irbuf::buffer {
namespace {

QueryContext ContextFor(std::initializer_list<std::pair<TermId, double>> ws) {
  QueryContext ctx;
  for (auto& [term, w] : ws) ctx.SetWeight(term, w);
  return ctx;
}

TEST(RapPolicyTest, EvictsLowestReplacementValue) {
  // Term 0 pages have stored weights 100, 99, ...; term 1: 200, 199, ...
  auto disk = MakeTestDisk({3, 3});
  BufferManager bm(disk.get(), 3, std::make_unique<RapPolicy>());
  const QueryLease lease = bm.BeginQuery(ContextFor({{0, 1.0}, {1, 1.0}}));

  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Value 100.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());  // Value 200.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());  // Value 199.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 2}).ok());  // Evicts (0,0): lowest.
  EXPECT_FALSE(bm.Contains(PageId{0, 0}));
  EXPECT_TRUE(bm.Contains(PageId{1, 0}));
}

TEST(RapPolicyTest, QueryWeightScalesPageValue) {
  auto disk = MakeTestDisk({3, 3});
  BufferManager bm(disk.get(), 3, std::make_unique<RapPolicy>());
  // Term 0 is weighted much higher than term 1, inverting the raw stored
  // weights (Equation 6: value = max-weight * w_{q,t}).
  const QueryLease lease = bm.BeginQuery(ContextFor({{0, 10.0}, {1, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Value 1000.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());  // Value 200.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Value 990.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts (1,0).
  EXPECT_FALSE(bm.Contains(PageId{1, 0}));
}

TEST(RapPolicyTest, DroppedTermPagesEvictedFirst) {
  // Section 3.3 example 2: pages of terms removed during refinement have
  // w_{q,t} = 0 and go first, even if their stored weights are huge.
  auto disk = MakeTestDisk({3, 3});
  BufferManager bm(disk.get(), 4, std::make_unique<RapPolicy>());
  QueryLease lease = bm.BeginQuery(ContextFor({{0, 1.0}, {1, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());

  // Refined query: term 1 dropped.
  lease = bm.BeginQuery(ContextFor({{0, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Needs an eviction.
  // A term-1 page must have gone, not a term-0 page.
  EXPECT_TRUE(bm.Contains(PageId{0, 0}));
  EXPECT_TRUE(bm.Contains(PageId{0, 1}));
  EXPECT_EQ(bm.ResidentPages(1), 1u);
}

TEST(RapPolicyTest, TailEvictedBeforeHead) {
  // Among equal (zero) values, the tail of the list goes before the head.
  auto disk = MakeTestDisk({3});
  BufferManager bm(disk.get(), 2, std::make_unique<RapPolicy>());
  QueryLease lease = bm.BeginQuery(ContextFor({{0, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  // Term 0 dropped (no query leases it): both resident pages now value 0.
  lease.End();
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  EXPECT_TRUE(bm.Contains(PageId{0, 0}));   // Head kept.
  EXPECT_FALSE(bm.Contains(PageId{0, 1}));  // Tail evicted.
}

TEST(RapPolicyTest, FirstPagesSurviveWithinOneTerm) {
  // Section 3.3 example 1: within one queried term, the first page (the
  // highest stored weight) should be the one retained.
  auto disk = MakeTestDisk({4});
  BufferManager bm(disk.get(), 2, std::make_unique<RapPolicy>());
  const QueryLease lease = bm.BeginQuery(ContextFor({{0, 2.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts page 1.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());  // Evicts page 2.
  EXPECT_TRUE(bm.Contains(PageId{0, 0}));
  EXPECT_TRUE(bm.Contains(PageId{0, 3}));
}

TEST(RapPolicyTest, ValueOfReflectsContext) {
  auto disk = MakeTestDisk({1});
  auto policy = std::make_unique<RapPolicy>();
  RapPolicy* rap = policy.get();
  BufferManager bm(disk.get(), 1, std::move(policy));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  // No context yet: value is 0.
  EXPECT_DOUBLE_EQ(rap->ValueOf(0), 0.0);
  const QueryLease lease = bm.BeginQuery(ContextFor({{0, 3.0}}));
  EXPECT_DOUBLE_EQ(rap->ValueOf(0), 300.0);
}

TEST(RapPolicyTest, SharedContextRaiseTakesEffectInPlace) {
  // A second user's lease changes the pool's merged context mid-run;
  // the policy must see every change.
  auto disk = MakeTestDisk({4, 4});
  BufferManager bm(disk.get(), 4, std::make_unique<RapPolicy>());
  QueryLease lease = bm.BeginQuery(ContextFor({{0, 1.0}, {1, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Value 100.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Value 99.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());  // Value 200.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());  // Value 199.

  // Term 1 dropped: its pages value 0 and go first.
  lease = bm.BeginQuery(ContextFor({{0, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Value 98.
  EXPECT_FALSE(bm.Contains(PageId{1, 1}));

  // Another user's lease raises term 1: (1,0) is now worth 2000, so the
  // lowest value is term 0's tail.
  const QueryLease other = bm.BeginQuery(ContextFor({{1, 10.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());
  EXPECT_TRUE(bm.Contains(PageId{1, 0}));
  EXPECT_FALSE(bm.Contains(PageId{0, 2}));
}

// ---- Differential test against the linear scan ------------------------

// The linear scan RapPolicy used before its indexed victim structure,
// kept as the oracle: the victim is the minimum of (value, -page_no,
// -term) over every resident frame.
class ScanRapPolicy final : public ReplacementPolicy {
 public:
  const char* name() const override { return "RAP-scan"; }
  void OnInsert(FrameId frame) override {
    if (resident_.size() <= frame) resident_.resize(frame + 1, false);
    resident_[frame] = true;
  }
  void OnHit(FrameId /*frame*/) override {}
  void OnEvict(FrameId frame) override { resident_[frame] = false; }
  void SetQueryContext(const QueryContext* context) override {
    context_ = context;
  }
  void Reset() override { resident_.assign(resident_.size(), false); }

  FrameId ChooseVictim() override {
    FrameId victim = kInvalidFrame;
    double victim_value = 0.0;
    PageId victim_page{};
    for (FrameId f = 0; f < resident_.size(); ++f) {
      if (!resident_[f]) continue;
      const FrameMeta& meta = directory_->Meta(f);
      const double wq =
          context_ == nullptr ? 0.0 : context_->WeightOf(meta.page.term);
      const double value = meta.max_weight * wq;
      bool better;
      if (victim == kInvalidFrame) {
        better = true;
      } else if (value != victim_value) {
        better = value < victim_value;
      } else {
        better = meta.page.page_no > victim_page.page_no ||
                 (meta.page.page_no == victim_page.page_no &&
                  meta.page.term > victim_page.term);
      }
      if (better) {
        victim = f;
        victim_value = value;
        victim_page = meta.page;
      }
    }
    return victim;
  }

 private:
  std::vector<bool> resident_;
  const QueryContext* context_ = nullptr;
};

// A frame table the test writes directly.
class TestDirectory final : public FrameDirectory {
 public:
  explicit TestDirectory(size_t capacity) : frames(capacity) {}
  const FrameMeta& Meta(FrameId frame) const override {
    return frames[frame];
  }
  size_t capacity() const override { return frames.size(); }

  std::vector<FrameMeta> frames;
};

enum class ListOrder { kFrequencySorted, kDocOrdered };

constexpr TermId kTerms = 10;
constexpr uint32_t kPagesPerTerm = 12;

// Two stored weights lo < hi whose products with `w` round to the same
// double: a tie no ordering by stored weight alone can see.
struct RoundingTie {
  double lo, hi, w;
};

RoundingTie FindRoundingTie() {
  const double w = 0.7;
  for (double lo = 1.5;; lo = std::nextafter(lo, 2.0)) {
    const double hi = std::nextafter(lo, 2.0);
    if (lo * w == hi * w) return {lo, hi, w};
  }
}

double StoredWeight(ListOrder order, const RoundingTie& tie, TermId term,
                    uint32_t page_no) {
  if (order == ListOrder::kFrequencySorted) {
    // Never increases along the list. Pages 2k and 2k+1 store equal
    // weights, except pages 4 and 5, which differ but tie under tie.w.
    double weight = 4.0 / (1u << (page_no / 2));
    if (page_no == 4) weight = tie.hi;
    if (page_no == 5) weight = tie.lo;
    return weight * (1 + term % 2);
  }
  const double mixed[5] = {1.0, 2.0, 3.0, tie.lo, tie.hi};
  return mixed[(term * 7 + page_no * 13) % 5];
}

// Replays one seeded interleaving of OnInsert, OnEvict, SetQueryContext
// (fresh, mutated in place, empty or null) and Reset against RapPolicy
// and the scan, and checks every victim.
void RunDifferential(ListOrder order, uint64_t seed) {
  Pcg32 rng(seed);
  const RoundingTie tie = FindRoundingTie();
  // Small integer weights make equal products across terms common.
  const double weights[6] = {0.0, 0.5, 1.0, 2.0, 3.0, tie.w};
  const size_t capacities[5] = {1, 2, 7, 16, 40};
  TestDirectory dir(capacities[rng.NextBounded(5)]);
  RapPolicy rap;
  ScanRapPolicy scan;
  rap.Attach(&dir);
  scan.Attach(&dir);
  std::set<uint64_t> resident;
  // The published context stays alive while the other is rebuilt.
  QueryContext contexts[2];
  const QueryContext empty;
  int published = 0;

  const auto choose = [&]() -> FrameId {
    const FrameId expected = scan.ChooseVictim();
    EXPECT_EQ(rap.ChooseVictim(), expected);
    return expected;
  };
  const auto evict = [&](FrameId frame) {
    rap.OnEvict(frame);
    scan.OnEvict(frame);
    resident.erase(dir.frames[frame].page.Pack());
    dir.frames[frame] = FrameMeta{};
  };
  const auto publish = [&](const QueryContext* context) {
    rap.SetQueryContext(context);
    scan.SetQueryContext(context);
  };

  for (int step = 0; step < 3000 && !::testing::Test::HasFailure(); ++step) {
    const uint32_t op = rng.NextBounded(100);
    if (op < 45) {
      PageId page{rng.NextBounded(kTerms), rng.NextBounded(kPagesPerTerm)};
      if (resident.count(page.Pack()) != 0) continue;
      FrameId frame = kInvalidFrame;
      for (FrameId f = 0; f < dir.capacity(); ++f) {
        if (!dir.frames[f].occupied) {
          frame = f;
          break;
        }
      }
      if (frame == kInvalidFrame) {
        frame = choose();
        evict(frame);
      }
      const double weight = StoredWeight(order, tie, page.term, page.page_no);
      dir.frames[frame] = {page, weight, true};
      resident.insert(page.Pack());
      rap.OnInsert(frame);
      scan.OnInsert(frame);
    } else if (op < 55) {
      // Not the victim: what the pools' pinned-victim fallback evicts.
      if (resident.empty()) continue;
      FrameId frame;
      do {
        frame = rng.NextBounded(static_cast<uint32_t>(dir.capacity()));
      } while (!dir.frames[frame].occupied);
      evict(frame);
    } else if (op < 70) {
      choose();
    } else if (op < 80) {
      published ^= 1;
      QueryContext& fresh = contexts[published];
      fresh.Clear();
      for (TermId t = 0; t < kTerms; ++t) {
        if (rng.NextBounded(2) == 0) {
          fresh.SetWeight(t, weights[rng.NextBounded(6)]);
        }
      }
      publish(&fresh);
    } else if (op < 90) {
      // A caller that mutates its context in place and republishes it.
      contexts[published].SetWeight(rng.NextBounded(kTerms),
                                    weights[rng.NextBounded(6)]);
      publish(&contexts[published]);
    } else if (op < 94) {
      publish(rng.NextBounded(2) == 0 ? nullptr : &empty);
    } else if (op < 96) {
      rap.Reset();
      scan.Reset();
      resident.clear();
      for (FrameMeta& meta : dir.frames) meta = FrameMeta{};
    } else {
      if (resident.empty()) continue;
      const FrameId frame = choose();
      evict(frame);
    }
  }
}

TEST(RapDifferentialTest, FrequencySortedListsMatchScan) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    RunDifferential(ListOrder::kFrequencySorted, seed);
  }
}

TEST(RapDifferentialTest, DocOrderedListsMatchScan) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    RunDifferential(ListOrder::kDocOrdered, seed);
  }
}

TEST(QueryContextTest, MergeMaxKeepsHighestWeight) {
  QueryContext a = ContextFor({{1, 2.0}, {2, 5.0}});
  QueryContext b = ContextFor({{2, 3.0}, {3, 7.0}});
  a.MergeMax(b);
  EXPECT_DOUBLE_EQ(a.WeightOf(1), 2.0);
  EXPECT_DOUBLE_EQ(a.WeightOf(2), 5.0);
  EXPECT_DOUBLE_EQ(a.WeightOf(3), 7.0);
  EXPECT_DOUBLE_EQ(a.WeightOf(9), 0.0);
}

}  // namespace
}  // namespace irbuf::buffer
