// Unit tests for the open-addressing AccumulatorSet: adversarial DocId
// patterns for the hash/probe machinery, the presence bitmap's edges
// (ids past its end, ids sharing a word with a candidate, Clear), and a
// reference-model differential against std::unordered_map — size() is
// the paper's memory metric, so the table must agree with the map it
// replaced op-for-op, not just at the end.

#include "core/accumulator_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace irbuf::core {
namespace {

TEST(AccumulatorSetTest, FindOnEmptySetIsNull) {
  AccumulatorSet acc;
  EXPECT_EQ(acc.FindOrNull(0), nullptr);
  EXPECT_EQ(acc.FindOrNull(123456), nullptr);
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.size(), 0u);
}

TEST(AccumulatorSetTest, SentinelIdNeverAliasesEmptySlots) {
  // 0xFFFFFFFF is the empty-slot sentinel. Probing it must miss, not
  // hand back an unoccupied slot's value (doc ids come from gap sums
  // over decoded pages, so a corrupt page can reach this id).
  AccumulatorSet acc;
  EXPECT_EQ(acc.FindOrNull(0xFFFFFFFFu), nullptr);
  for (DocId d = 0; d < 100; ++d) acc.FindOrInsert(d) = 1.0;
  EXPECT_EQ(acc.FindOrNull(0xFFFFFFFFu), nullptr);
  EXPECT_EQ(acc.size(), 100u);
}

TEST(AccumulatorSetTest, FindOrInsertCreatesZeroInitialized) {
  AccumulatorSet acc;
  double& a = acc.FindOrInsert(7);
  EXPECT_EQ(a, 0.0);
  a += 2.5;
  EXPECT_EQ(acc.FindOrInsert(7), 2.5);  // Same slot, not a new one.
  EXPECT_EQ(acc.size(), 1u);
}

TEST(AccumulatorSetTest, InsertKeepsExistingValueLikeEmplace) {
  AccumulatorSet acc;
  acc.Insert(3, 1.5);
  // unordered_map::emplace semantics: a duplicate insert is a no-op
  // that returns the existing accumulator.
  EXPECT_EQ(acc.Insert(3, 99.0), 1.5);
  EXPECT_EQ(acc.size(), 1u);
}

TEST(AccumulatorSetTest, GrowsUnderDenseIds) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 10000; ++d) {
    acc.FindOrInsert(d) = static_cast<double>(d);
  }
  ASSERT_EQ(acc.size(), 10000u);
  for (DocId d = 0; d < 10000; ++d) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr) << d;
    EXPECT_EQ(*a, static_cast<double>(d));
  }
  // Ids above the largest inserted miss, inside the presence bitmap's
  // last word and past its end alike.
  for (DocId d : {10000u, 16383u, 16384u, 173251u, 1u << 20, 0xFFFFFFFEu}) {
    EXPECT_EQ(acc.FindOrNull(d), nullptr) << d;
  }
}

TEST(AccumulatorSetTest, GrowsUnderStrideAliasingIds) {
  // Stride-2^k ids alias catastrophically under mask-the-low-bits
  // hashing; the Fibonacci multiplier must keep probe chains short
  // enough that this completes instantly and correctly.
  for (DocId stride : {256u, 1024u, 65536u}) {
    AccumulatorSet acc;
    for (DocId i = 0; i < 4000; ++i) {
      acc.FindOrInsert(i * stride) = static_cast<double>(i);
    }
    ASSERT_EQ(acc.size(), 4000u) << "stride " << stride;
    for (DocId i = 0; i < 4000; ++i) {
      double* a = acc.FindOrNull(i * stride);
      ASSERT_NE(a, nullptr) << "stride " << stride << " i " << i;
      EXPECT_EQ(*a, static_cast<double>(i));
    }
    EXPECT_EQ(acc.FindOrNull(7), nullptr);
  }
}

TEST(AccumulatorSetTest, FindSharingABitmapWordWithACandidateIsNull) {
  // Candidates at both ends and inside two 64-id words: every other id
  // of those words has a zero bit beside a set one.
  AccumulatorSet acc;
  const std::vector<DocId> candidates = {64, 127, 130, 191};
  for (DocId d : candidates) acc.Insert(d, static_cast<double>(d));
  for (DocId d = 64; d < 192; ++d) {
    const double* a = acc.FindOrNull(d);
    if (std::find(candidates.begin(), candidates.end(), d) !=
        candidates.end()) {
      ASSERT_NE(a, nullptr) << d;
      EXPECT_EQ(*a, static_cast<double>(d));
    } else {
      EXPECT_EQ(a, nullptr) << d;
    }
  }
  EXPECT_EQ(acc.FindOrNull(63), nullptr);
  EXPECT_EQ(acc.FindOrNull(192), nullptr);
}

// FindOrNull interleaved with inserts, each probe checked against the
// map while the table and the bitmap are still growing. Ids span 2^24
// documents (~100x the WSJ profile): the presence bitmap costs one bit
// per id up to the largest, so a 31-bit id space would size it at
// 256 MB, while this range keeps the hash and rehashes busy at 2 MB.
TEST(AccumulatorSetTest, RandomIdsSurviveRehashes) {
  Pcg32 rng(5150);
  AccumulatorSet acc;
  std::unordered_map<DocId, double> reference;
  std::vector<DocId> inserted;
  for (int i = 0; i < 40000; ++i) {
    // One id in four is a known candidate; the rest are almost always
    // new, so most probes miss, as in the DF add mode.
    DocId d = rng.NextU32() & 0xFFFFFFu;
    if (!inserted.empty() && rng.NextBounded(4) == 0) {
      d = inserted[rng.NextBounded(static_cast<uint32_t>(inserted.size()))];
    }
    if (rng.NextBounded(2) == 0) {
      const double* a = acc.FindOrNull(d);
      const auto it = reference.find(d);
      if (it == reference.end()) {
        ASSERT_EQ(a, nullptr) << "op " << i << " doc " << d;
      } else {
        ASSERT_NE(a, nullptr) << "op " << i << " doc " << d;
        ASSERT_EQ(*a, it->second);
      }
      continue;
    }
    const double w = static_cast<double>(rng.NextBounded(1000)) / 7.0;
    acc.FindOrInsert(d) += w;
    if (reference.find(d) == reference.end()) inserted.push_back(d);
    reference[d] += w;
  }
  ASSERT_EQ(acc.size(), reference.size());
  for (const auto& [d, v] : reference) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, v);
  }
}

TEST(AccumulatorSetTest, IterationVisitsEveryAccumulatorOnce) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 500; ++d) acc.FindOrInsert(d * 3) = d * 0.5;
  std::vector<std::pair<DocId, double>> seen;
  for (const auto& [doc, val] : acc) seen.emplace_back(doc, val);
  ASSERT_EQ(seen.size(), 500u);
  std::sort(seen.begin(), seen.end());
  for (DocId d = 0; d < 500; ++d) {
    EXPECT_EQ(seen[d].first, d * 3);
    EXPECT_EQ(seen[d].second, d * 0.5);
  }
}

TEST(AccumulatorSetTest, ClearKeepsTableUsable) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 1000; ++d) acc.FindOrInsert(d) = 1.0;
  acc.Clear();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.begin(), acc.end());
  // Former candidates miss; one inserted again starts from zero and
  // leaves its neighbours absent.
  for (DocId d : {0u, 5u, 64u, 999u}) {
    EXPECT_EQ(acc.FindOrNull(d), nullptr) << d;
  }
  EXPECT_EQ(acc.FindOrInsert(5), 0.0);
  acc.FindOrInsert(5) = 2.0;
  EXPECT_EQ(acc.size(), 1u);
  ASSERT_NE(acc.FindOrNull(5), nullptr);
  EXPECT_EQ(*acc.FindOrNull(5), 2.0);
  EXPECT_EQ(acc.FindOrNull(6), nullptr);
}

// Replays a DF-shaped op trace — the Find / conditional-Insert /
// accumulate mix the filtering evaluator issues, with the skewed doc
// distribution a real posting stream has — against the unordered_map
// the table replaced. size() (the paper's memory metric) and every
// accumulator value must match at each term boundary.
TEST(AccumulatorSetTest, SizeMatchesMapOnRecordedDfTrace) {
  Pcg32 rng(1998);
  AccumulatorSet acc;
  std::unordered_map<DocId, double> reference;
  for (int term = 0; term < 12; ++term) {
    const double wq = 0.25 + 0.125 * term;
    const bool add_only = term % 3 == 2;  // Past the insert threshold.
    const int postings = 200 + static_cast<int>(rng.NextBounded(1800));
    for (int i = 0; i < postings; ++i) {
      // Zipf-ish doc skew: small ids recur across terms, as hot
      // documents do in a real collection.
      DocId d = rng.NextBounded(512);
      if (rng.NextBounded(4) == 0) d = rng.NextBounded(100000);
      const double w = wq * (1 + rng.NextBounded(20));
      if (add_only) {
        if (double* a = acc.FindOrNull(d)) *a += w;
        if (auto it = reference.find(d); it != reference.end()) {
          it->second += w;
        }
      } else {
        acc.FindOrInsert(d) += w;
        reference[d] += w;
      }
    }
    ASSERT_EQ(acc.size(), reference.size()) << "after term " << term;
  }
  for (const auto& [d, v] : reference) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, v);
  }
}

// Regression pin for the amortized-alloc contract on
// AccumulatorSet::Grow (the analyzer trusts the annotation; this test
// keeps it honest): doubling growth means at most ~log2(N) + 1
// reallocations over N inserts, so the per-posting cost inside the
// evaluator hot loops stays O(1) amortized. A switch to, say,
// fixed-increment growth would blow the bound immediately.
TEST(AccumulatorSetTest, GrowthIsAmortizedDoubling) {
  AccumulatorSet acc;
  constexpr int kInserts = 100000;
  int reallocations = 0;
  const double* watched = nullptr;
  for (int i = 0; i < kInserts; ++i) {
    acc.Insert(static_cast<DocId>(i), 1.0);
    const double* now = acc.FindOrNull(0);
    ASSERT_NE(now, nullptr);
    if (now != watched) {
      ++reallocations;
      watched = now;
    }
  }
  // log2(100000) ~= 17; the first observation also counts as a
  // "change" from nullptr. Leave a little slack, but far below any
  // linear-growth regime (which would be in the thousands).
  EXPECT_LE(reallocations, 20);
}

}  // namespace
}  // namespace irbuf::core
