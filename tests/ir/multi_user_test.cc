#include "ir/multi_user.h"

#include <gtest/gtest.h>

#include "../core/test_index.h"
#include "ir/experiment.h"

namespace irbuf::ir {
namespace {

class MultiUserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(123, 500, 18, 4));
    // Three users; users 0 and 1 share half their terms (overlapping
    // interests), user 2 is disjoint.
    sequences_.push_back(SequenceFor({0, 1, 2, 3, 4, 5, 6, 7, 8}));
    sequences_.push_back(SequenceFor({4, 5, 6, 7, 8, 9, 10, 11, 12}));
    sequences_.push_back(SequenceFor({13, 14, 15, 16, 17}));
  }

  workload::RefinementSequence SequenceFor(std::vector<TermId> terms) {
    core::Query q;
    for (TermId t : terms) q.AddTerm(t);
    auto seq = workload::BuildRefinementSequence(
        "user", q, tc_->index, workload::RefinementKind::kAddOnly);
    EXPECT_TRUE(seq.ok());
    return std::move(seq).value();
  }

  std::optional<core::TestCollection> tc_;
  std::vector<workload::RefinementSequence> sequences_;
};

TEST_F(MultiUserTest, RunsEveryUsersSteps) {
  MultiUserOptions options;
  options.buffer_pages = 16;
  auto result = RunMultiUserWorkload(tc_->index, sequences_, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().users.size(), 3u);
  EXPECT_EQ(result.value().users[0].steps_run, sequences_[0].steps.size());
  EXPECT_EQ(result.value().users[2].steps_run, sequences_[2].steps.size());
  uint64_t sum = 0;
  for (const UserResult& ur : result.value().users) sum += ur.disk_reads;
  EXPECT_EQ(sum, result.value().total_disk_reads);
  EXPECT_GT(result.value().total_disk_reads, 0u);
}

TEST_F(MultiUserTest, Deterministic) {
  MultiUserOptions options;
  options.buffer_pages = 12;
  options.policy = buffer::PolicyKind::kRap;
  options.shared_context = true;
  auto a = RunMultiUserWorkload(tc_->index, sequences_, options);
  auto b = RunMultiUserWorkload(tc_->index, sequences_, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().total_disk_reads, b.value().total_disk_reads);
}

TEST_F(MultiUserTest, OverlappingUsersBenefitFromSharedPool) {
  // The paper's conjecture: "users may benefit from pages cached in
  // buffers for other users". User 1 shares five terms with user 0, so a
  // shared pool should serve user 1 partly from user 0's reads; compare
  // against running the users on isolated pools of the same total size...
  MultiUserOptions options;
  options.buffer_pages = 90;
  auto shared = RunMultiUserWorkload(tc_->index, sequences_, options);
  ASSERT_TRUE(shared.ok());

  uint64_t isolated_reads = 0;
  for (const workload::RefinementSequence& seq : sequences_) {
    SequenceRunOptions iso;
    iso.buffer_pages = 30;  // A third of the shared pool each.
    auto run = RunRefinementSequence(tc_->index, seq, {}, iso);
    ASSERT_TRUE(run.ok());
    isolated_reads += run.value().total_disk_reads;
  }
  EXPECT_LT(shared.value().total_disk_reads, isolated_reads);
}

TEST_F(MultiUserTest, SharedContextProtectsOtherUsersPages) {
  // With per-query RAP, user A's pages have value 0 while user B runs and
  // are evicted first; the shared context keeps them valued. Under
  // contention the shared variant must not be worse.
  MultiUserOptions per_query;
  per_query.buffer_pages = 24;
  per_query.policy = buffer::PolicyKind::kRap;
  per_query.shared_context = false;
  MultiUserOptions shared = per_query;
  shared.shared_context = true;

  auto a = RunMultiUserWorkload(tc_->index, sequences_, per_query);
  auto b = RunMultiUserWorkload(tc_->index, sequences_, shared);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b.value().total_disk_reads, a.value().total_disk_reads);
}

TEST_F(MultiUserTest, SharedContextSkipsUsersWithoutSteps) {
  // A user whose sequence is empty has no query to keep valued; the
  // other user's run must not read a step that does not exist.
  std::vector<workload::RefinementSequence> sequences;
  sequences.push_back(SequenceFor({0, 1, 2, 3}));
  sequences.emplace_back();
  MultiUserOptions options;
  options.buffer_pages = 8;
  options.policy = buffer::PolicyKind::kRap;
  options.shared_context = true;
  auto both = RunMultiUserWorkload(tc_->index, sequences, options);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both.value().users[0].steps_run, sequences[0].steps.size());
  EXPECT_EQ(both.value().users[1].steps_run, 0u);

  // The empty user leases nothing, so user 0 reads as if alone.
  auto alone = RunMultiUserWorkload(tc_->index, {sequences[0]}, options);
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(both.value().total_disk_reads, alone.value().total_disk_reads);
}

TEST_F(MultiUserTest, HitRateAccounting) {
  MultiUserOptions options;
  options.buffer_pages = 4096;  // Everything fits: later steps all hit.
  auto result = RunMultiUserWorkload(tc_->index, sequences_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().HitRate(), 0.3);
  EXPECT_EQ(result.value().total_fetches - result.value().total_hits,
            result.value().total_disk_reads);
}

TEST_F(MultiUserTest, EmptyWorkload) {
  MultiUserOptions options;
  auto result = RunMultiUserWorkload(tc_->index, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_disk_reads, 0u);
  EXPECT_TRUE(result.value().users.empty());
}

}  // namespace
}  // namespace irbuf::ir
