#include "storage/simulated_disk.h"

#include <gtest/gtest.h>

namespace irbuf::storage {
namespace {

std::vector<Posting> SamplePage() {
  return {{10, 5}, {3, 2}, {7, 2}, {1, 1}};
}

TEST(SimulatedDiskTest, AppendAndRead) {
  SimulatedDisk disk;
  ASSERT_TRUE(disk.AppendPage(0, SamplePage(), 50.0).ok());
  Page page;
  ASSERT_TRUE(disk.ReadPage(PageId{0, 0}, &page).ok());
  EXPECT_EQ(page.MaterializePostings(), SamplePage());
  EXPECT_DOUBLE_EQ(page.max_weight, 50.0);
  EXPECT_EQ(page.id, (PageId{0, 0}));
}

TEST(SimulatedDiskTest, ReadCountsAccumulate) {
  SimulatedDisk disk;
  ASSERT_TRUE(disk.AppendPage(0, SamplePage(), 1.0).ok());
  Page page;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(disk.ReadPage(PageId{0, 0}, &page).ok());
  }
  EXPECT_EQ(disk.stats().reads, 5u);
  EXPECT_EQ(disk.stats().postings_decoded, 5u * SamplePage().size());
  EXPECT_GT(disk.stats().bytes_read, 0u);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().reads, 0u);
}

TEST(SimulatedDiskTest, MultipleTermsAndPages) {
  SimulatedDisk disk;
  ASSERT_TRUE(disk.AppendPage(2, {{1, 4}, {2, 1}}, 4.0).ok());
  ASSERT_TRUE(disk.AppendPage(2, {{9, 1}}, 1.0).ok());
  ASSERT_TRUE(disk.AppendPage(5, {{3, 2}}, 2.0).ok());
  EXPECT_EQ(disk.NumPages(2), 2u);
  EXPECT_EQ(disk.NumPages(5), 1u);
  EXPECT_EQ(disk.NumPages(0), 0u);
  EXPECT_EQ(disk.NumPages(99), 0u);
  EXPECT_EQ(disk.total_pages(), 3u);
  EXPECT_EQ(disk.total_postings(), 4u);

  Page page;
  ASSERT_TRUE(disk.ReadPage(PageId{2, 1}, &page).ok());
  EXPECT_EQ(page.block.size(), 1u);
  EXPECT_EQ(page.block.doc_ids[0], 9u);
}

TEST(SimulatedDiskTest, MissingPageIsNotFound) {
  SimulatedDisk disk;
  ASSERT_TRUE(disk.AppendPage(0, SamplePage(), 1.0).ok());
  Page page;
  EXPECT_EQ(disk.ReadPage(PageId{0, 1}, &page).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(disk.ReadPage(PageId{7, 0}, &page).code(),
            StatusCode::kNotFound);
}

TEST(SimulatedDiskTest, RejectsEmptyAndUnsortedPages) {
  SimulatedDisk disk;
  EXPECT_EQ(disk.AppendPage(0, {}, 0.0).code(),
            StatusCode::kInvalidArgument);
  // Neither frequency-sorted (freq ascends) nor document-ordered (doc
  // descends): rejected.
  EXPECT_EQ(disk.AppendPage(0, {{5, 1}, {2, 3}}, 3.0).code(),
            StatusCode::kInvalidArgument);
  // Document-ordered pages are a supported layout (footnote 14).
  EXPECT_TRUE(disk.AppendPage(0, {{1, 1}, {2, 5}}, 5.0).ok());
}

// A page image spelled out as raw vbytes: count, then per run
// freq, length, first doc and gaps.
std::vector<uint8_t> Image(std::initializer_list<uint32_t> values) {
  std::vector<uint8_t> out;
  for (uint32_t v : values) VByteEncode(v, &out);
  return out;
}

TEST(SimulatedDiskTest, EncodedPageMaySplitAFrequencyWhileDocsRise) {
  // The encoder never writes two adjacent runs of one frequency, but a
  // stored image may: {10 @5}, {2 @3}, {7 @3} is frequency-sorted as a
  // posting sequence (doc ids rise across the split), though not
  // document-ordered. It loads, and reads back as written.
  SimulatedDisk disk;
  const std::vector<uint8_t> rising = Image({3, 5, 1, 10, 3, 1, 2, 3, 1, 7});
  ASSERT_TRUE(disk.AppendEncodedPage(0, rising, 5.0).ok());
  EXPECT_EQ(disk.total_postings(), 3u);
  Page page;
  ASSERT_TRUE(disk.ReadPage(PageId{0, 0}, &page).ok());
  EXPECT_EQ(page.MaterializePostings(),
            (std::vector<Posting>{{10, 5}, {2, 3}, {7, 3}}));
  EXPECT_EQ(page.block.runs.size(), 3u);

  // Doc ids falling across the split, {10 @5}, {7 @3}, {2 @3}: neither
  // order holds, so the page is rejected.
  const std::vector<uint8_t> falling = Image({3, 5, 1, 10, 3, 1, 7, 3, 1, 2});
  EXPECT_EQ(disk.AppendEncodedPage(0, falling, 5.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.total_pages(), 1u);
}

TEST(SimulatedDiskTest, EncodedPageValidation) {
  SimulatedDisk disk;
  // Malformed images fail as the read path would fail them.
  EXPECT_EQ(disk.AppendEncodedPage(0, {0x00}, 1.0).code(),
            StatusCode::kCorrupted);
  EXPECT_EQ(disk.AppendEncodedPage(0, Image({2, 1, 2, 4}), 1.0).code(),
            StatusCode::kCorrupted);
  EXPECT_EQ(disk.AppendEncodedPage(0, Image({0}), 1.0).code(),
            StatusCode::kInvalidArgument);  // No postings.
  EXPECT_EQ(disk.total_pages(), 0u);
  // One decode block serves the whole load: a large page, then a small
  // one, then the large one again all validate and count.
  std::vector<Posting> large;
  for (DocId d = 0; d < 404; ++d) large.push_back(Posting{d * 300, 1});
  ASSERT_TRUE(disk.AppendEncodedPage(1, EncodePostings(large), 1.0).ok());
  ASSERT_TRUE(
      disk.AppendEncodedPage(1, EncodePostings(SamplePage()), 5.0).ok());
  ASSERT_TRUE(disk.AppendEncodedPage(1, EncodePostings(large), 1.0).ok());
  EXPECT_EQ(disk.total_pages(), 3u);
  EXPECT_EQ(disk.total_postings(), 2 * 404u + SamplePage().size());
}

TEST(SimulatedDiskTest, PageMaxWeightWithoutRead) {
  SimulatedDisk disk;
  ASSERT_TRUE(disk.AppendPage(1, SamplePage(), 123.5).ok());
  EXPECT_DOUBLE_EQ(disk.PageMaxWeight(PageId{1, 0}), 123.5);
  EXPECT_DOUBLE_EQ(disk.PageMaxWeight(PageId{1, 9}), 0.0);
  EXPECT_EQ(disk.stats().reads, 0u);  // No read performed.
}

TEST(SimulatedDiskTest, CompressionAccounting) {
  SimulatedDisk disk;
  ASSERT_TRUE(disk.AppendPage(0, SamplePage(), 1.0).ok());
  EXPECT_GT(disk.compressed_bytes(), 0u);
  EXPECT_LT(disk.compressed_bytes(), SamplePage().size() * 8);
}

}  // namespace
}  // namespace irbuf::storage
