#include "storage/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "storage/page.h"
#include "util/rng.h"

namespace irbuf::storage {
namespace {

// Raw vbyte image: `values` encoded back to back, for hand-built pages.
std::vector<uint8_t> VBytes(std::initializer_list<uint32_t> values) {
  std::vector<uint8_t> out;
  for (uint32_t v : values) VByteEncode(v, &out);
  return out;
}

// Decodes `image` with the dispatched decoder (the SIMD kernel wherever
// the CPU has it) and with the scalar oracle. Both must return the same
// status and, when it is OK, the same block; returns the dispatched
// status with its block in *out.
Status DecodeBoth(const std::vector<uint8_t>& image, PostingBlock* out) {
  PostingBlock oracle;
  const Status fast = DecodePostingsInto(image, out);
  const Status slow = internal::DecodePostingsIntoScalar(image, &oracle);
  EXPECT_EQ(fast, slow) << fast.ToString() << " vs " << slow.ToString();
  if (fast.ok() && slow.ok()) {
    EXPECT_EQ(*out, oracle);
  }
  return fast;
}

TEST(VByteTest, RoundTripsSmallAndLargeValues) {
  // Each value is a one-posting page's doc id: count 1, freq 1, run 1.
  PostingBlock block;
  for (uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, 4294967295u}) {
    std::vector<uint8_t> image = VBytes({1, 1, 1});
    VByteEncode(v, &image);
    ASSERT_TRUE(DecodeBoth(image, &block).ok()) << v;
    ASSERT_EQ(block.size(), 1u);
    EXPECT_EQ(block.doc_ids[0], v);
  }
}

TEST(VByteTest, SmallValuesTakeOneByte) {
  std::vector<uint8_t> buf;
  VByteEncode(127, &buf);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  VByteEncode(128, &buf);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(VByteTest, TruncatedInputFails) {
  std::vector<uint8_t> image = VBytes({1, 1, 1, 100000});
  image.pop_back();
  PostingBlock block;
  EXPECT_EQ(DecodeBoth(image, &block).code(), StatusCode::kCorrupted);
}

TEST(VByteTest, MultipleValuesStream) {
  // 100 one-posting runs back to back; the decoder must consume every
  // vbyte exactly (trailing bytes would fail the image).
  std::vector<uint8_t> image = VBytes({100});
  for (uint32_t v = 0; v < 100; ++v) {
    VByteEncode(100 - v, &image);  // freq, descending
    VByteEncode(1, &image);        // run length
    VByteEncode(v * 37, &image);   // doc id
  }
  PostingBlock block;
  ASSERT_TRUE(DecodeBoth(image, &block).ok());
  ASSERT_EQ(block.size(), 100u);
  for (uint32_t v = 0; v < 100; ++v) EXPECT_EQ(block.doc_ids[v], v * 37);
}

std::vector<Posting> MakeFrequencySorted(int n, Pcg32* rng) {
  std::vector<Posting> postings;
  uint32_t freq = 20;
  DocId doc = 0;
  for (int i = 0; i < n; ++i) {
    if (rng->NextBounded(4) == 0 && freq > 1) {
      --freq;
      doc = rng->NextBounded(10);
    } else {
      doc += 1 + rng->NextBounded(50);
    }
    postings.push_back(Posting{doc, freq});
  }
  return postings;
}

TEST(PostingsCodecTest, RoundTripsEmptyAndSingle) {
  PostingBlock block;
  ASSERT_TRUE(DecodeBoth(EncodePostings({}), &block).ok());
  EXPECT_TRUE(block.empty());
  std::vector<Posting> one = {Posting{42, 7}};
  ASSERT_TRUE(DecodeBoth(EncodePostings(one), &block).ok());
  EXPECT_EQ(block.ToPostings(), one);
}

TEST(PostingsCodecTest, RoundTripsRandomLists) {
  Pcg32 rng(31337);
  PostingBlock block;
  for (int trial = 0; trial < 50; ++trial) {
    auto postings = MakeFrequencySorted(1 + rng.NextBounded(500), &rng);
    ASSERT_TRUE(IsFrequencySorted(postings));
    ASSERT_TRUE(DecodeBoth(EncodePostings(postings), &block).ok());
    EXPECT_EQ(block.ToPostings(), postings) << "trial " << trial;
  }
}

TEST(PostingsCodecTest, CompressionApproachesPaperRatio) {
  // The paper reports ~6 bytes -> ~1 byte per posting for frequency-sorted
  // indexes [PZSD96]. A realistic skew (mostly freq 1, doc gaps < 2^14)
  // should land well under 3 bytes per posting here.
  Pcg32 rng(7);
  std::vector<Posting> postings;
  DocId doc = 0;
  for (int i = 0; i < 5000; ++i) {
    doc += 1 + rng.NextBounded(30);
    postings.push_back(Posting{doc, 1});
  }
  auto encoded = EncodePostings(postings);
  double bytes_per_posting =
      static_cast<double>(encoded.size()) / postings.size();
  EXPECT_LT(bytes_per_posting, 1.5);
}

TEST(PostingsCodecTest, CorruptHeaderRejected) {
  std::vector<uint8_t> junk = {0x00};  // Non-terminated vbyte.
  PostingBlock block;
  EXPECT_EQ(DecodeBoth(junk, &block).code(), StatusCode::kCorrupted);
}

TEST(PostingsCodecTest, TrailingGarbageRejected) {
  auto encoded = EncodePostings({Posting{1, 2}});
  encoded.push_back(0x81);
  PostingBlock block;
  EXPECT_EQ(DecodeBoth(encoded, &block).code(), StatusCode::kCorrupted);
}

TEST(PostingsCodecTest, TruncatedBodyRejected) {
  auto encoded = EncodePostings({Posting{1, 2}, Posting{5, 2}});
  encoded.resize(encoded.size() - 1);
  PostingBlock block;
  EXPECT_EQ(DecodeBoth(encoded, &block).code(), StatusCode::kCorrupted);
}

// --- PostingBlock / DecodePostingsInto (the hot-path block decoder) ---

// The on-disk image is pinned byte for byte: the block decoder reads the
// same PZSD96 layout the scalar decoder always wrote, so pages encoded
// before the block-decode rewrite stay readable and CRCs are unchanged.
// count=3; run {freq 9, len 2, doc 2, gap 1}; run {freq 4, len 1, doc 40}.
TEST(PostingsCodecTest, EncodedImageBytesArePinned) {
  const std::vector<uint8_t> expected = {0x83, 0x89, 0x82, 0x82,
                                         0x81, 0x84, 0x81, 0xA8};
  EXPECT_EQ(EncodePostings({{2, 9}, {3, 9}, {40, 4}}), expected);

  // Multi-byte vbyte: doc 300 = 44 + 2*128 -> continuation byte 0x2C,
  // terminator 0x82.
  const std::vector<uint8_t> large = {0x81, 0x81, 0x81, 0x2C, 0x82};
  EXPECT_EQ(EncodePostings({{300, 1}}), large);
}

// Asserts that `block` holds exactly `postings`: the same doc ids, and
// run extents that tile [0, size) with each run's freq equal to the
// frequency of every posting it covers.
void ExpectBlockHolds(const PostingBlock& block,
                      const std::vector<Posting>& postings) {
  ASSERT_EQ(block.size(), postings.size());
  uint32_t expect_begin = 0;
  for (const PostingRun& run : block.runs) {
    ASSERT_EQ(run.begin, expect_begin);
    ASSERT_LT(run.begin, run.end);
    for (uint32_t i = run.begin; i < run.end; ++i) {
      ASSERT_EQ(block.doc_ids[i], postings[i].doc) << "posting " << i;
      ASSERT_EQ(run.freq, postings[i].freq) << "posting " << i;
    }
    expect_begin = run.end;
  }
  EXPECT_EQ(expect_begin, block.size());
}

TEST(PostingBlockTest, DecodeMatchesEncoderInputOnRandomLists) {
  Pcg32 rng(90125);
  PostingBlock block;
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    auto postings = MakeFrequencySorted(1 + rng.NextBounded(1500), &rng);
    ASSERT_TRUE(DecodeBoth(EncodePostings(postings), &block).ok());
    ExpectBlockHolds(block, postings);
  }
}

TEST(PostingBlockTest, DecodeRoundTripsDocOrderedLists) {
  // Document-ordered layout: freq varies posting to posting, so runs
  // shrink to singletons — worst case for the run-extent machinery.
  Pcg32 rng(64);
  std::vector<Posting> postings;
  DocId doc = 0;
  for (int i = 0; i < 600; ++i) {
    doc += 1 + rng.NextBounded(40);
    postings.push_back(Posting{doc, 1 + rng.NextBounded(9)});
  }
  ASSERT_TRUE(IsDocumentOrdered(postings));
  PostingBlock block;
  ASSERT_TRUE(DecodeBoth(EncodePostings(postings), &block).ok());
  EXPECT_EQ(block.ToPostings(), postings);
}

TEST(PostingBlockTest, SteadyStateDecodeReusesBuffers) {
  Pcg32 rng(11);
  auto big = EncodePostings(MakeFrequencySorted(404, &rng));
  auto small = EncodePostings(MakeFrequencySorted(50, &rng));
  PostingBlock block;
  ASSERT_TRUE(DecodePostingsInto(big, &block).ok());
  const DocId* docs = block.doc_ids.data();
  const PostingRun* runs = block.runs.data();
  // Re-decoding pages that fit the high-water capacity must not touch
  // the allocator: the arrays stay exactly where they were.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(DecodePostingsInto(i % 2 ? small : big, &block).ok());
    EXPECT_EQ(block.doc_ids.data(), docs);
    EXPECT_EQ(block.runs.data(), runs);
  }
}

TEST(PostingBlockTest, FromPostingsMatchesDecode) {
  Pcg32 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    auto postings = MakeFrequencySorted(1 + rng.NextBounded(300), &rng);
    PostingBlock decoded, rebuilt;
    ASSERT_TRUE(
        DecodePostingsInto(EncodePostings(postings), &decoded).ok());
    rebuilt.FromPostings(postings);
    EXPECT_EQ(decoded, rebuilt) << "trial " << trial;
  }
}

TEST(PostingBlockTest, CorruptImagesFailTyped) {
  PostingBlock block;
  const auto expect_corrupted = [&block](std::vector<uint8_t> image) {
    Status s = DecodeBoth(image, &block);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
  };
  expect_corrupted({});                        // Empty image.
  expect_corrupted({0x00});                    // Non-terminated count.
  expect_corrupted({0xFF});                    // Count 127 > image size.
  expect_corrupted({0x81, 0x81, 0x80});        // Run length 0.
  expect_corrupted({0x81, 0x81, 0x82, 0x81, 0x81});  // Run 2 > count 1.
  expect_corrupted({0x00, 0x00, 0x00, 0x00, 0x00, 0x81});  // Over-long.
  auto valid = EncodePostings({{1, 2}, {5, 2}});
  auto trailing = valid;
  trailing.push_back(0x81);
  expect_corrupted(trailing);  // Trailing bytes after postings.
}

TEST(PostingBlockTest, WrappingRunLengthFailsTyped) {
  // Run length near 2^32: with filled > 0, a uint32 `filled + run` sum
  // wraps below count and would let DecodeRunDocs write past doc_ids
  // (heap overflow). The validation must be done in 64 bits.
  const std::vector<uint8_t> image = {
      0x83,                          // count = 3
      0x81, 0x82, 0x80, 0x81,        // run 1: freq 1, len 2, docs {0, 1}
      0x81,                          // run 2: freq 1
      0x7e, 0x7f, 0x7f, 0x7f, 0x8f,  // run 2: len 0xFFFFFFFE (2 + len wraps to 0)
      0x82,                          // run 2: first doc
      0x81, 0x81, 0x81, 0x81,        // run 2: sixteen single-byte gaps —
      0x81, 0x81, 0x81, 0x81,        //   enough for a full 16-byte SIMD
      0x81, 0x81, 0x81, 0x81,        //   pass to write past the single
      0x81, 0x81, 0x81, 0x81,        //   slot left in doc_ids
  };
  PostingBlock block;
  Status s = DecodeBoth(image, &block);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
}

TEST(PostingBlockTest, EveryTruncationOfValidImageFailsTyped) {
  // Fuzz-style sweep: no strict prefix of a valid image may decode (the
  // trailing-bytes check makes full-image consumption mandatory, so any
  // truncation is caught), and none may crash or misdecode silently.
  Pcg32 rng(404);
  PostingBlock block;
  for (int trial = 0; trial < 10; ++trial) {
    auto encoded =
        EncodePostings(MakeFrequencySorted(1 + rng.NextBounded(200), &rng));
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      std::vector<uint8_t> prefix(encoded.begin(), encoded.begin() + cut);
      Status s = DecodeBoth(prefix, &block);
      ASSERT_FALSE(s.ok()) << "prefix of " << cut << " bytes decoded";
      EXPECT_EQ(s.code(), StatusCode::kCorrupted);
    }
  }
}

TEST(PostingBlockTest, BitFlipsNeverCrashTheDecoder) {
  // Single-bit corruption sweep: a flipped image either still parses
  // (CRC catches it upstream in SimulatedDisk) or fails kCorrupted;
  // either way the decoder stays in bounds (ASan-checked in CI).
  Pcg32 rng(2718);
  auto encoded = EncodePostings(MakeFrequencySorted(120, &rng));
  PostingBlock block;
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = encoded;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      Status s = DecodeBoth(flipped, &block);
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kCorrupted);
      }
    }
  }
}

// --- Pages in the scale-1 corpus's gap mix ---
//
// MakeFrequencySorted's gaps are all one byte, and the test corpora's
// pages hold too few postings to fill a 16-byte window, so neither
// reaches the SIMD kernel's table path. These pages do: multi-byte gaps
// inside long runs, first doc ids of every vbyte length up to 2^32 - 2,
// and run and image ends at every offset mod 16.

// One doc-id gap in the corpus's byte-length mix: 75% one byte, ~24%
// two, 1% three, and 0.1% each four and five.
uint32_t DrawCorpusGap(Pcg32* rng) {
  const uint32_t r = rng->NextBounded(1000);
  if (r < 750) return 1 + rng->NextBounded(127);
  if (r < 988) return 128 + rng->NextBounded(16384 - 128);
  if (r < 998) return 16384 + rng->NextBounded((1u << 21) - 16384);
  if (r < 999) return (1u << 21) + rng->NextBounded((1u << 28) - (1u << 21));
  return (1u << 28) + rng->NextBounded(1u << 24);
}

// A frequency-sorted page of 1-3 runs in the corpus mix. Half the runs
// are short (1-24 postings: the scalar tail and the 8- and 16-gap
// boundaries), half are 1-500 long.
std::vector<Posting> MakeCorpusMixPage(Pcg32* rng) {
  const uint32_t num_runs = 1 + rng->NextBounded(3);
  const uint32_t freq_span = rng->NextBounded(2) == 0 ? 20 : 100000;
  uint32_t freq = num_runs + rng->NextBounded(freq_span);
  std::vector<Posting> postings;
  for (uint32_t r = 0; r < num_runs; ++r, --freq) {
    const uint32_t max_len = rng->NextBounded(2) == 0 ? 24 : 500;
    const uint32_t len = 1 + rng->NextBounded(max_len);
    std::vector<uint32_t> gaps(len - 1);
    uint64_t span = 0;
    for (uint32_t& gap : gaps) {
      gap = DrawCorpusGap(rng);
      span += gap;
    }
    // The run's last doc id stays <= 2^32 - 2; a quarter of the runs
    // end exactly there, the rest start at a random vbyte length.
    const uint64_t max_first = 0xFFFFFFFEull - span;
    uint64_t first = max_first;
    if (rng->NextBounded(4) != 0) {
      first = (rng->NextU32() >> rng->NextBounded(32)) % (max_first + 1);
    }
    DocId doc = static_cast<DocId>(first);
    postings.push_back(Posting{doc, freq});
    for (uint32_t gap : gaps) {
      doc += gap;
      postings.push_back(Posting{doc, freq});
    }
  }
  return postings;
}

size_t VByteSize(uint32_t v) {
  std::vector<uint8_t> buf;
  VByteEncode(v, &buf);
  return buf.size();
}

TEST(CorpusMixDecodeTest, BothPathsReturnTheEncoderInput) {
  Pcg32 rng(22);
  PostingBlock block;
  std::set<size_t> run_end_offsets, image_end_offsets, gap_sizes;
  size_t longest_run = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<Posting> postings = MakeCorpusMixPage(&rng);
    ASSERT_TRUE(IsFrequencySorted(postings));
    const std::vector<uint8_t> image = EncodePostings(postings);
    ASSERT_TRUE(DecodeBoth(image, &block).ok());
    ExpectBlockHolds(block, postings);

    // Where each run ends in the image, and which gap sizes it holds.
    size_t offset = VByteSize(static_cast<uint32_t>(postings.size()));
    for (const PostingRun& run : block.runs) {
      offset += VByteSize(run.freq) + VByteSize(run.end - run.begin) +
                VByteSize(block.doc_ids[run.begin]);
      for (uint32_t i = run.begin + 1; i < run.end; ++i) {
        const size_t bytes = VByteSize(block.doc_ids[i] - block.doc_ids[i - 1]);
        offset += bytes;
        gap_sizes.insert(bytes);
      }
      run_end_offsets.insert(offset % 16);
      longest_run = std::max<size_t>(longest_run, run.end - run.begin);
    }
    ASSERT_EQ(offset, image.size());
    image_end_offsets.insert(image.size() % 16);
  }
  EXPECT_EQ(run_end_offsets.size(), 16u);
  EXPECT_EQ(image_end_offsets.size(), 16u);
  EXPECT_EQ(gap_sizes, (std::set<size_t>{1, 2, 3, 4, 5}));
  EXPECT_GE(longest_run, 450u);
}

TEST(CorpusMixDecodeTest, TruncationsAndBitFlipsAgreeOnBothPaths) {
  // DecodeBoth holds the two paths to the same status on every damaged
  // image, and to the same block whenever the damage still parses.
  Pcg32 rng(2026);
  PostingBlock block;
  int pages = 0;
  while (pages < 8) {
    const std::vector<uint8_t> image = EncodePostings(MakeCorpusMixPage(&rng));
    if (image.size() < 64 || image.size() > 1024) continue;
    ++pages;
    for (size_t cut = 0; cut < image.size(); ++cut) {
      const std::vector<uint8_t> prefix(image.begin(), image.begin() + cut);
      ASSERT_EQ(DecodeBoth(prefix, &block).code(), StatusCode::kCorrupted)
          << "prefix of " << cut << " bytes";
    }
    for (size_t bit = 0; bit < image.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = image;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const Status s = DecodeBoth(flipped, &block);
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kCorrupted);
      }
    }
  }
}

}  // namespace
}  // namespace irbuf::storage
