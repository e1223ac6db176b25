#include "storage/codec.h"

#include <gtest/gtest.h>

#include "storage/page.h"
#include "util/rng.h"

namespace irbuf::storage {
namespace {

TEST(VByteTest, RoundTripsSmallAndLargeValues) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, 4294967295u}) {
    std::vector<uint8_t> buf;
    VByteEncode(v, &buf);
    size_t pos = 0;
    uint32_t decoded = 0;
    ASSERT_TRUE(VByteDecode(buf, &pos, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
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
  std::vector<uint8_t> buf;
  VByteEncode(100000, &buf);
  buf.pop_back();
  size_t pos = 0;
  uint32_t v = 0;
  EXPECT_FALSE(VByteDecode(buf, &pos, &v));
}

TEST(VByteTest, MultipleValuesStream) {
  std::vector<uint8_t> buf;
  for (uint32_t v = 0; v < 100; ++v) VByteEncode(v * 37, &buf);
  size_t pos = 0;
  for (uint32_t v = 0; v < 100; ++v) {
    uint32_t d = 0;
    ASSERT_TRUE(VByteDecode(buf, &pos, &d));
    EXPECT_EQ(d, v * 37);
  }
  EXPECT_EQ(pos, buf.size());
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
  EXPECT_TRUE(DecodePostings(EncodePostings({})).value().empty());
  std::vector<Posting> one = {Posting{42, 7}};
  auto decoded = DecodePostings(EncodePostings(one));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), one);
}

TEST(PostingsCodecTest, RoundTripsRandomLists) {
  Pcg32 rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    auto postings = MakeFrequencySorted(1 + rng.NextBounded(500), &rng);
    ASSERT_TRUE(IsFrequencySorted(postings));
    auto decoded = DecodePostings(EncodePostings(postings));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), postings) << "trial " << trial;
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
  EXPECT_FALSE(DecodePostings(junk).ok());
}

TEST(PostingsCodecTest, TrailingGarbageRejected) {
  auto encoded = EncodePostings({Posting{1, 2}});
  encoded.push_back(0x81);
  EXPECT_FALSE(DecodePostings(encoded).ok());
}

TEST(PostingsCodecTest, TruncatedBodyRejected) {
  auto encoded = EncodePostings({Posting{1, 2}, Posting{5, 2}});
  encoded.resize(encoded.size() - 1);
  EXPECT_FALSE(DecodePostings(encoded).ok());
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

TEST(PostingBlockTest, DecodeMatchesLegacyOnRandomLists) {
  Pcg32 rng(90125);
  PostingBlock block;
  for (int trial = 0; trial < 100; ++trial) {
    auto postings = MakeFrequencySorted(1 + rng.NextBounded(1500), &rng);
    auto encoded = EncodePostings(postings);
    auto legacy = DecodePostings(encoded);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(DecodePostingsInto(encoded, &block).ok()) << trial;
    EXPECT_EQ(block.ToPostings(), legacy.value()) << "trial " << trial;
    // Run extents tile [0, size), and each run's freq is the legacy
    // decoder's frequency for every posting it covers.
    uint32_t expect_begin = 0;
    for (const PostingRun& run : block.runs) {
      ASSERT_EQ(run.begin, expect_begin);
      ASSERT_LT(run.begin, run.end);
      for (uint32_t i = run.begin; i < run.end; ++i) {
        ASSERT_EQ(legacy.value()[i].freq, run.freq);
      }
      expect_begin = run.end;
    }
    EXPECT_EQ(expect_begin, block.size());
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
  ASSERT_TRUE(DecodePostingsInto(EncodePostings(postings), &block).ok());
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
    Status s = DecodePostingsInto(image, &block);
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
      0x81, 0x81, 0x81, 0x81,        // run 2: eight single-byte gaps — enough
      0x81, 0x81, 0x81, 0x81,        //   for one full bulk-decode word past
                                     //   the single slot left in doc_ids
  };
  PostingBlock block;
  Status s = DecodePostingsInto(image, &block);
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
      Status s = DecodePostingsInto(prefix, &block);
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
      Status s = DecodePostingsInto(flipped, &block);
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kCorrupted);
      }
    }
  }
}

}  // namespace
}  // namespace irbuf::storage
