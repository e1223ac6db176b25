// Posting-list compression for frequency-sorted inverted files, after
// Persin, Zobel & Sacks-Davis [PZSD96]: within a page, postings are grouped
// into runs of equal frequency; each run stores the frequency once and
// delta-encodes the ascending document ids, all as variable-byte integers.
// The paper reports ~6 bytes -> ~1 byte per posting with this scheme.
//
// One decoder, DecodePostingsInto, reads every page image: buffer-pool
// misses, readahead and the corpus load's validation alike. It decodes
// into a caller-owned, reusable struct-of-arrays PostingBlock (zero
// allocations at steady state: the block's buffers are reused across
// pages once they reach the high-water capacity). On x86-64 with
// SSSE3 it runs a table-driven kernel after Masked VByte (Plaisance,
// Kurz & Lemire, 2015): each 8-byte window's terminator bits select a
// shuffle that widens every complete one- or two-byte gap into a 16-bit
// lane, and the gap -> doc-id prefix sum stays in registers. Elsewhere,
// and for every gap of three or more bytes, it reads one vbyte at a
// time. Both paths read the same images and return the same blocks.

#ifndef IRBUF_STORAGE_CODEC_H_
#define IRBUF_STORAGE_CODEC_H_

#include <cstdint>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace irbuf::storage {

/// Appends the variable-byte encoding of `value` to `out` (7 bits per byte,
/// high bit set on the terminating byte).
void VByteEncode(uint32_t value, std::vector<uint8_t>* out);

/// Encodes a frequency-sorted postings run into a compact byte image.
/// Layout: vbyte(count), then for each equal-frequency run:
/// vbyte(freq), vbyte(run_length), vbyte(first_doc), vbyte(gap)...
/// Postings must satisfy IsFrequencySorted().
std::vector<uint8_t> EncodePostings(const std::vector<Posting>& postings);

/// One equal-frequency run inside a PostingBlock: postings
/// [begin, end) of the block all have frequency `freq`.
struct PostingRun {
  uint32_t freq = 0;
  uint32_t begin = 0;
  uint32_t end = 0;

  bool operator==(const PostingRun&) const = default;
};

/// Struct-of-arrays decoded page: doc_ids[] plus the equal-frequency
/// run extents the evaluators' threshold logic operates on (within a
/// run every posting shares f_{d,t}, so insert/add/drop decisions and
/// the hoisted w_{d,t} * w_{q,t} product are per-run, not per-posting).
/// A posting's frequency is its run's `freq`; no per-posting copy is
/// kept. Buffers keep their capacity across Clear(), so a block owned
/// by a buffer-pool frame stops allocating once it has seen a
/// full-sized page.
struct PostingBlock {
  std::vector<DocId> doc_ids;
  std::vector<PostingRun> runs;

  size_t size() const { return doc_ids.size(); }
  bool empty() const { return doc_ids.empty(); }

  /// Empties the block, keeping buffer capacity.
  void Clear() {
    doc_ids.clear();
    runs.clear();
  }

  /// Rebuilds the block from AoS postings (must be run-groupable, i.e.
  /// consecutive equal frequencies — both physical list orders qualify).
  void FromPostings(const std::vector<Posting>& postings);

  /// Materializes the AoS view (compatibility path for cold callers).
  std::vector<Posting> ToPostings() const;

  bool operator==(const PostingBlock&) const = default;
};

/// Decodes a byte image produced by EncodePostings into `*out`,
/// reusing its buffers. Malformed images (truncation, corrupt run
/// lengths, over-long vbytes, trailing bytes) fail with a typed
/// kCorrupted status — never a silent misdecode.
Status DecodePostingsInto(const std::vector<uint8_t>& in,
                          PostingBlock* out);

namespace internal {

/// DecodePostingsInto with the portable one-vbyte-at-a-time loop, never
/// the SIMD kernel: the oracle the decoder tests hold the dispatched
/// path to (same statuses, same blocks, on every image).
Status DecodePostingsIntoScalar(const std::vector<uint8_t>& in,
                                PostingBlock* out);

}  // namespace internal

}  // namespace irbuf::storage

#endif  // IRBUF_STORAGE_CODEC_H_
