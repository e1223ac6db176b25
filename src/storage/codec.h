// Posting-list compression for frequency-sorted inverted files, after
// Persin, Zobel & Sacks-Davis [PZSD96]: within a page, postings are grouped
// into runs of equal frequency; each run stores the frequency once and
// delta-encodes the ascending document ids, all as variable-byte integers.
// The paper reports ~6 bytes -> ~1 byte per posting with this scheme.
//
// Two decode paths share the one on-disk format (images and CRCs are
// byte-identical whichever path reads them):
//
//  * DecodePostings — the original scalar path, one vbyte at a time into
//    a fresh AoS std::vector<Posting>. Kept for cold callers (index
//    load/validation, tests) and as the `legacy/` side of the hot-path
//    A/B benches for one release cycle.
//  * DecodePostingsInto — the hot path: decodes into a caller-owned,
//    reusable struct-of-arrays PostingBlock. Gap bytes are consumed in
//    bulk (16 at a time under SSE4.1, 8 at a time portably — at ~1 byte
//    per compressed posting almost every gap is a single byte) and the
//    delta-decoded doc gaps are prefix-summed in a tight loop. Zero
//    allocations at steady state: the block's buffers are reused across
//    pages once they reach the high-water capacity.

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

/// Decodes one variable-byte integer starting at (*pos); advances *pos.
/// Returns false on truncated input.
bool VByteDecode(const std::vector<uint8_t>& in, size_t* pos,
                 uint32_t* value);

/// Encodes a frequency-sorted postings run into a compact byte image.
/// Layout: vbyte(count), then for each equal-frequency run:
/// vbyte(freq), vbyte(run_length), vbyte(first_doc), vbyte(gap)...
/// Postings must satisfy IsFrequencySorted().
std::vector<uint8_t> EncodePostings(const std::vector<Posting>& postings);

/// Decodes a byte image produced by EncodePostings (legacy scalar path).
Result<std::vector<Posting>> DecodePostings(const std::vector<uint8_t>& in);

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

}  // namespace irbuf::storage

#endif  // IRBUF_STORAGE_CODEC_H_
