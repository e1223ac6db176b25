// In-memory (decoded) representation of one inverted-list page, plus the
// page-level metadata RAP needs (the highest term weight on the page,
// computed at index-build time — Section 3.3, Equation 6).
//
// Decoded postings live in a struct-of-arrays PostingBlock (doc_ids[]
// and the equal-frequency run extents, each carrying its run's f_{d,t}
// once): buffer-pool frames cache the block, so a hit hands evaluators a
// fully decoded `const PostingBlock&` with zero decode work, and the
// block's buffers are reused across the frame's lifetime (zero
// steady-state allocations on the decode path).
// Cold callers that still want AoS postings use MaterializePostings().

#ifndef IRBUF_STORAGE_PAGE_H_
#define IRBUF_STORAGE_PAGE_H_

#include <cstdint>
#include <vector>

#include "storage/codec.h"
#include "storage/types.h"

namespace irbuf::storage {

/// The paper's page capacity: one tenth of a 4 KB page at 1 byte per
/// compressed posting holds 404 entries (Section 4.2).
inline constexpr uint32_t kDefaultPageSize = 404;

/// One decoded page of an inverted list.
struct Page {
  PageId id;
  /// Postings in frequency-descending order (doc-ascending within ties),
  /// decoded once into SoA form at fetch time.
  PostingBlock block;
  /// max_d w_{d,t} over this page = (highest f_{d,t} on the page) * idf_t.
  /// Stored on the page at database creation time, as Section 3.3 requires,
  /// so the replacement policy can read it without recomputation.
  double max_weight = 0.0;

  /// Highest frequency on the page (first run, by sort order).
  uint32_t MaxFreq() const {
    return block.runs.empty() ? 0 : block.runs.front().freq;
  }
  /// Lowest frequency on the page (last run, by sort order).
  uint32_t MinFreq() const {
    return block.runs.empty() ? 0 : block.runs.back().freq;
  }

  /// Compatibility accessor: materializes the AoS postings view by value
  /// (no lazy cache — frames are shared across threads in irbuf::serve,
  /// and the hot path never calls this).
  std::vector<Posting> MaterializePostings() const {
    return block.ToPostings();
  }

  /// Compatibility mutator for tests and builders that assemble pages
  /// from AoS postings.
  void SetPostings(const std::vector<Posting>& postings) {
    block.FromPostings(postings);
  }
};

/// Validates the frequency-sorted invariant of a postings run:
/// freq non-increasing, doc strictly increasing within equal freq. The
/// block overload accepts exactly the same posting sequences, so two
/// adjacent runs of one frequency pass when doc ids rise across them.
bool IsFrequencySorted(const std::vector<Posting>& postings);
bool IsFrequencySorted(const PostingBlock& block);

/// Validates the document-ordered invariant: doc strictly increasing.
bool IsDocumentOrdered(const std::vector<Posting>& postings);
bool IsDocumentOrdered(const PostingBlock& block);

}  // namespace irbuf::storage

#endif  // IRBUF_STORAGE_PAGE_H_
