// The paper's Ranking-Aware Policy (RAP), Section 3.3: the replacement
// value of a page is
//
//     value(page) = (max_d w_{d,t} on page) * w_{q,t}        (Equation 6)
//
// where w_{q,t} comes from the query currently being processed. The page
// with the lowest value is the victim. Consequences:
//  * first pages of inverted lists (highest stored weights) are retained;
//  * pages of terms dropped during refinement have w_{q,t} = 0 and are
//    evicted first, tail of the list before the head.
//
// The victim is the minimum of one total order over the resident pages,
// (value, -page_no, -term): equal values evict the higher page number
// first, then the higher term id. Selection is exact — the page a scan of
// every frame would pick — but no call scans every frame:
//  * Each term with resident pages keeps them in a list ordered by page
//    number, highest first, and caches its candidate: its own minimum
//    under the order. With w_{q,t} = 0 every value is 0, so the candidate
//    is the list head. With w_{q,t} > 0 it is also the head as long as
//    no resident page stores a higher max weight than a lower-numbered
//    one — always, on the frequency-sorted lists the paper stores, since
//    page max weights never increase along such a list. Otherwise
//    (document-ordered lists) the term's own pages are scanned.
//  * An indexed binary min-heap over the terms, keyed by candidate, holds
//    the victim at its root: ChooseVictim is O(1), OnInsert/OnEvict are
//    O(log T) for T terms with resident pages.
//  * SetQueryContext is O(1): it only marks the weights stale (a caller
//    may also mutate its context in place and republish the same
//    pointer). The next ChooseVictim re-reads w_{q,t} for the terms the
//    previous context weighted and the terms the new one names, and
//    re-keys those whose weight changed; every other term keeps
//    w_{q,t} = 0 and its key.
//
// Memory is O(capacity) and nothing is indexed by TermId. The per-frame
// arrays and the term table are sized at Attach. The per-term arrays
// grow to the most terms ever resident at once, so a warm pool's
// insert/evict path allocates nothing.

#ifndef IRBUF_BUFFER_RAP_POLICY_H_
#define IRBUF_BUFFER_RAP_POLICY_H_

#include <cstdint>
#include <vector>

#include "buffer/replacement_policy.h"

namespace irbuf::buffer {

class RapPolicy final : public ReplacementPolicy {
 public:
  const char* name() const override { return "RAP"; }

  /// Sizes the per-frame arrays and the term table from
  /// directory->capacity().
  void Attach(const FrameDirectory* directory) override;
  void OnInsert(FrameId frame) override;
  void OnHit(FrameId /*frame*/) override {}
  void OnEvict(FrameId frame) override;
  FrameId ChooseVictim() override;
  /// Every call counts as a change, including a republish of the same
  /// pointer after the caller mutated `*context` in place.
  void SetQueryContext(const QueryContext* context) override {
    context_ = context;
    context_stale_ = true;
  }
  void Reset() override;

  /// The replacement value the policy would assign to `frame` right now
  /// (exposed for tests and the ablation bench).
  double ValueOf(FrameId frame) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// A resident page, cached at OnInsert, linked into its term's list.
  struct Frame {
    double max_weight = 0.0;
    uint32_t page_no = 0;
    uint32_t term = kNone;  // Slot in terms_.
    /// Neighbours in the term's list: the next higher and lower page_no.
    FrameId higher = kInvalidFrame;
    FrameId lower = kInvalidFrame;
  };

  /// A term with resident pages and its candidate victim.
  struct Term {
    TermId term = 0;
    /// w_{q,t} as of the last refresh (or the insert that added the term).
    double weight = 0.0;
    FrameId head = kInvalidFrame;  // Highest resident page_no.
    /// Adjacent list pairs whose lower-numbered page stores the smaller
    /// max weight; 0 means the head stores the term's smallest.
    uint32_t inversions = 0;
    uint32_t heap_pos = kNone;
    uint32_t weighted_pos = kNone;  // Index in weighted_; kNone if w = 0.
    FrameId candidate = kInvalidFrame;
    uint32_t candidate_page = 0;
    double value = 0.0;  // Of the candidate.
  };

  /// First bucket of `term`'s probe run in table_.
  size_t Home(TermId term) const;
  /// Bucket of `term` in table_, or the empty bucket where it would go.
  size_t Probe(TermId term) const;
  uint32_t AddTerm(TermId term);
  void DropTerm(uint32_t slot);
  /// Stores the weight; a nonzero one also lists the term in weighted_.
  void SetWeight(uint32_t slot, double weight);

  bool OutOfOrder(FrameId higher, FrameId lower) const;
  void Link(FrameId frame, Term& term);
  void Unlink(FrameId frame, Term& term);

  /// Recomputes the term's candidate and restores the heap order.
  void Rekey(uint32_t slot);
  /// Re-reads w_{q,t} from the context for every term whose weight may
  /// have changed since the last refresh.
  void Refresh();

  bool Before(uint32_t a, uint32_t b) const;
  void Place(uint32_t pos, uint32_t slot);
  void Fix(uint32_t pos);

  std::vector<Frame> frames_;
  std::vector<Term> terms_;
  std::vector<uint32_t> free_terms_;
  /// Open addressing, linear probing: TermId -> slot in terms_.
  std::vector<uint32_t> table_;
  int shift_ = 0;
  std::vector<uint32_t> heap_;      // Slots; the root holds the victim.
  std::vector<uint32_t> weighted_;  // Slots with w_{q,t} != 0.
  std::vector<uint32_t> previous_;  // Refresh scratch.
  const QueryContext* context_ = nullptr;
  bool context_stale_ = false;
};

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_RAP_POLICY_H_
