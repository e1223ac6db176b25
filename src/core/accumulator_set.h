// The candidate set A of the filtering algorithms: partial scores for
// documents that may end up among the n highest-ranked answers. Its size
// is the paper's memory metric — unfiltered evaluation frequently keeps
// accumulators for more than half the collection (Section 2.4).
//
// Implemented as a flat open-addressing table (power-of-two capacity,
// linear probing): one probe touches one cache line holding the key,
// where std::unordered_map chases a bucket pointer per lookup. The
// paper's algorithms never erase an accumulator mid-query, so the table
// is tombstone-free and probe chains never degrade. DocId 0xFFFFFFFF is
// reserved as the empty-slot sentinel (collections are bounded far
// below 2^32 documents).
//
// Beside the table sits a presence bitmap with one bit per document id,
// sized to cover the largest id inserted so far: 21 KB of live bits for
// the 173,252-document WSJ profile, so it stays in cache. The DF/BAF add
// mode probes once per posting for documents that are almost never
// candidates; the bitmap answers that "no" with one bit test, and only
// a set bit walks the table. Doc ids are dense collection ordinals, so
// the cost is bounded by the collection size: 1 bit per document for
// each live evaluation run.

#ifndef IRBUF_CORE_ACCUMULATOR_SET_H_
#define IRBUF_CORE_ACCUMULATOR_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/types.h"
#include "util/dcheck.h"

namespace irbuf::core {

class AccumulatorSet {
 public:
  AccumulatorSet() = default;

  /// Pointer to d's accumulator, or nullptr when d is not a candidate.
  /// Never allocates: this is the probe the DF "add" mode and the
  /// quit/continue budget check issue once per posting. A clear
  /// presence bit answers "not a candidate" without touching the
  /// table; it also covers the sentinel id, which is never inserted.
  double* FindOrNull(DocId d) {
    if (!Present(d)) return nullptr;
    size_t i = Hash(d) & mask_;
    while (true) {
      const DocId k = keys_[i];
      if (k == d) return &vals_[i];
      if (k == kEmpty) {
        IRBUF_DCHECK(false, "presence bit set for a doc not in the table");
        return nullptr;
      }
      i = (i + 1) & mask_;
    }
  }
  const double* FindOrNull(DocId d) const {
    return const_cast<AccumulatorSet*>(this)->FindOrNull(d);
  }

  /// d's accumulator, inserted as 0.0 when absent (the DF "ins" mode:
  /// one probe sequence serves both the lookup and the insertion).
  double& FindOrInsert(DocId d) {
    bool inserted;
    return FindOrInsertImpl(d, &inserted);
  }

  /// Inserts a new accumulator and returns a reference to it. Like
  /// unordered_map::emplace, an already-present d keeps its current
  /// value (`initial` is only stored on true insertion).
  double& Insert(DocId d, double initial) {
    bool inserted;
    double& v = FindOrInsertImpl(d, &inserted);
    if (inserted) v = initial;
    return v;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Empties the set, keeping the table and bitmap allocations.
  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    std::fill(present_.begin(), present_.end(), 0);
    size_ = 0;
  }

  /// Iteration over (doc, accumulated score) in unspecified order, as
  /// with the map this replaced (SelectTopN's result is independent of
  /// visit order: WorseFirst is a total order on (score, doc)).
  class const_iterator {
   public:
    using value_type = std::pair<DocId, double>;

    value_type operator*() const {
      return {set_->keys_[i_], set_->vals_[i_]};
    }
    const_iterator& operator++() {
      ++i_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    friend class AccumulatorSet;
    const_iterator(const AccumulatorSet* set, size_t i)
        : set_(set), i_(i) {
      SkipEmpty();
    }
    void SkipEmpty() {
      while (i_ < set_->keys_.size() && set_->keys_[i_] == kEmpty) ++i_;
    }

    const AccumulatorSet* set_;
    size_t i_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, keys_.size()); }

 private:
  static constexpr DocId kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kInitialCapacity = 16;

  /// Fibonacci hashing: the golden-ratio multiplier spreads consecutive
  /// and strided doc ids across the table; the top product bits feed the
  /// mask (low multiply bits alone alias on stride-2^k patterns).
  static size_t Hash(DocId d) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(d) * 0x9E3779B97F4A7C15ull) >> 32);
  }

  bool Present(DocId d) const {
    const size_t w = d >> 6;
    return w < present_.size() && ((present_[w] >> (d & 63)) & 1) != 0;
  }

  double& FindOrInsertImpl(DocId d, bool* inserted) {
    IRBUF_DCHECK(d != kEmpty, "DocId 0xFFFFFFFF is reserved");
    // Grow at 1/2 load. The DF add mode probes for documents that are
    // mostly NOT candidates, and linear-probing miss chains blow up
    // quadratically with load (~32 probes at 7/8 load vs ~2.5 at 1/2),
    // so the table trades memory — still well under the map's per-node
    // overhead — for guaranteed-short misses.
    if ((size_ + 1) * 2 > mask_ + 1) Grow();
    if ((d >> 6) >= present_.size()) GrowPresence(d);
    // LINT-HOT-LOOP: accumulator probe chain.
    size_t i = Hash(d) & mask_;
    while (true) {
      const DocId k = keys_[i];
      if (k == d) {
        *inserted = false;
        return vals_[i];
      }
      if (k == kEmpty) {
        keys_[i] = d;
        vals_[i] = 0.0;
        present_[d >> 6] |= uint64_t{1} << (d & 63);
        ++size_;
        *inserted = true;
        return vals_[i];
      }
      i = (i + 1) & mask_;
    }
    // LINT-HOT-LOOP-END
  }

  // Doubling growth: each element is moved O(1) times amortized, so the
  // per-posting cost inside the evaluator hot loops stays constant.
  // irbuf-analyzer: amortized-alloc
  void Grow() {
    const size_t new_cap = mask_ == 0 ? kInitialCapacity : (mask_ + 1) * 2;
    std::vector<DocId> old_keys = std::move(keys_);
    std::vector<double> old_vals = std::move(vals_);
    keys_.assign(new_cap, kEmpty);
    vals_.assign(new_cap, 0.0);
    mask_ = new_cap - 1;
    for (size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      size_t i = Hash(old_keys[j]) & mask_;
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = old_keys[j];
      vals_[i] = old_vals[j];
    }
  }

  // Sizes the bitmap to cover d, rounded up to a power-of-two word
  // count: ascending ids (a frequency-sorted run) reallocate O(log n)
  // times, not once per 64 ids, and the bitmap never exceeds twice the
  // id range it covers.
  // irbuf-analyzer: amortized-alloc
  void GrowPresence(DocId d) {
    present_.resize(std::bit_ceil((static_cast<size_t>(d) >> 6) + 1), 0);
  }

  std::vector<DocId> keys_;
  std::vector<double> vals_;
  std::vector<uint64_t> present_;  // Bit d set iff d is a key.
  size_t size_ = 0;
  size_t mask_ = 0;  // capacity - 1; 0 while the table is unallocated.
};

}  // namespace irbuf::core

#endif  // IRBUF_CORE_ACCUMULATOR_SET_H_
