// The buffer-pool abstraction shared by the single-threaded simulator
// pool (BufferManager) and the concurrent serving pool
// (serve::ConcurrentBufferPool): evaluators fetch pages through a
// pin/unpin protocol, so a fetched page cannot be evicted while its
// postings are being read.
//
// The pin protocol. FetchPinned returns a PinnedPage RAII guard; while
// the guard is alive the frame holding the page is pinned and will never
// be chosen as an eviction victim. The guard also records whether the
// fetch was a buffer hit or went to disk, so callers can attribute I/O
// per query without reading (racy, pool-global) stats deltas. Evaluators
// hold at most one pin at a time — page N's guard is released before
// page N+1 is fetched — so a pool with capacity >= the number of
// concurrent readers can always find a victim.
//
// The lease protocol. BeginQuery registers one query's term weights
// w_{q,t} with the pool for ranking-aware replacement and returns a
// QueryLease RAII guard; the weights stay part of the pool's
// replacement context until the guard dies. Evaluators take one lease
// per run, before their first fetch, so the pool — not its callers —
// decides whose weights RAP sees.

#ifndef IRBUF_BUFFER_BUFFER_POOL_H_
#define IRBUF_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <span>
#include <utility>

#include "buffer/query_context.h"
#include "util/attributes.h"
#include "storage/page.h"
#include "storage/types.h"
#include "util/status.h"

namespace irbuf::buffer {

/// Pool-level accounting. `misses` equals pages read from disk.
struct BufferStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    return fetches == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(fetches);
  }
};

class BufferPool;

/// An ordered page-access plan: the exact sequence of pages the caller
/// expects to fetch next, in fetch order, clipped to the pages it can
/// actually touch (an evaluator clips at its EvalControl page budget and
/// — on frequency-sorted lists — at the conversion table's
/// PagesToProcess bound, the pages its f_add threshold proves the scan
/// will never reach). A plan is a pure hint: pools that honor it warm
/// frames ahead of the demand fetches, pools that don't ignore it, and
/// either way every page an evaluator touches still arrives through
/// FetchPinned — rankings cannot depend on the plan.
using PageAccessPlan = std::span<const PageId>;

/// RAII pin on one buffer-resident page. While alive, the page cannot be
/// evicted; destruction (or Release) unpins it. Move-only.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(BufferPool* pool, const storage::Page* page, uint32_t frame,
             bool was_miss)
      : pool_(pool), page_(page), frame_(frame), was_miss_(was_miss) {}

  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  PinnedPage(PinnedPage&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        page_(std::exchange(other.page_, nullptr)),
        frame_(other.frame_),
        was_miss_(other.was_miss_) {}

  PinnedPage& operator=(PinnedPage&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = std::exchange(other.pool_, nullptr);
      page_ = std::exchange(other.page_, nullptr);
      frame_ = other.frame_;
      was_miss_ = other.was_miss_;
    }
    return *this;
  }

  ~PinnedPage() { Release(); }

  // lifetimebound: the pointer dies with the pin (see util/attributes.h).
  const storage::Page* get() const IRBUF_LIFETIME_BOUND { return page_; }
  const storage::Page& operator*() const IRBUF_LIFETIME_BOUND {
    return *page_;
  }
  const storage::Page* operator->() const IRBUF_LIFETIME_BOUND {
    return page_;
  }
  explicit operator bool() const { return page_ != nullptr; }

  /// True when this fetch read the page from disk (a buffer miss); false
  /// on a buffer hit. Per-fetch attribution stays correct when many
  /// queries share the pool concurrently.
  bool was_miss() const { return was_miss_; }

  /// The frame holding the page (stable while the pin is held).
  uint32_t frame() const { return frame_; }

  /// Unpins early; the guard becomes empty.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  const storage::Page* page_ = nullptr;
  uint32_t frame_ = 0;
  bool was_miss_ = false;
};

/// RAII registration of one query's term weights with a pool (see
/// BufferPool::BeginQuery). While alive, the weights are part of the
/// pool's replacement context; destruction (or End) removes them. Must
/// not outlive its pool. Move-only.
class QueryLease {
 public:
  QueryLease() = default;
  QueryLease(BufferPool* pool, uint64_t id) : pool_(pool), id_(id) {}

  QueryLease(const QueryLease&) = delete;
  QueryLease& operator=(const QueryLease&) = delete;

  QueryLease(QueryLease&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)), id_(other.id_) {}

  QueryLease& operator=(QueryLease&& other) noexcept {
    if (this != &other) {
      End();
      pool_ = std::exchange(other.pool_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }

  ~QueryLease() { End(); }

  /// Ends the lease early; the guard becomes empty.
  void End();

 private:
  BufferPool* pool_ = nullptr;
  uint64_t id_ = 0;
};

/// What query evaluation needs from a buffer pool. Implemented by the
/// single-threaded BufferManager and by the thread-safe serving pool;
/// evaluators are written against this interface only.
class BufferPool {
 public:
  virtual ~BufferPool() = default;

  /// Returns the requested page pinned, reading it from disk on a miss
  /// (evicting an unpinned victim if the pool is full). Fails with
  /// ResourceExhausted when every frame is pinned.
  virtual Result<PinnedPage> FetchPinned(PageId id) = 0;

  /// b_t: how many pages of `term`'s inverted list are buffer-resident.
  /// In a concurrent pool this is a racy-but-monotonic estimate — exactly
  /// what BAF's disk-read estimate d_t = max(p_t - b_t, 0) needs.
  virtual uint32_t ResidentPages(TermId term) const = 0;

  /// Leases `weights` (one query's w_{q,t}) to ranking-aware policies
  /// until the returned guard dies. The replacement context is the
  /// max-merge of every live lease (Section 3.3: "the highest w_{q,t}
  /// could be used") — except in a ConcurrentBufferPool with
  /// shared_context off, which uses the newest lease and keeps it after
  /// the lease ends.
  [[nodiscard]] virtual QueryLease BeginQuery(QueryContext weights) = 0;

  /// Point-in-time copy of the pool counters (taken atomically enough
  /// for reporting; exact when the pool is quiesced).
  virtual BufferStats StatsSnapshot() const = 0;

  /// Readahead slots this pool services (0 = readahead off, the
  /// default). Evaluators consult this before building a PageAccessPlan
  /// so a pool without readahead never pays the plan's construction.
  virtual size_t PrefetchDepth() const { return 0; }

  /// Hints the upcoming page-access sequence (see PageAccessPlan).
  /// Entries already resident or already in flight are skipped by
  /// implementations; a failed or dropped readahead read is silent —
  /// the demand fetch retries it and degrades exactly as it would have
  /// without the hint. Default: no-op (the single-threaded
  /// BufferManager and test pools ignore plans).
  virtual void Prefetch(PageAccessPlan plan) { (void)plan; }

 private:
  friend class PinnedPage;
  friend class QueryLease;

  /// Drops one pin from `frame`. Called only by PinnedPage.
  virtual void Unpin(uint32_t frame) = 0;

  /// Removes lease `id`'s weights. Called only by QueryLease.
  virtual void EndQuery(uint64_t id) = 0;
};

inline void PinnedPage::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

inline void QueryLease::End() {
  if (pool_ != nullptr) {
    std::exchange(pool_, nullptr)->EndQuery(id_);
  }
}

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_BUFFER_POOL_H_
