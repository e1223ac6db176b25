// The thread-safe serving counterpart of buffer::BufferManager: a fixed
// pool of page frames shared by every worker of a QueryServer, accessed
// exclusively through the pin/unpin protocol of buffer::BufferPool.
//
// Locking design (lock order: lease -> latch -> stripe; never the
// reverse while acquiring; prefetch_mu_ is a standalone leaf — never
// held while acquiring any other pool lock):
//
//  * The live query leases (BeginQuery) sit behind their own mutex,
//    taken once per query start and end, never per page. It is held
//    across the context publish so publishes land in lease order.
//  * The page table is striped: each stripe owns a mutex, the page
//    table of its hash slice (resident and loading entries, see below)
//    and a condition variable that fetches joining a load block on.
//    Fetches of pages in different stripes never contend here.
//  * One pool-wide latch serializes everything the (single-threaded)
//    replacement policy and free list touch: victim choice, frame
//    metadata, OnInsert/OnHit/OnEvict, the prefetch-tagged window and
//    the published query context.
//  * Disk reads — and the optional simulated device delay — happen with
//    NO lock held: the target frame is reserved with a pin and is
//    unmapped, so no other thread can reach it, and concurrent misses
//    overlap their I/O time.
//  * Per-frame pin counts, per-term residency (b_t) and the pool
//    counters are atomics; recording never takes a lock.
//
// The async miss pipeline. Every page the pool knows has one entry in
// its stripe's page table, in one of two states:
//
//        loading ──── publish ────► resident
//   (no frame yet)                (entry holds the frame)
//        │
//        └── the load fails: the entry is erased
//
// The first fetch — demand miss or readahead — to find a page absent
// inserts a loading entry and becomes the page's loader. It reserves a
// frame and reads with no lock held: SimulatedDisk::BeginRead, the
// configured device delay, then FinishRead's CRC check and decode on
// the loader's thread. Publishing sets the frame in the entry (waiters
// wake to a hit); a failed load erases it (waiters retry as loaders). A
// loading entry is not resident: hits, PinCount and eviction see only
// entries with a frame. Because the table is checked before any read is
// issued, a second fetch of a page mid-load never issues a second disk
// read: it joins the load, marking the entry demand_joined, and waits
// on the stripe's condition variable (the wait is attributed to the
// kAsyncWait span stage), then counts as a coalesced hit; a readahead
// of the page is dropped. Misses therefore equal demand disk reads
// *exactly*, and misses + prefetch reads equal every read the pool ever
// issued (contracts::CheckDiskReadConservation, checked at destruction).
//
// Decode/I/O overlap falls out of the split read: while one loader
// decodes on its own thread, other loaders' device delays run
// concurrently — page n decodes while page n+1's read is in flight.
//
// Readahead (prefetch_depth > 0). Prefetch(plan) enqueues the hinted
// pages that have no entry (neither resident nor loading) onto a
// bounded queue drained by prefetch_depth background I/O workers. A
// readahead load reads like a demand miss but stays outside the
// circuit breaker: it makes one attempt with no retry, takes no probe
// slot, records no outcome, and is not issued at all unless the breaker
// is closed. The breaker's state is therefore a function of demand
// reads alone. A faulted readahead read is silently dropped and the
// demand fetch later makes its own resilient read. On success the page
// is published into an *unpinned, prefetch-tagged* frame: the
// replacement policy is NOT told about the frame (no OnInsert), so
// victim choice is undistorted until a demand fetch touches the page —
// promotion then runs OnInsert, unmarks the tag and counts
// prefetch_used. A load that a demand fetch joined publishes promoted
// instead: the page was demanded before it arrived. Tagged frames live
// in a bounded FIFO window (min(2*prefetch_depth, capacity/2)); when
// the window is full the next readahead reclaims the oldest tagged
// frame (counted prefetch_wasted — it was read but never demanded), so
// readahead can never consume more than the window's share of the
// pool. Demand evictions reclaim tagged frames only as a last resort
// when every untagged frame is pinned.
// With prefetch_depth == 0 the pipeline is inert: no worker threads
// exist, Prefetch returns immediately, no frame is ever tagged, and the
// pool's counters, policy-callback sequence and frame handout order are
// bit-identical to the pre-async pool.
//
// Single-threaded determinism: driven by one thread with prefetch off,
// the pool makes exactly the same decisions as BufferManager with the
// same policy — free frames are handed out lowest-id first, the policy
// sees the same OnInsert/OnHit/OnEvict sequence, and the pinned-victim
// fallback never engages (the single caller holds no pin while
// fetching). The differential tests in tests/serve/ assert this
// equivalence.

#ifndef IRBUF_SERVE_CONCURRENT_BUFFER_POOL_H_
#define IRBUF_SERVE_CONCURRENT_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/policy_factory.h"
#include "buffer/replacement_policy.h"
#include "fault/resilient.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/page.h"
#include "storage/simulated_disk.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace irbuf::serve {

/// Configuration of a ConcurrentBufferPool.
struct ConcurrentPoolOptions {
  /// Pool capacity in pages (>= 1). Must exceed the number of pages the
  /// workers can pin at once (the evaluators pin one page each).
  size_t capacity = 256;
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  /// Simulated device latency charged per miss, slept with no lock held.
  /// 0 disables. The paper's cost model puts a disk read at ~10.5 ms
  /// (storage::CostModel, PaperEra); scaling that to microseconds keeps
  /// the benches fast while preserving the property that matters for a
  /// closed-loop load: misses of different workers overlap in time.
  /// Under an injected latency spike the delay is multiplied by the
  /// spike factor the disk reports. The delay models the device
  /// transfer, so it is slept between the read's two phases (after
  /// BeginRead, before the FinishRead decode).
  uint32_t io_delay_us_per_miss = 0;
  /// Readahead slots: the number of background I/O worker threads that
  /// drain Prefetch() plans, and hence the bound on outstanding
  /// readahead reads. 0 (the default) disables readahead entirely — no
  /// threads are created and the pool behaves bit-identically to the
  /// synchronous pool.
  size_t prefetch_depth = 0;
  /// Retry/backoff + circuit breaker in front of miss-path reads.
  /// Disabled by default: reads then call the disk directly. Readahead
  /// reads bypass it and run only while its breaker is closed, so the
  /// breaker counts demand reads alone.
  fault::ResilienceOptions resilience;
  /// Span recorder for the miss path (a kMissRead span around the disk
  /// read + simulated device delay on the loading worker's thread; a
  /// kPrefetchIssue span around each readahead load on the I/O worker's
  /// thread; a kAsyncWait span on a fetch that blocked joining an
  /// in-flight load). nullptr = tracing off, one null-test per miss.
  obs::SpanRecorder* span_recorder = nullptr;
  /// Measure lock-contention waits on the pool-wide policy latch and
  /// the page-table stripes (see LatchWaitStats/StripeWaitStats). Off
  /// by default: locking then keeps the uninstrumented fast path.
  bool profile_contention = false;
  /// The replacement context from the live query leases. On: the
  /// max-merge of every query in flight (Section 3.3's multi-user
  /// sketch), republished whenever a lease begins or ends. Off: the
  /// newest lease, kept after it ends — last writer wins, the honest
  /// per-query semantics under concurrency.
  bool shared_context = false;
};

/// Readahead + coalescing accounting (all zero with prefetch off except
/// coalesced_misses/device_reads, which the demand path also feeds).
struct PoolPrefetchStats {
  /// Readahead reads that completed successfully into a frame.
  uint64_t issued = 0;
  /// Prefetched pages later touched by a demand fetch (promoted).
  uint64_t used = 0;
  /// Prefetched pages reclaimed before any demand touch.
  uint64_t wasted = 0;
  /// Demand fetches that joined an in-flight load instead of issuing
  /// their own disk read (counted as hits in BufferStats).
  uint64_t coalesced_misses = 0;
  /// Every successful device read the pool issued (demand + readahead);
  /// conservation: misses + issued == device_reads at quiescence.
  uint64_t device_reads = 0;
};

/// A fixed-capacity, thread-safe buffer pool over the simulated disk.
class ConcurrentBufferPool final : public buffer::FrameDirectory,
                                   public buffer::BufferPool {
 public:
  /// Observes every frame eviction, called under the pool latch.
  /// `policy_victim` is true when the replacement policy chose the frame
  /// (OnEvict ran); false when a prefetch-tagged frame — which the
  /// policy never knew — was reclaimed. Test hook for asserting victim
  /// sequences; keep the callback trivial.
  using EvictionObserver = std::function<void(PageId, bool policy_victim)>;

  /// The disk must outlive the pool.
  ConcurrentBufferPool(const storage::SimulatedDisk* disk,
                       ConcurrentPoolOptions options);

  /// Joins the readahead workers, then checks the quiescent-state
  /// contracts (all pins released, stats conservation, device-read
  /// conservation, no loading entry left) under IRBUF_DCHECK.
  ~ConcurrentBufferPool() override;

  ConcurrentBufferPool(const ConcurrentBufferPool&) = delete;
  ConcurrentBufferPool& operator=(const ConcurrentBufferPool&) = delete;

  // BufferPool:
  Result<buffer::PinnedPage> FetchPinned(PageId id) override
      IRBUF_EXCLUDES(latch_mu_);

  /// b_t, from a relaxed atomic — a racy-but-honest estimate, exactly
  /// what BAF's d_t = max(p_t - b_t, 0) needs under concurrency.
  /// Prefetched pages count from the moment they are published: they
  /// are buffer-resident and a fetch of them will not read the disk.
  uint32_t ResidentPages(TermId term) const override {
    return term < term_resident_.size()
               ? term_resident_[term].load(std::memory_order_relaxed)
               : 0;
  }

  /// Leases `weights` to the policy; what the policy sees follows
  /// options.shared_context. Taken once per evaluation run.
  buffer::QueryLease BeginQuery(buffer::QueryContext weights) override
      IRBUF_EXCLUDES(lease_mu_, latch_mu_);

  buffer::BufferStats StatsSnapshot() const override;

  /// Readahead slots (== options.prefetch_depth). Evaluators consult
  /// this before building a PageAccessPlan.
  size_t PrefetchDepth() const override { return options_.prefetch_depth; }

  /// Enqueues hinted pages for the background I/O workers. Pages
  /// already resident or already loading are skipped at the hint, one
  /// stripe probe each, so they never reach the queue: on a fully
  /// resident pool, queueing them woke workers only to find each page
  /// resident, and that churn cost more evaluator CPU than the probes
  /// do (DESIGN.md §13 has the measurements). The rest are queued under
  /// one prefetch_mu_ acquisition, waking one worker per queued page;
  /// entries beyond the queue bound are dropped — a plan is a hint, not
  /// a contract. Every hinted page counts as exactly one of
  /// buffer.prefetch_hints_{queued,skipped,dropped}. No-op when
  /// prefetch_depth == 0.
  void Prefetch(buffer::PageAccessPlan plan) override
      IRBUF_EXCLUDES(prefetch_mu_);

  /// Readahead/coalescing counters (relaxed; exact at quiescence).
  PoolPrefetchStats PrefetchStatsSnapshot() const;

  /// Installs `observer` (nullptr to clear) for eviction-sequence
  /// tests. Install before traffic; runs under the latch.
  void SetEvictionObserver(EvictionObserver observer)
      IRBUF_EXCLUDES(latch_mu_) {
    MutexLock latch(latch_mu_);
    eviction_observer_ = std::move(observer);
  }

  /// Resolves the buffer.* metric handles in `registry` (same names as
  /// BufferManager::BindMetrics, plus the readahead counters
  /// prefetch_{issued,used,wasted}, coalesced_misses and
  /// prefetch_hints_{queued,skipped,dropped}). Call before serving
  /// starts; pass nullptr to unbind. `prefix` replaces the leading
  /// "buffer" of every instrument name — the sharded pool binds its
  /// per-shard pools as "shard0.buffer", "shard1.buffer", ... so shard
  /// hit rates are individually observable in one registry.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "buffer");

  const char* policy_name() const {
    MutexLock lock(latch_mu_);
    return policy_->name();
  }

  /// Pins currently held on `id`'s frame (0 when not resident). Test
  /// helper; the answer may be stale by the time it returns.
  uint32_t PinCount(PageId id) const;

  /// Null unless options.resilience.enabled constructed one.
  const fault::ResilientReader* resilience() const {
    return resilient_.get();
  }

  /// Wait accounting for the pool-wide policy latch / the page-table
  /// stripes (all 16 stripes share the one stats object — the question
  /// is "how long do fetches wait", not "which stripe"). Populated only
  /// when options.profile_contention is on; non-const so callers can
  /// Bind an obs::MutexWaitBinding or Reset between measurement cells.
  MutexWaitStats* latch_wait_stats() { return &latch_waits_; }
  MutexWaitStats* stripe_wait_stats() { return &stripe_waits_; }

  // FrameDirectory (policy callbacks run under the latch):
  const buffer::FrameMeta& Meta(buffer::FrameId frame) const override {
    return frames_[frame].meta;
  }
  size_t capacity() const override { return frames_.size(); }

 private:
  struct Frame {
    storage::Page page;
    buffer::FrameMeta meta;  // Guarded by latch_mu_.
    uint64_t insert_tick = 0;  // Guarded by latch_mu_.
    /// Published by a readahead worker and not yet demand-touched: the
    /// replacement policy does not know this frame (no OnInsert ran);
    /// it lives in prefetch_window_ instead. Guarded by latch_mu_.
    bool prefetch_tagged = false;
    /// Outstanding pins; > 0 makes the frame ineligible for eviction.
    /// fetch_sub uses release so a reader's last page access
    /// happens-before the frame's reuse (evictors load with acquire).
    std::atomic<uint32_t> pins{0};
  };

  /// One page-table entry (see the diagram atop this file): resident
  /// once `frame` is set, loading while it is kInvalidFrame.
  struct PageEntry {
    buffer::FrameId frame = buffer::kInvalidFrame;
    /// A demand fetch is waiting on this load; a joined readahead
    /// publishes promoted (OnInsert, untagged, counted prefetch_used).
    bool demand_joined = false;
  };

  /// One slice of the page table.
  struct Stripe {
    /// Acquired after latch_mu_ when both are needed (see the
    /// lock-ordering table in DESIGN.md); never held while acquiring
    /// latch_mu_.
    Mutex mu;
    CondVar cv;
    /// Packed PageId -> entry, for every resident or loading page of
    /// this slice.
    std::unordered_map<uint64_t, PageEntry> pages IRBUF_GUARDED_BY(mu);
  };

  static constexpr size_t kStripes = 16;

  Stripe& StripeFor(uint64_t key) {
    // Pack() keeps the term in the high bits; mix so consecutive pages
    // of one hot term spread over stripes.
    return stripes_[(key * 0x9E3779B97F4A7C15ull) >> 60];
  }
  const Stripe& StripeFor(uint64_t key) const {
    return const_cast<ConcurrentBufferPool*>(this)->StripeFor(key);
  }

  // BufferPool:
  void Unpin(uint32_t frame) override;
  void EndQuery(uint64_t id) override IRBUF_EXCLUDES(lease_mu_, latch_mu_);

  /// Hands the policy `context`; the pool keeps the shared_ptr alive so
  /// the policy's raw pointer stays valid until the next publish.
  void PublishLocked(std::shared_ptr<const buffer::QueryContext> context)
      IRBUF_REQUIRES(lease_mu_) IRBUF_EXCLUDES(latch_mu_);

  /// Evicts one unpinned, untagged frame and returns it, or
  /// kInvalidFrame when every such frame is pinned. Prefetch-tagged
  /// frames are invisible here — the policy never knew them, so neither
  /// ChooseVictim nor the fallback scan may pick one (reclaim is
  /// separate, see ReclaimPrefetchedLocked). Takes the victim's stripe
  /// mutex nested inside the latch (the one legal nesting order).
  buffer::FrameId EvictOneLocked() IRBUF_REQUIRES(latch_mu_);

  /// Reclaims the oldest unpinned prefetch-tagged frame (FIFO over the
  /// window), counting it prefetch_wasted, or returns kInvalidFrame if
  /// none can be freed. No policy callback runs — the policy never saw
  /// the frame.
  buffer::FrameId ReclaimPrefetchedLocked() IRBUF_REQUIRES(latch_mu_);

  /// Promotes a prefetch-tagged frame on its first demand touch: the
  /// policy finally learns the frame (OnInsert — to the policy this IS
  /// the insertion), the tag clears, the window forgets it and
  /// prefetch_used is counted.
  void PromoteLocked(buffer::FrameId frame) IRBUF_REQUIRES(latch_mu_);

  /// Erases the loading entry for `key` and wakes waiters (the load
  /// failed or could not get a frame; waiters retry as loaders).
  void AbandonLoad(uint64_t key);

  /// Sets the loader's own entry for `key` resident in `frame` and
  /// wakes the stripe's waiters. Returns whether a demand fetch joined
  /// the load.
  bool PublishEntry(uint64_t key, buffer::FrameId frame)
      IRBUF_REQUIRES(latch_mu_);

  /// Runs one disk read into `frame.page` with no pool lock held:
  /// BeginRead, the simulated device delay, then FinishRead. Wraps a
  /// demand load's attempts in the resilient reader when one is
  /// configured (a readahead load makes one bare attempt), and either
  /// in a kMissRead (demand) or kPrefetchIssue (readahead) span. Counts
  /// device_reads_ on success.
  Status ExecuteLoad(PageId id, Frame& frame, bool prefetch)
      IRBUF_EXCLUDES(latch_mu_);

  /// Returns the reservation frame for a failed load to the free list
  /// and abandons the loading entry.
  void ReleaseFailedLoad(uint64_t key, buffer::FrameId frame)
      IRBUF_EXCLUDES(latch_mu_);

  /// Background I/O worker: drains prefetch_queue_ until shutdown.
  void PrefetchWorkerLoop();

  /// Loads one hinted page end to end (dequeue side of Prefetch),
  /// unless it gained an entry after the hint, or the breaker is not
  /// closed.
  void PrefetchOne(PageId id);

  struct MetricHandles {
    obs::Counter* fetches = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* victim_fallbacks = nullptr;
    obs::Counter* prefetch_issued = nullptr;
    obs::Counter* prefetch_used = nullptr;
    obs::Counter* prefetch_wasted = nullptr;
    obs::Counter* coalesced_misses = nullptr;
    obs::Counter* prefetch_hints_queued = nullptr;
    obs::Counter* prefetch_hints_skipped = nullptr;
    obs::Counter* prefetch_hints_dropped = nullptr;
  };

  const storage::SimulatedDisk* disk_;
  const ConcurrentPoolOptions options_;

  std::array<Stripe, kStripes> stripes_;

  /// The live query leases. Lock order: lease_mu_ before latch_mu_.
  Mutex lease_mu_;
  buffer::LiveLeases leases_ IRBUF_GUARDED_BY(lease_mu_);

  /// Pool-wide latch: policy_, free_frames_, frame metadata, fetch_tick_,
  /// the prefetch-tagged window and context_. Lock order: latch_mu_
  /// before any stripe mutex.
  mutable Mutex latch_mu_;
  /// The unique_ptr is set once at construction; the policy object's
  /// internal state mutates under the latch, hence PT_GUARDED_BY.
  std::unique_ptr<buffer::ReplacementPolicy> policy_
      IRBUF_PT_GUARDED_BY(latch_mu_);
  std::vector<buffer::FrameId> free_frames_ IRBUF_GUARDED_BY(latch_mu_);
  uint64_t fetch_tick_ IRBUF_GUARDED_BY(latch_mu_) = 0;
  /// The published replacement context (see PublishLocked).
  std::shared_ptr<const buffer::QueryContext> context_
      IRBUF_GUARDED_BY(latch_mu_);
  /// FIFO of prefetch-tagged frames, oldest first; bounded by
  /// prefetch_window_cap_. Frames leave on promotion or reclaim.
  std::deque<buffer::FrameId> prefetch_window_ IRBUF_GUARDED_BY(latch_mu_);
  EvictionObserver eviction_observer_ IRBUF_GUARDED_BY(latch_mu_);

  std::vector<Frame> frames_;
  std::vector<std::atomic<uint32_t>> term_resident_;

  // Counters are incremented pairwise (fetches with exactly one of
  // hits/misses), so fetches == hits + misses holds at quiescence; and
  // misses_ + prefetch_issued_ == device_reads_ (every successful read
  // is counted once, demand or readahead — coalescing makes it exact).
  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> device_reads_{0};
  std::atomic<uint64_t> prefetch_issued_{0};
  std::atomic<uint64_t> prefetch_used_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
  std::atomic<uint64_t> coalesced_misses_{0};
  MetricHandles metrics_;
  /// Contention accounting the constructor attaches to latch_mu_ and
  /// every stripe mutex when options.profile_contention is set.
  MutexWaitStats latch_waits_{"pool.latch"};
  MutexWaitStats stripe_waits_{"pool.stripe"};
  /// Thread-safe miss-path retry/breaker wrapper; null = plain reads.
  std::unique_ptr<fault::ResilientReader> resilient_;

  /// Readahead plumbing. prefetch_mu_ is a leaf lock protecting only
  /// the hint queue + stop flag: Prefetch() enqueues under it and the
  /// workers dequeue under it, but the hint's stripe probes and all
  /// actual load work (frame reservation, I/O, publish) run with it
  /// released, so it never nests with the latch or a stripe.
  mutable Mutex prefetch_mu_;
  CondVar prefetch_cv_;
  std::deque<uint64_t> prefetch_queue_ IRBUF_GUARDED_BY(prefetch_mu_);
  bool prefetch_stop_ IRBUF_GUARDED_BY(prefetch_mu_) = false;
  /// Queue bound: hints past this are dropped (stale hints would only
  /// waste reads). Set once in the constructor.
  size_t prefetch_queue_cap_ = 0;
  /// Tagged-window bound: min(2*prefetch_depth, capacity/2), >= 1 when
  /// readahead is on. Set once in the constructor.
  size_t prefetch_window_cap_ = 0;
  /// Joined (in order) by the destructor after prefetch_stop_ is set.
  std::vector<std::thread> prefetch_workers_;
};

}  // namespace irbuf::serve

#endif  // IRBUF_SERVE_CONCURRENT_BUFFER_POOL_H_
