#include "serve/concurrent_buffer_pool.h"

#include <algorithm>

#include "buffer/contracts.h"
#include "fault/backoff.h"
#include "util/monotonic_clock.h"
#include "util/str.h"

namespace irbuf::serve {

ConcurrentBufferPool::ConcurrentBufferPool(const storage::SimulatedDisk* disk,
                                           ConcurrentPoolOptions options)
    : disk_(disk),
      options_(options),
      policy_(buffer::MakePolicy(options.policy)),
      frames_(options.capacity == 0 ? 1 : options.capacity),
      term_resident_(disk->num_terms()) {
  free_frames_.reserve(frames_.size());
  // Hand out low frame ids first, exactly like BufferManager.
  for (size_t i = frames_.size(); i > 0; --i) {
    free_frames_.push_back(static_cast<buffer::FrameId>(i - 1));
  }
  if (options_.resilience.enabled) {
    resilient_ =
        std::make_unique<fault::ResilientReader>(options_.resilience);
  }
  if (options_.profile_contention) {
    // Attached before any worker can reach the pool, so the mutexes
    // never flip instrumentation modes under concurrent traffic.
    latch_mu_.TrackContention(&latch_waits_);
    for (Stripe& stripe : stripes_) stripe.mu.TrackContention(&stripe_waits_);
  }
  policy_->Attach(this);
  if (options_.prefetch_depth > 0) {
    prefetch_queue_cap_ = std::max<size_t>(64, options_.prefetch_depth * 8);
    prefetch_window_cap_ = std::max<size_t>(
        1, std::min(options_.prefetch_depth * 2, frames_.size() / 2));
    // Workers start last: the pool above is fully constructed before
    // any of them can touch it.
    prefetch_workers_.reserve(options_.prefetch_depth);
    for (size_t i = 0; i < options_.prefetch_depth; ++i) {
      prefetch_workers_.emplace_back([this] { PrefetchWorkerLoop(); });
    }
  }
}

ConcurrentBufferPool::~ConcurrentBufferPool() {
  if (!prefetch_workers_.empty()) {
    {
      MutexLock lock(prefetch_mu_);
      prefetch_stop_ = true;
    }
    prefetch_cv_.NotifyAll();
    for (std::thread& worker : prefetch_workers_) worker.join();
  }
  // Quiescent-state contracts: every PinnedPage and QueryLease guard
  // must have been released (a live guard would call into a destroyed
  // pool), every load must have published or failed, and with no fetch
  // in flight the counters must conserve exactly — including the
  // device-read identity that coalescing makes exact.
  for (const Frame& f : frames_) {
    IRBUF_DCHECK(f.pins.load(std::memory_order_relaxed) == 0,
                 "pool destroyed with outstanding pins");
  }
  {
    MutexLock lock(lease_mu_);
    IRBUF_DCHECK(leases_.empty(), "pool destroyed with live query leases");
  }
  for (Stripe& stripe : stripes_) {
    MutexLock stripe_lock(stripe.mu);
    for (const auto& [key, entry] : stripe.pages) {
      IRBUF_DCHECK(entry.frame != buffer::kInvalidFrame,
                   "pool destroyed with a page entry that has no frame");
    }
  }
  buffer::contracts::CheckStatsConservation(
      fetches_.load(std::memory_order_relaxed),
      hits_.load(std::memory_order_relaxed),
      misses_.load(std::memory_order_relaxed));
  buffer::contracts::CheckDiskReadConservation(
      misses_.load(std::memory_order_relaxed),
      prefetch_issued_.load(std::memory_order_relaxed),
      device_reads_.load(std::memory_order_relaxed));
}

Result<buffer::PinnedPage> ConcurrentBufferPool::FetchPinned(PageId id) {
  const uint64_t key = id.Pack();
  Stripe& stripe = StripeFor(key);
  buffer::FrameId hit_frame = buffer::kInvalidFrame;
  bool joined_load = false;
  uint64_t wait_start_ns = 0;
  {
    MutexLock stripe_lock(stripe.mu);
    for (;;) {
      auto [it, inserted] = stripe.pages.try_emplace(key);
      if (inserted) break;  // A loading entry: we are the loader.
      PageEntry& entry = it->second;
      if (entry.frame != buffer::kInvalidFrame) {
        hit_frame = entry.frame;
        // Pinning under the stripe mutex excludes the eviction path,
        // which re-checks pins under this same mutex.
        frames_[hit_frame].pins.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      // Another thread — a demand loader or a readahead worker — is
      // already reading this page. Join its load instead of issuing a
      // duplicate read and wait: a publish sets the frame (we wake to
      // a hit), a failed load erases the entry (we retry as the
      // loader). Any wake of the stripe re-runs the lookup above.
      entry.demand_joined = true;
      if (!joined_load && options_.span_recorder != nullptr) {
        wait_start_ns = MonotonicNowNs();
      }
      joined_load = true;
      stripe.cv.Wait(stripe.mu);
    }
  }
  if (joined_load && options_.span_recorder != nullptr) {
    // Time blocked on someone else's load is async-wait — charged to
    // this query, but it is not miss I/O and must not inflate kMissRead.
    options_.span_recorder->RecordManual(
        obs::SpanStage::kAsyncWait, wait_start_ns, MonotonicNowNs(),
        options_.span_recorder->BufferForThisThread()->current_query,
        id.term);
  }

  if (hit_frame != buffer::kInvalidFrame) {
    fetches_.fetch_add(1, std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.fetches != nullptr) {
      metrics_.fetches->Add(1);
      metrics_.hits->Add(1);
    }
    if (joined_load) {
      // This fetch would have been a duplicate disk read before
      // coalescing; it shared the loader's read instead.
      coalesced_misses_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_.coalesced_misses != nullptr) {
        metrics_.coalesced_misses->Add(1);
      }
    }
    {
      MutexLock latch(latch_mu_);
      ++fetch_tick_;
      if (frames_[hit_frame].prefetch_tagged) {
        PromoteLocked(hit_frame);
      } else {
        policy_->OnHit(hit_frame);
      }
    }
    return buffer::PinnedPage(this, &frames_[hit_frame].page, hit_frame,
                              /*was_miss=*/false);
  }

  // Loader path: reserve a frame under the latch; read with no lock held.
  buffer::FrameId frame = buffer::kInvalidFrame;
  uint64_t tick = 0;
  {
    MutexLock latch(latch_mu_);
    tick = ++fetch_tick_;
    if (!free_frames_.empty()) {
      frame = free_frames_.back();
      free_frames_.pop_back();
    } else {
      frame = EvictOneLocked();
      if (frame == buffer::kInvalidFrame) {
        // Every untagged frame is pinned: cannibalize the readahead
        // window rather than failing the fetch.
        frame = ReclaimPrefetchedLocked();
      }
    }
    if (frame != buffer::kInvalidFrame) {
      // Reserve: the frame is unmapped, so this pin (which becomes the
      // caller's pin on success) is the only thing keeping eviction away.
      frames_[frame].pins.store(1, std::memory_order_relaxed);
    }
  }
  if (frame == buffer::kInvalidFrame) {
    AbandonLoad(key);
    return Status::ResourceExhausted(
        StrFormat("all %zu frames pinned; pool capacity must exceed the "
                  "number of concurrently pinned pages",
                  frames_.size()));
  }

  // As in BufferManager, the disk decodes straight into the frame's
  // page: the frame caches the decoded PostingBlock and recycles its
  // buffers across evictions. The read, the simulated device delay and
  // the decode (plus any allocation a cold frame needs) all happen in
  // ExecuteLoad, with no lock held.
  Frame& f = frames_[frame];
  const Status read = ExecuteLoad(id, f, /*prefetch=*/false);
  if (!read.ok()) {
    ReleaseFailedLoad(key, frame);
    return read;
  }

  // Counted only after the read succeeded, so misses == demand disk
  // reads, exactly (coalescing leaves no duplicate-read window).
  fetches_.fetch_add(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.fetches != nullptr) {
    metrics_.fetches->Add(1);
    metrics_.misses->Add(1);
  }

  {
    MutexLock latch(latch_mu_);
    f.meta.page = id;
    f.meta.max_weight = f.page.max_weight;
    f.meta.occupied = true;
    f.insert_tick = tick;
    f.prefetch_tagged = false;
    if (id.term < term_resident_.size()) {
      term_resident_[id.term].fetch_add(1, std::memory_order_relaxed);
    }
    policy_->OnInsert(frame);
    // Publish only after the policy knows the frame, nested inside the
    // latch (lock order latch -> stripe), so a hitter's OnHit can never
    // reach the policy before our OnInsert.
    PublishEntry(key, frame);
  }
  return buffer::PinnedPage(this, &f.page, frame, /*was_miss=*/true);
}

bool ConcurrentBufferPool::PublishEntry(uint64_t key, buffer::FrameId frame) {
  Stripe& stripe = StripeFor(key);
  bool demand_joined = false;
  {
    MutexLock stripe_lock(stripe.mu);
    // Only this loader erases its loading entry (on failure), and
    // eviction erases only resident entries, so the entry is still here.
    auto it = stripe.pages.find(key);
    IRBUF_DCHECK(it != stripe.pages.end() &&
                     it->second.frame == buffer::kInvalidFrame,
                 "a load published without its loading entry");
    it->second.frame = frame;
    demand_joined = it->second.demand_joined;
  }
  stripe.cv.NotifyAll();
  return demand_joined;
}

Status ConcurrentBufferPool::ExecuteLoad(PageId id, Frame& frame,
                                         bool prefetch) {
  const auto read_once = [&]() -> Status {
    // The device transfer: the delay is slept between the two phases,
    // so a read that fails in BeginRead costs no delay.
    storage::SimulatedDisk::PageReadOp op;
    IRBUF_RETURN_NOT_OK(disk_->BeginRead(id, &op));
    if (options_.io_delay_us_per_miss > 0) {
      fault::SleepUs(static_cast<uint64_t>(
          static_cast<double>(options_.io_delay_us_per_miss) *
          op.latency_multiplier));
    }
    // CRC + decode on this thread, while other loaders' device delays
    // run concurrently — page n decodes while page n+1's read is in
    // flight.
    return disk_->FinishRead(id, op, &frame.page);
  };
  // The span covers the whole lock-free load — the read (retries
  // included), the simulated device delay and the decode — which is
  // what the attribution table should charge a miss (or a readahead
  // slot) with. Readahead makes one attempt outside the resilient
  // reader: it neither takes the breaker's probe slot nor records an
  // outcome, so the breaker sees demand reads only.
  const Status status = [&] {
    obs::ScopedSpan load_span(options_.span_recorder,
                              prefetch ? obs::SpanStage::kPrefetchIssue
                                       : obs::SpanStage::kMissRead,
                              id.term);
    return resilient_ != nullptr && !prefetch
               ? resilient_->Read(id, read_once)
               : read_once();
  }();
  if (status.ok()) {
    device_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void ConcurrentBufferPool::ReleaseFailedLoad(uint64_t key,
                                             buffer::FrameId frame) {
  {
    MutexLock latch(latch_mu_);
    // The frame never left reservation (unmapped, sole pin), so the
    // plain store cannot race a hitter's fetch_add.
    frames_[frame].pins.store(0, std::memory_order_relaxed);
    free_frames_.push_back(frame);
  }
  AbandonLoad(key);
}

buffer::FrameId ConcurrentBufferPool::EvictOneLocked() {
  // A candidate can gain a pin between the probe and its stripe lock.
  // Never wait for a pin to drain while holding the latch (the pinner
  // may itself be blocked on the latch for its OnHit) — pick another
  // frame instead. Retries are bounded; in the degenerate case where
  // every re-check is foiled, the fetch reports ResourceExhausted.
  for (size_t attempt = 0; attempt <= frames_.size(); ++attempt) {
    buffer::FrameId candidate = policy_->ChooseVictim();
    if (candidate >= frames_.size() || !frames_[candidate].meta.occupied ||
        frames_[candidate].prefetch_tagged ||
        frames_[candidate].pins.load(std::memory_order_acquire) != 0) {
      // The policy's choice is unusable (pinned): fall back to the
      // oldest-inserted unpinned frame, as BufferManager does; exact
      // policy order resumes once the pins drain. Prefetch-tagged
      // frames are skipped — the policy never saw them, so they are
      // not policy victims (ReclaimPrefetchedLocked handles them).
      buffer::FrameId fallback = buffer::kInvalidFrame;
      for (buffer::FrameId i = 0; i < frames_.size(); ++i) {
        if (!frames_[i].meta.occupied || frames_[i].prefetch_tagged ||
            frames_[i].pins.load(std::memory_order_acquire) != 0) {
          continue;
        }
        if (fallback == buffer::kInvalidFrame ||
            frames_[i].insert_tick < frames_[fallback].insert_tick) {
          fallback = i;
        }
      }
      if (fallback == buffer::kInvalidFrame) return buffer::kInvalidFrame;
      candidate = fallback;
      if (metrics_.victim_fallbacks != nullptr) {
        metrics_.victim_fallbacks->Add(1);
      }
    }
    const PageId victim_page = frames_[candidate].meta.page;
    Stripe& vs = StripeFor(victim_page.Pack());
    MutexLock stripe_lock(vs.mu);
    if (frames_[candidate].pins.load(std::memory_order_acquire) != 0) {
      continue;  // Pinned while we took the stripe lock; try again.
    }
    buffer::contracts::CheckVictimEvictable(
        frames_[candidate].meta.occupied,
        frames_[candidate].pins.load(std::memory_order_acquire));
    // OnEvict runs while the victim's metadata is still readable.
    policy_->OnEvict(candidate);
    vs.pages.erase(victim_page.Pack());
    if (victim_page.term < term_resident_.size()) {
      term_resident_[victim_page.term].fetch_sub(1,
                                                 std::memory_order_relaxed);
    }
    frames_[candidate].meta.occupied = false;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.evictions != nullptr) metrics_.evictions->Add(1);
    if (eviction_observer_) eviction_observer_(victim_page, true);
    return candidate;
  }
  return buffer::kInvalidFrame;
}

buffer::FrameId ConcurrentBufferPool::ReclaimPrefetchedLocked() {
  // Oldest tagged frame first (FIFO over the window): a reclaimed page
  // was read ahead but never demanded, which is the definition of a
  // wasted prefetch. The policy never knew the frame, so no OnEvict.
  for (size_t i = 0; i < prefetch_window_.size(); ++i) {
    const buffer::FrameId frame = prefetch_window_[i];
    Frame& f = frames_[frame];
    IRBUF_DCHECK(f.prefetch_tagged,
                 "prefetch window holds an untagged frame");
    const PageId victim_page = f.meta.page;
    Stripe& vs = StripeFor(victim_page.Pack());
    MutexLock stripe_lock(vs.mu);
    if (f.pins.load(std::memory_order_acquire) != 0) {
      // A demand fetch pinned it this instant and is about to promote:
      // that prefetch is anything but wasted. Pick the next-oldest.
      continue;
    }
    buffer::contracts::CheckVictimEvictable(
        f.meta.occupied, f.pins.load(std::memory_order_acquire));
    vs.pages.erase(victim_page.Pack());
    if (victim_page.term < term_resident_.size()) {
      term_resident_[victim_page.term].fetch_sub(1,
                                                 std::memory_order_relaxed);
    }
    f.meta.occupied = false;
    f.prefetch_tagged = false;
    prefetch_window_.erase(prefetch_window_.begin() +
                           static_cast<ptrdiff_t>(i));
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.evictions != nullptr) metrics_.evictions->Add(1);
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.prefetch_wasted != nullptr) metrics_.prefetch_wasted->Add(1);
    if (eviction_observer_) eviction_observer_(victim_page, false);
    return frame;
  }
  return buffer::kInvalidFrame;
}

void ConcurrentBufferPool::PromoteLocked(buffer::FrameId frame) {
  Frame& f = frames_[frame];
  f.prefetch_tagged = false;
  f.insert_tick = fetch_tick_;
  for (auto it = prefetch_window_.begin(); it != prefetch_window_.end();
       ++it) {
    if (*it == frame) {
      prefetch_window_.erase(it);
      break;
    }
  }
  // To the replacement policy this IS the insertion: it never saw the
  // readahead publish, so the first demand touch runs OnInsert (not
  // OnHit) and victim choice before this touch was undistorted.
  policy_->OnInsert(frame);
  prefetch_used_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.prefetch_used != nullptr) metrics_.prefetch_used->Add(1);
}

void ConcurrentBufferPool::AbandonLoad(uint64_t key) {
  Stripe& stripe = StripeFor(key);
  {
    MutexLock stripe_lock(stripe.mu);
    stripe.pages.erase(key);
  }
  stripe.cv.NotifyAll();
}

void ConcurrentBufferPool::Prefetch(buffer::PageAccessPlan plan) {
  if (options_.prefetch_depth == 0 || plan.empty()) return;
  // Each probe holds only its stripe mutex and releases it before
  // prefetch_mu_ is taken, so prefetch_mu_ stays a leaf. The per-thread
  // scratch list is reused, so a hint allocates nothing once the list
  // has grown to the longest plan.
  thread_local std::vector<uint64_t> pending;
  pending.clear();
  uint64_t skipped = 0;
  for (const PageId& id : plan) {
    const uint64_t key = id.Pack();
    Stripe& stripe = StripeFor(key);
    {
      MutexLock stripe_lock(stripe.mu);
      if (stripe.pages.count(key) != 0) {  // Resident or loading.
        ++skipped;
        continue;
      }
    }
    pending.push_back(key);
  }
  size_t queued = 0;
  if (!pending.empty()) {
    MutexLock lock(prefetch_mu_);
    queued = std::min(pending.size(),
                      prefetch_queue_cap_ - prefetch_queue_.size());
    prefetch_queue_.insert(prefetch_queue_.end(), pending.begin(),
                           pending.begin() + static_cast<ptrdiff_t>(queued));
  }
  // One wake per queued page: an idle pool of workers stays asleep.
  for (size_t i = 0; i < std::min(queued, prefetch_workers_.size()); ++i) {
    prefetch_cv_.NotifyOne();
  }
  if (metrics_.prefetch_hints_queued != nullptr) {
    metrics_.prefetch_hints_queued->Add(queued);
    metrics_.prefetch_hints_skipped->Add(skipped);
    metrics_.prefetch_hints_dropped->Add(pending.size() - queued);
  }
}

void ConcurrentBufferPool::PrefetchWorkerLoop() {
  for (;;) {
    uint64_t key = 0;
    {
      MutexLock lock(prefetch_mu_);
      while (!prefetch_stop_ && prefetch_queue_.empty()) {
        prefetch_cv_.Wait(prefetch_mu_);
      }
      if (prefetch_stop_) return;
      key = prefetch_queue_.front();
      prefetch_queue_.pop_front();
    }
    PrefetchOne(PageId{static_cast<TermId>(key >> 32),
                       static_cast<uint32_t>(key & 0xFFFFFFFFull)});
  }
}

void ConcurrentBufferPool::PrefetchOne(PageId id) {
  // An open or half-open breaker marks the device as suspect: readahead
  // issues nothing until demand reads have closed it again.
  if (resilient_ != nullptr && resilient_->breaker() != nullptr &&
      resilient_->breaker()->state() != fault::BreakerState::kClosed) {
    return;
  }
  const uint64_t key = id.Pack();
  {
    // Prefetch filtered this page at the hint, but it can have become
    // resident or started loading since: check again, and otherwise
    // become its loader.
    Stripe& stripe = StripeFor(key);
    MutexLock stripe_lock(stripe.mu);
    if (!stripe.pages.try_emplace(key).second) return;
  }
  buffer::FrameId frame = buffer::kInvalidFrame;
  {
    MutexLock latch(latch_mu_);
    if (!free_frames_.empty()) {
      frame = free_frames_.back();
      free_frames_.pop_back();
    } else if (prefetch_window_.size() >= prefetch_window_cap_) {
      // Window full: readahead recycles its own oldest page instead of
      // squeezing demand-resident pages out of the pool.
      frame = ReclaimPrefetchedLocked();
    }
    if (frame == buffer::kInvalidFrame) frame = EvictOneLocked();
    if (frame == buffer::kInvalidFrame) frame = ReclaimPrefetchedLocked();
    if (frame != buffer::kInvalidFrame) {
      frames_[frame].pins.store(1, std::memory_order_relaxed);
    }
  }
  if (frame == buffer::kInvalidFrame) {
    // No frame to spare: drop the hint. The demand fetch reads it later.
    AbandonLoad(key);
    return;
  }
  Frame& f = frames_[frame];
  const Status read = ExecuteLoad(id, f, /*prefetch=*/true);
  if (!read.ok()) {
    // A faulted readahead is silent: the frame returns to the free
    // list, the loading entry is erased (joined waiters retry as
    // loaders), and the demand fetch performs its own resilient read.
    // The failure never reached the breaker, so it cannot be the reason
    // the breaker rejects that read.
    ReleaseFailedLoad(key, frame);
    return;
  }
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.prefetch_issued != nullptr) metrics_.prefetch_issued->Add(1);

  {
    MutexLock latch(latch_mu_);
    f.meta.page = id;
    f.meta.max_weight = f.page.max_weight;
    f.meta.occupied = true;
    f.insert_tick = ++fetch_tick_;
    if (PublishEntry(key, frame)) {
      // A demand fetch is already waiting on this load: publish
      // promoted — the page was demanded, just like a coalesced miss.
      f.prefetch_tagged = false;
      policy_->OnInsert(frame);
      prefetch_used_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_.prefetch_used != nullptr) metrics_.prefetch_used->Add(1);
    } else {
      f.prefetch_tagged = true;
      // The window cap is a hard bound, enforced where the window
      // grows: even with free frames to spare, readahead keeps at most
      // prefetch_window_cap_ undemanded pages and recycles its own
      // oldest (prefetch_wasted) rather than creeping over the pool.
      while (prefetch_window_.size() >= prefetch_window_cap_) {
        const buffer::FrameId reclaimed = ReclaimPrefetchedLocked();
        if (reclaimed == buffer::kInvalidFrame) break;  // All pinned.
        free_frames_.push_back(reclaimed);
      }
      prefetch_window_.push_back(frame);
    }
    if (id.term < term_resident_.size()) {
      term_resident_[id.term].fetch_add(1, std::memory_order_relaxed);
    }
    // Drop the reservation pin. fetch_sub, not a store: the mapping is
    // already published, so a hitter may have pinned concurrently.
    f.pins.fetch_sub(1, std::memory_order_release);
  }
}

void ConcurrentBufferPool::Unpin(uint32_t frame) {
  if (frame < frames_.size()) {
    const uint32_t before =
        frames_[frame].pins.fetch_sub(1, std::memory_order_release);
    buffer::contracts::CheckPinRelease(before);
  }
}

uint32_t ConcurrentBufferPool::PinCount(PageId id) const {
  const uint64_t key = id.Pack();
  auto& stripe = const_cast<ConcurrentBufferPool*>(this)->StripeFor(key);
  MutexLock stripe_lock(stripe.mu);
  auto it = stripe.pages.find(key);
  return it == stripe.pages.end() || it->second.frame == buffer::kInvalidFrame
             ? 0
             : frames_[it->second.frame].pins.load(std::memory_order_relaxed);
}

buffer::QueryLease ConcurrentBufferPool::BeginQuery(
    buffer::QueryContext weights) {
  auto context =
      std::make_shared<const buffer::QueryContext>(std::move(weights));
  MutexLock lock(lease_mu_);
  const uint64_t id = leases_.Add(context);
  PublishLocked(options_.shared_context ? leases_.Merged()
                                        : std::move(context));
  return buffer::QueryLease(this, id);
}

void ConcurrentBufferPool::EndQuery(uint64_t id) {
  MutexLock lock(lease_mu_);
  leases_.Remove(id);
  if (options_.shared_context) PublishLocked(leases_.Merged());
}

void ConcurrentBufferPool::PublishLocked(
    std::shared_ptr<const buffer::QueryContext> context) {
  MutexLock latch(latch_mu_);
  context_ = std::move(context);
  policy_->SetQueryContext(context_.get());
}

buffer::BufferStats ConcurrentBufferPool::StatsSnapshot() const {
  buffer::BufferStats s;
  s.fetches = fetches_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

PoolPrefetchStats ConcurrentBufferPool::PrefetchStatsSnapshot() const {
  PoolPrefetchStats s;
  s.issued = prefetch_issued_.load(std::memory_order_relaxed);
  s.used = prefetch_used_.load(std::memory_order_relaxed);
  s.wasted = prefetch_wasted_.load(std::memory_order_relaxed);
  s.coalesced_misses = coalesced_misses_.load(std::memory_order_relaxed);
  s.device_reads = device_reads_.load(std::memory_order_relaxed);
  return s;
}

void ConcurrentBufferPool::BindMetrics(obs::MetricsRegistry* registry,
                                       const std::string& prefix) {
  if (resilient_ != nullptr) resilient_->BindMetrics(registry);
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.fetches =
      registry->AddCounter(prefix + ".fetches", "pages requested of the pool");
  metrics_.hits = registry->AddCounter(prefix + ".hits",
                                       "buffer-resident hits");
  metrics_.misses =
      registry->AddCounter(prefix + ".misses", "fetches that went to disk");
  metrics_.evictions = registry->AddCounter(
      prefix + ".evictions", "pages pushed out of the pool");
  metrics_.victim_fallbacks = registry->AddCounter(
      prefix + ".victim_fallbacks",
      "evictions of the oldest unpinned frame because the policy's victim "
      "was pinned");
  metrics_.prefetch_issued = registry->AddCounter(
      prefix + ".prefetch_issued", "readahead reads completed into frames");
  metrics_.prefetch_used = registry->AddCounter(
      prefix + ".prefetch_used", "prefetched pages later demand-touched");
  metrics_.prefetch_wasted = registry->AddCounter(
      prefix + ".prefetch_wasted", "prefetched pages reclaimed untouched");
  metrics_.coalesced_misses = registry->AddCounter(
      prefix + ".coalesced_misses",
      "fetches that joined an in-flight load instead of reading");
  metrics_.prefetch_hints_queued = registry->AddCounter(
      prefix + ".prefetch_hints_queued",
      "hinted pages queued for the readahead workers");
  metrics_.prefetch_hints_skipped = registry->AddCounter(
      prefix + ".prefetch_hints_skipped",
      "hinted pages already resident or in flight at the hint");
  metrics_.prefetch_hints_dropped = registry->AddCounter(
      prefix + ".prefetch_hints_dropped",
      "hinted pages dropped because the readahead queue was full");
}

}  // namespace irbuf::serve
