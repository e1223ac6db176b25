// The buffer manager: a fixed pool of page frames over the simulated disk,
// with a pluggable replacement policy and the per-term residency counters
// (b_t) that the BAF evaluator queries (Section 3.2.2 — "an array of
// counters, updated whenever a page is moved in or out of buffers").

#ifndef IRBUF_BUFFER_BUFFER_MANAGER_H_
#define IRBUF_BUFFER_BUFFER_MANAGER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/replacement_policy.h"
#include "fault/resilient.h"
#include "obs/metrics.h"
#include "obs/query_tracer.h"
#include "storage/page.h"
#include "storage/simulated_disk.h"
#include "util/status.h"

namespace irbuf::buffer {

/// A fixed-capacity buffer pool. Single-threaded (the simulator's
/// setting); serve::ConcurrentBufferPool is the thread-safe counterpart.
class BufferManager final : public FrameDirectory, public BufferPool {
 public:
  /// `capacity` is in pages (>= 1). The disk must outlive the manager.
  BufferManager(const storage::SimulatedDisk* disk, size_t capacity,
                std::unique_ptr<ReplacementPolicy> policy);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// BufferPool: returns the requested page, reading it from disk on a
  /// miss (evicting a victim if the pool is full), pinned (ineligible
  /// for eviction) until the returned guard is released. Pinned frames
  /// are skipped during victim selection: when the policy's choice is
  /// pinned, the oldest-inserted unpinned frame is evicted instead, and
  /// when every frame is pinned the fetch fails with ResourceExhausted.
  Result<PinnedPage> FetchPinned(PageId id) override;

  /// True when the page is buffer-resident (no side effects).
  bool Contains(PageId id) const {
    return page_table_.count(id.Pack()) > 0;
  }

  /// b_t: how many pages of `term`'s inverted list are in buffers. O(1).
  uint32_t ResidentPages(TermId term) const override {
    return term < term_resident_.size() ? term_resident_[term] : 0;
  }

  /// The replacement context is the max-merge of every live lease: one
  /// lease in the single-user simulator; in ir::RunMultiUserWorkload's
  /// shared-context mode, also one per other user (Section 3.3), so RAP
  /// does not treat pages another active user still needs as worthless.
  QueryLease BeginQuery(QueryContext weights) override;

  /// Drops every page (the paper flushes buffers between refinement
  /// sequences and between independent queries). All pins must have been
  /// released first; outstanding PinnedPage guards are invalidated (their
  /// pins are discarded, their pointers dangle).
  void Flush();

  const BufferStats& stats() const { return stats_; }
  BufferStats StatsSnapshot() const override { return stats_; }

  /// Pins currently held on `id`'s frame (0 when not resident).
  uint32_t PinCount(PageId id) const;

  /// Zeroes the pool's own counters only. The underlying SimulatedDisk
  /// keeps its fully independent DiskStats: neither this call nor
  /// Flush() touches disk counters — reset those separately via
  /// SimulatedDisk::ResetStats() when a bench wants both at zero.
  void ResetStats() { stats_ = BufferStats{}; }

  /// Installs (or clears, with nullptr) the per-query tracer: every
  /// fetch is recorded tagged hit/miss and every eviction is recorded
  /// with victim metadata (its stored max weight, its replacement value
  /// max_weight * w_{q,t} under the live leases' context, and its age in
  /// fetches since it entered the frame). The tracer must outlive its
  /// installation.
  void SetTracer(obs::QueryTracer* tracer) { tracer_ = tracer; }

  /// Resolves metric handles in `registry` (buffer.fetches, buffer.hits,
  /// buffer.misses, buffer.evictions, buffer.victim_fallbacks) once;
  /// the fetch path then only dereferences them. Pass nullptr to unbind.
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Installs retry-with-backoff (and optionally a circuit breaker) in
  /// front of every miss-path disk read. With `options.enabled` false
  /// (the default state of a fresh manager) misses call the disk
  /// directly, byte-for-byte the pre-fault behaviour. Call before the
  /// first fetch; reconfiguring mid-run resets the breaker state.
  void SetResilience(const fault::ResilienceOptions& options);

  /// Null until SetResilience installs one.
  const fault::ResilientReader* resilience() const {
    return resilient_.get();
  }

  const char* policy_name() const { return policy_->name(); }

  /// All resident page ids, unordered (test/introspection helper).
  std::vector<PageId> ResidentPageIds() const;

  // FrameDirectory:
  const FrameMeta& Meta(FrameId frame) const override {
    return frames_[frame].meta;
  }
  size_t capacity() const override { return frames_.size(); }

 private:
  struct Frame {
    storage::Page page;
    FrameMeta meta;
    /// Value of fetch_tick_ when the current page was inserted (victim
    /// age = fetch_tick_ - insert_tick).
    uint64_t insert_tick = 0;
    /// Outstanding FetchPinned guards on this frame; > 0 makes the frame
    /// ineligible for eviction.
    uint32_t pins = 0;
  };

  // BufferPool:
  void Unpin(uint32_t frame) override;
  void EndQuery(uint64_t id) override;

  /// Hands the policy the merge of the live leases.
  void PublishLeases();

  /// FetchPinned's fetch before the pin; `*was_miss` reports the
  /// hit/miss outcome and `*frame_out` the frame the page landed in.
  Result<const storage::Page*> FetchInternal(PageId id, bool* was_miss,
                                             FrameId* frame_out);

  /// The frame to evict when the pool is full: the policy's choice, or —
  /// only when that choice is pinned — the oldest-inserted unpinned
  /// frame. kInvalidFrame when every frame is pinned.
  FrameId PickVictim();

  /// Pre-resolved registry handles (all null when unbound).
  struct MetricHandles {
    obs::Counter* fetches = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* victim_fallbacks = nullptr;
  };

  const storage::SimulatedDisk* disk_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::vector<Frame> frames_;
  std::vector<FrameId> free_frames_;
  std::unordered_map<uint64_t, FrameId> page_table_;
  std::vector<uint32_t> term_resident_;
  LiveLeases leases_;
  /// What the policy points at: leases_.Merged() as of the last lease
  /// change.
  std::shared_ptr<const QueryContext> context_ =
      std::make_shared<const QueryContext>();
  BufferStats stats_;
  uint64_t fetch_tick_ = 0;
  obs::QueryTracer* tracer_ = nullptr;
  MetricHandles metrics_;
  /// Miss-path retry/breaker wrapper; null = plain reads.
  std::unique_ptr<fault::ResilientReader> resilient_;
  /// Remembered so SetResilience after BindMetrics still wires the
  /// fault.* instruments (and vice versa).
  obs::MetricsRegistry* registry_ = nullptr;
};

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_BUFFER_MANAGER_H_
