// One ConcurrentBufferPool + replacement-policy instance per shard, with
// NO shared latch: shard s's pool serializes its own policy decisions
// behind its own latch_mu_, so misses of different shards overlap both
// their I/O (already true of one pool) and their policy/page-table work,
// and — the real win the PR 6 attribution data points at — one QUERY's
// independent misses overlap across shards instead of serializing
// through a single evaluator thread.
//
// The total page budget is split evenly: a 4-shard pool with
// total_pages=256 is four 64-page pools, one per shard's (re-paginated)
// posting file. That keeps memory comparisons against the unsharded
// pool honest in the serve bench.

#ifndef IRBUF_SHARD_SHARDED_BUFFER_POOL_H_
#define IRBUF_SHARD_SHARDED_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/policy_factory.h"
#include "fault/resilient.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"
#include "shard/index_sharder.h"

namespace irbuf::shard {

/// Configuration of a ShardedBufferPool.
struct ShardedPoolOptions {
  /// TOTAL page budget across all shards, split evenly (each shard pool
  /// gets at least 2 frames so one pinned page never wedges eviction).
  size_t total_pages = 256;
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  /// Simulated device latency per miss, slept with no lock held (see
  /// ConcurrentPoolOptions); misses on different shards overlap.
  uint32_t io_delay_us_per_miss = 0;
  /// Readahead slots per shard pool (see
  /// ConcurrentPoolOptions::prefetch_depth). Each shard runs its own
  /// background I/O workers, so one query's readahead overlaps across
  /// shards: the per-shard plans ShardLanes issue are serviced
  /// concurrently. 0 (default) disables readahead.
  size_t prefetch_depth = 0;
  /// Retry/backoff + circuit breaker, instantiated per shard pool (a
  /// tripped breaker on one shard does not brown out the others).
  fault::ResilienceOptions resilience;
  obs::SpanRecorder* span_recorder = nullptr;
  /// Measure per-shard latch/stripe waits (latch_wait_stats on each
  /// shard pool).
  bool profile_contention = false;
};

/// The per-shard pools of one ShardedIndex.
class ShardedBufferPool {
 public:
  /// `index` must outlive the pool. `shared_context` becomes every
  /// shard pool's ConcurrentPoolOptions::shared_context (callers set it
  /// as ShardedEngineOptions::shared_context).
  ShardedBufferPool(const ShardedIndex* index,
                    const ShardedPoolOptions& options, bool shared_context);

  ShardedBufferPool(const ShardedBufferPool&) = delete;
  ShardedBufferPool& operator=(const ShardedBufferPool&) = delete;

  size_t num_shards() const { return pools_.size(); }
  serve::ConcurrentBufferPool* shard(size_t s) { return pools_[s].get(); }
  const serve::ConcurrentBufferPool* shard(size_t s) const {
    return pools_[s].get();
  }

  /// Sums fetches/hits/misses/evictions over the shard pools. The
  /// fetches == hits + misses conservation survives summation.
  buffer::BufferStats AggregateStats() const;

  /// Binds each shard pool's instruments as "shard<i>.buffer.*" so
  /// per-shard hit rates are individually observable. Pass nullptr to
  /// unbind.
  void BindMetrics(obs::MetricsRegistry* registry);

  const char* policy_name() const { return pools_[0]->policy_name(); }

 private:
  std::vector<std::unique_ptr<serve::ConcurrentBufferPool>> pools_;
};

}  // namespace irbuf::shard

#endif  // IRBUF_SHARD_SHARDED_BUFFER_POOL_H_
