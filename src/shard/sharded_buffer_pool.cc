#include "shard/sharded_buffer_pool.h"

#include <algorithm>

#include "util/str.h"

namespace irbuf::shard {

ShardedBufferPool::ShardedBufferPool(const ShardedIndex* index,
                                     const ShardedPoolOptions& options,
                                     bool shared_context) {
  const size_t num_shards = index->num_shards();
  const size_t per_shard =
      std::max<size_t>(2, options.total_pages / std::max<size_t>(1,
                                                                num_shards));
  pools_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    serve::ConcurrentPoolOptions pool;
    pool.capacity = per_shard;
    pool.policy = options.policy;
    pool.io_delay_us_per_miss = options.io_delay_us_per_miss;
    pool.prefetch_depth = options.prefetch_depth;
    pool.resilience = options.resilience;
    pool.span_recorder = options.span_recorder;
    pool.profile_contention = options.profile_contention;
    pool.shared_context = shared_context;
    pools_.push_back(std::make_unique<serve::ConcurrentBufferPool>(
        &index->shard(s).disk(), pool));
  }
}

buffer::BufferStats ShardedBufferPool::AggregateStats() const {
  buffer::BufferStats total;
  for (const std::unique_ptr<serve::ConcurrentBufferPool>& pool : pools_) {
    const buffer::BufferStats stats = pool->StatsSnapshot();
    total.fetches += stats.fetches;
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
  }
  return total;
}

void ShardedBufferPool::BindMetrics(obs::MetricsRegistry* registry) {
  for (size_t s = 0; s < pools_.size(); ++s) {
    pools_[s]->BindMetrics(registry, StrFormat("shard%zu.buffer", s));
  }
}

}  // namespace irbuf::shard
