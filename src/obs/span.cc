#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "metrics/run_stats.h"

namespace irbuf::obs {
namespace {

/// One-entry cache resolving "this thread's buffer in that recorder".
/// Keyed on the recorder's process-unique id: a recorder at a reused
/// address can never hit a stale entry, it just re-registers.
struct TlsBufferCache {
  uint64_t recorder_id = 0;  // 0 is never a valid recorder id
  SpanRecorder::ThreadBuffer* buffer = nullptr;
};

thread_local TlsBufferCache tls_cache;

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kQueueWait:       return "queue_wait";
    case SpanStage::kContextSnapshot: return "context_snapshot";
    case SpanStage::kEvaluate:        return "evaluate";
    case SpanStage::kTermLoop:        return "term_loop";
    case SpanStage::kPagePin:         return "page_pin";
    case SpanStage::kMissRead:        return "miss_read";
    case SpanStage::kCrcVerify:       return "crc_verify";
    case SpanStage::kBlockDecode:     return "block_decode";
    case SpanStage::kAccumulate:      return "accumulate";
    case SpanStage::kTopKMerge:       return "topk_merge";
    case SpanStage::kShardMerge:      return "shard_merge";
    case SpanStage::kLockWait:        return "lock_wait";
    case SpanStage::kPrefetchIssue:   return "prefetch_issue";
    case SpanStage::kAsyncWait:       return "async_wait";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder() : id_(NextRecorderId()) {}

SpanRecorder::ThreadBuffer* SpanRecorder::BufferForThisThread() {
  if (tls_cache.recorder_id == id_) return tls_cache.buffer;
  // Register. A thread alternating between two live recorders would
  // re-register (and get a fresh tid) on every switch; the serve paths
  // use one recorder per run, so the cache is effectively permanent.
  MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<uint32_t>(buffers_.size() - 1);
  tls_cache = {id_, buffer};
  return buffer;
}

void SpanRecorder::RecordManual(SpanStage stage, uint64_t start_ns,
                                uint64_t end_ns, uint32_t query,
                                uint32_t term) {
  ThreadBuffer* buffer = BufferForThisThread();
  const uint64_t dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  MutexLock lock(buffer->mu);
  buffer->spans.push_back(Span{start_ns, dur_ns, query, term, stage,
                               static_cast<uint8_t>(buffer->depth)});
}

void SpanRecorder::RecordLockWait(uint64_t wait_ns) {
  ThreadBuffer* buffer = BufferForThisThread();
  const uint64_t end_ns = MonotonicNowNs();
  MutexLock lock(buffer->mu);
  buffer->spans.push_back(Span{end_ns - wait_ns, wait_ns,
                               buffer->current_query, 0,
                               SpanStage::kLockWait,
                               static_cast<uint8_t>(buffer->depth)});
}

std::vector<ThreadSpans> SpanRecorder::Snapshot() const {
  std::vector<ThreadSpans> out;
  MutexLock lock(mu_);
  out.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadSpans ts;
    ts.tid = buffer->tid;
    {
      MutexLock buf_lock(buffer->mu);
      ts.spans = buffer->spans;
    }
    out.push_back(std::move(ts));
  }
  return out;
}

void SpanRecorder::Clear() {
  MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    MutexLock buf_lock(buffer->mu);
    buffer->spans.clear();
  }
}

std::string ToChromeTraceJson(const std::vector<ThreadSpans>& threads) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Str("ms");
  w.Key("traceEvents").BeginArray();
  for (const ThreadSpans& ts : threads) {
    for (const Span& s : ts.spans) {
      w.BeginObject();
      w.Key("name").Str(SpanStageName(s.stage));
      w.Key("cat").Str("irbuf");
      w.Key("ph").Str("X");
      w.Key("ts").Num(static_cast<double>(s.start_ns) / 1000.0);
      w.Key("dur").Num(static_cast<double>(s.dur_ns) / 1000.0);
      w.Key("pid").UInt(1);
      w.Key("tid").UInt(ts.tid);
      w.Key("args").BeginObject();
      if (s.query != SpanRecorder::kNoQuery) w.Key("query").UInt(s.query);
      if (s.term != 0) w.Key("term").UInt(s.term);
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

SpanAttribution ComputeAttribution(const std::vector<ThreadSpans>& threads) {
  // Per-query accounting: wall = sum of that query's depth-0 spans
  // (queue wait + evaluate ≈ client-visible latency); per-stage totals
  // are inclusive over all depths.
  struct PerQuery {
    uint64_t wall_ns = 0;
    std::array<uint64_t, kNumSpanStages> stage_ns{};
  };
  std::unordered_map<uint32_t, PerQuery> queries;

  SpanAttribution attr;
  for (const ThreadSpans& ts : threads) {
    for (const Span& s : ts.spans) {
      const size_t stage = static_cast<size_t>(s.stage);
      attr.stages[stage].spans++;
      attr.stages[stage].total_ns += s.dur_ns;
      if (s.query == SpanRecorder::kNoQuery) continue;
      PerQuery& q = queries[s.query];
      q.stage_ns[stage] += s.dur_ns;
      if (s.depth == 0) q.wall_ns += s.dur_ns;
    }
  }
  attr.queries = queries.size();
  if (queries.empty()) return attr;

  std::vector<double> walls;
  walls.reserve(queries.size());
  for (const auto& [id, q] : queries) {
    walls.push_back(static_cast<double>(q.wall_ns));
  }
  const double wall_p99_ns = metrics::Percentile(walls, 99.0);
  attr.wall_p50_us = metrics::Percentile(walls, 50.0) / 1000.0;
  attr.wall_p99_us = wall_p99_ns / 1000.0;

  // The p99 bucket: queries whose wall reaches the wall p99. Each
  // stage's share is its inclusive time over the bucket's summed wall —
  // the "what dominates the slow queries" column.
  uint64_t bucket_wall_ns = 0;
  std::array<uint64_t, kNumSpanStages> bucket_stage_ns{};
  for (const auto& [id, q] : queries) {
    if (static_cast<double>(q.wall_ns) < wall_p99_ns) continue;
    bucket_wall_ns += q.wall_ns;
    for (size_t i = 0; i < kNumSpanStages; ++i) {
      bucket_stage_ns[i] += q.stage_ns[i];
    }
  }

  std::vector<double> stage_totals(queries.size());
  for (size_t stage = 0; stage < kNumSpanStages; ++stage) {
    size_t i = 0;
    for (const auto& [id, q] : queries) {
      stage_totals[i++] = static_cast<double>(q.stage_ns[stage]);
    }
    SpanAttribution::Stage& s = attr.stages[stage];
    s.p50_us = metrics::Percentile(stage_totals, 50.0) / 1000.0;
    s.p99_us = metrics::Percentile(stage_totals, 99.0) / 1000.0;
    if (bucket_wall_ns > 0) {
      s.p99_share = static_cast<double>(bucket_stage_ns[stage]) /
                    static_cast<double>(bucket_wall_ns);
    }
  }
  return attr;
}

void AppendAttributionJson(const SpanAttribution& attr, JsonWriter& w) {
  w.BeginObject();
  w.Key("queries").UInt(attr.queries);
  w.Key("wall_us").BeginObject();
  w.Key("p50").Num(attr.wall_p50_us);
  w.Key("p99").Num(attr.wall_p99_us);
  w.EndObject();
  w.Key("stages").BeginObject();
  for (size_t i = 0; i < kNumSpanStages; ++i) {
    const SpanAttribution::Stage& s = attr.stages[i];
    w.Key(SpanStageName(static_cast<SpanStage>(i))).BeginObject();
    w.Key("spans").UInt(s.spans);
    w.Key("total_us").Num(static_cast<double>(s.total_ns) / 1000.0);
    w.Key("p50_us").Num(s.p50_us);
    w.Key("p99_us").Num(s.p99_us);
    w.Key("p99_share").Num(s.p99_share);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

void AppendMutexWaitJson(const MutexWaitStats& stats, JsonWriter& w) {
  w.BeginObject();
  w.Key("acquisitions").UInt(stats.acquisitions());
  w.Key("contended").UInt(stats.contended());
  w.Key("wait_ns_total").UInt(stats.wait_ns_total());
  w.Key("wait_hist_us").BeginArray();
  for (size_t i = 0; i < MutexWaitStats::kBuckets; ++i) {
    const uint64_t count = stats.bucket(i);
    if (count == 0) continue;
    w.BeginArray();
    w.UInt(MutexWaitStats::BucketLowerBoundUs(i));
    w.UInt(count);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
}

void MutexWaitBinding::Bind(MutexWaitStats* stats, Histogram* hist,
                            SpanRecorder* recorder) {
  hist_ = hist;
  recorder_ = recorder;
  stats->SetObserver(&MutexWaitBinding::Observe, this);
}

void MutexWaitBinding::Observe(void* ctx, uint64_t wait_ns) {
  auto* binding = static_cast<MutexWaitBinding*>(ctx);
  if (binding->hist_ != nullptr) {
    binding->hist_->Observe(static_cast<double>(wait_ns) / 1000.0);
  }
  if (binding->recorder_ != nullptr) {
    binding->recorder_->RecordLockWait(wait_ns);
  }
}

std::vector<double> MutexWaitHistogramBounds() {
  // Mirror the MutexWaitStats log2 layout: bucket i's inclusive upper
  // bound is 2^i - <1us granularity>; using the power itself keeps the
  // histogram's Percentile within the same half-bucket error story.
  std::vector<double> bounds;
  bounds.reserve(MutexWaitStats::kBuckets - 1);
  for (size_t i = 0; i + 1 < MutexWaitStats::kBuckets; ++i) {
    bounds.push_back(static_cast<double>(uint64_t{1} << i));
  }
  return bounds;
}

}  // namespace irbuf::obs
