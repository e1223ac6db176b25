// Span-based latency attribution for the concurrent serve path.
//
// A SpanRecorder collects timed, nested stage spans from every worker
// thread so a serve run can answer "where did the p99 query's time go"
// instead of only "what was the p99". Design constraints, in order:
//
//   1. Disabled must be free. Every instrumentation site holds a
//      `SpanRecorder*` that is nullptr when tracing is off, and
//      ScopedSpan's constructor is a single null test in that case — no
//      clock read, no thread-local lookup, no allocation. This is the
//      same nullptr-handle discipline the MetricsRegistry instruments
//      use, so rankings and counters are bit-identical with and without
//      the layer compiled in (pinned by obs_span_test's differential
//      case and the BM_SpanScope pair in bench_micro).
//   2. Enabled must not serialize workers. Each thread records into its
//      own ThreadBuffer, resolved through a one-entry thread-local
//      cache keyed on a process-unique recorder id (never an address,
//      which allocators reuse). A per-buffer mutex guards only that
//      buffer's vector, taken once per completed span; threads never
//      contend with each other, only with a concurrent Snapshot.
//   3. Timestamps share one timebase. Spans, lock waits and the serve
//      path's latency accounting all read util/monotonic_clock.h, so a
//      Chrome trace assembled from them lines up in Perfetto.
//
// Exports: Chrome trace_event JSON (ToChromeTraceJson — load the file
// in ui.perfetto.dev or chrome://tracing) and a per-stage p50/p99
// decomposition (ComputeAttribution / AppendAttributionJson) that
// `irbuf_cli serve --telemetry` embeds in its output.

#ifndef IRBUF_OBS_SPAN_H_
#define IRBUF_OBS_SPAN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/monotonic_clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace irbuf::obs {

/// The stages of a served query's life that the serve path is
/// instrumented to time. Nesting at the recording sites follows this
/// containment: Evaluate > TermLoop > {PagePin > MissRead > {CrcVerify,
/// BlockDecode}, Accumulate}, Evaluate > TopKMerge and Evaluate >
/// ContextSnapshot; QueueWait is a top-level sibling of Evaluate.
/// LockWait spans are injected by the mutex-contention bridge at
/// whatever depth the blocked thread happened to be.
enum class SpanStage : uint8_t {
  kQueueWait = 0,    // admission-queue dwell: submit → worker pickup
  kContextSnapshot,  // a run's query-weight lease (BufferPool::BeginQuery)
  kEvaluate,         // whole evaluator call
  kTermLoop,         // one query term's posting traversal
  kPagePin,          // buffer-pool FetchPinned (hit or miss)
  kMissRead,         // miss path: disk read + simulated seek delay
  kCrcVerify,        // page checksum verification inside the disk read
  kBlockDecode,      // posting-block decode inside the disk read
  kAccumulate,       // accumulator updates for one fetched page
  kTopKMerge,        // final top-k selection
  kShardMerge,       // scatter-gather merge of per-shard partial top-k
  kLockWait,         // contended mutex acquisition (via MutexWaitStats)
  kPrefetchIssue,    // one readahead load on a background I/O worker
  kAsyncWait,        // a fetch blocked joining an in-flight page load
};

inline constexpr size_t kNumSpanStages = 14;

/// Short stable identifier ("queue_wait", "block_decode", ...) used as
/// the Chrome-trace event name and the attribution-table key.
const char* SpanStageName(SpanStage stage);

/// One completed span. 32 bytes; buffers hold millions without drama.
struct Span {
  uint64_t start_ns;  // MonotonicNowNs at entry
  uint64_t dur_ns;
  uint32_t query;     // SpanRecorder::kNoQuery when not query-attributed
  uint32_t term;      // term id for kTermLoop/kPagePin/... ; 0 otherwise
  SpanStage stage;
  uint8_t depth;      // nesting depth on the recording thread (0 = root)
};

/// All spans one thread recorded, keyed by its stable registration
/// index (the Chrome-trace tid).
struct ThreadSpans {
  uint32_t tid;
  std::vector<Span> spans;
};

/// Thread-safe collector of spans from any number of threads. One
/// recorder instruments one serve run (a bench cell, a CLI serve
/// session); Snapshot() after the workers drain, Clear() to reuse.
class SpanRecorder {
 public:
  /// `query` value for spans recorded outside any query's service.
  static constexpr uint32_t kNoQuery = 0xFFFFFFFFu;

  /// Per-thread span storage. `depth` and `current_query` are written
  /// only by the owning thread (no synchronization needed); `spans` is
  /// shared with Snapshot/Clear and guarded by `mu`.
  struct ThreadBuffer {
    Mutex mu;
    std::vector<Span> spans IRBUF_GUARDED_BY(mu);
    uint32_t depth = 0;               // owner thread only
    uint32_t current_query = kNoQuery;  // owner thread only
    uint32_t tid = 0;                 // registration index, frozen
  };

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Tags every subsequent span recorded *by the calling thread* with
  /// `query` (workers call this when they pick a task up, and reset to
  /// kNoQuery when done, so inter-query lock waits are not charged to
  /// the previous query).
  void SetCurrentQuery(uint32_t query) {
    BufferForThisThread()->current_query = query;
  }

  /// Records an already-timed span on the calling thread at its current
  /// nesting depth — for intervals whose start predates the recording
  /// thread's involvement (queue wait: submit happened on the client
  /// thread, pickup on the worker).
  void RecordManual(SpanStage stage, uint64_t start_ns, uint64_t end_ns,
                    uint32_t query, uint32_t term = 0);

  /// Records a contended-lock wait that ended now on the calling
  /// thread, attributed to its current query. Called by the
  /// MutexWaitBinding observer, not by instrumentation sites directly.
  void RecordLockWait(uint64_t wait_ns);

  /// Copies out every thread's spans, ordered by registration. Safe
  /// concurrently with recording, but only quiesced snapshots (workers
  /// joined or idle) are complete — the benches' reporting pattern.
  std::vector<ThreadSpans> Snapshot() const;

  /// Drops all recorded spans; thread registrations and the per-thread
  /// query/depth state survive, so a recorder is reusable across bench
  /// cells without re-warming the thread-local caches.
  void Clear();

  /// Resolves (registering on first use) the calling thread's buffer.
  /// Fast path is one thread-local compare. Public for ScopedSpan; not
  /// an instrumentation API.
  ThreadBuffer* BufferForThisThread();

 private:
  /// Process-unique id the thread-local cache keys on. An address
  /// would be reused by the allocator and make a stale cache entry dump
  /// spans into the wrong (or freed) recorder.
  const uint64_t id_;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ IRBUF_GUARDED_BY(mu_);
};

/// RAII span: times its own scope on the recording thread and bumps the
/// thread's nesting depth so children know theirs. With a null
/// recorder the constructor is one branch and the destructor another —
/// the "disabled is free" contract.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanStage stage, uint32_t term = 0) {
    if (recorder == nullptr) return;
    buf_ = recorder->BufferForThisThread();
    stage_ = stage;
    term_ = term;
    ++buf_->depth;
    start_ns_ = MonotonicNowNs();
  }

  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    const uint64_t end_ns = MonotonicNowNs();
    const uint32_t depth = --buf_->depth;
    MutexLock lock(buf_->mu);
    buf_->spans.push_back(Span{start_ns_, end_ns - start_ns_,
                               buf_->current_query, term_, stage_,
                               static_cast<uint8_t>(depth)});
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buf_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t term_ = 0;
  SpanStage stage_ = SpanStage::kQueueWait;
};

/// Renders a snapshot as Chrome trace_event JSON (complete "X" events,
/// microsecond timestamps, one trace tid per recording thread). Load
/// the result in ui.perfetto.dev or chrome://tracing.
std::string ToChromeTraceJson(const std::vector<ThreadSpans>& threads);

/// Per-run latency decomposition derived from a snapshot. All times
/// are inclusive (a kTermLoop total contains its page pins), so stage
/// shares are read per stage against the wall, not summed across
/// stages — see DESIGN.md §9 for the exact semantics.
struct SpanAttribution {
  struct Stage {
    uint64_t spans = 0;      // spans recorded for this stage
    uint64_t total_ns = 0;   // inclusive time across all queries
    double p50_us = 0.0;     // per-query stage-total percentiles,
    double p99_us = 0.0;     //   zero for queries that skip the stage
    double p99_share = 0.0;  // stage share of p99-bucket queries' wall
  };

  uint64_t queries = 0;      // distinct query ids seen
  double wall_p50_us = 0.0;  // per-query wall = sum of depth-0 spans
  double wall_p99_us = 0.0;
  std::array<Stage, kNumSpanStages> stages{};
};

/// Aggregates a snapshot: per-query wall from depth-0 spans, per-stage
/// per-query totals, and for the p99 bucket (queries with wall >= the
/// wall p99) each stage's share of the bucket's total wall — the table
/// that answers "which stage dominates the slow queries".
SpanAttribution ComputeAttribution(const std::vector<ThreadSpans>& threads);

/// Emits the attribution as one JSON object value:
///   {"queries":N,"wall_us":{"p50":..,"p99":..},
///    "stages":{"queue_wait":{"spans":..,"total_us":..,"p50_us":..,
///              "p99_us":..,"p99_share":..}, ...}}
/// The caller positions the writer (typically after Key("attribution")).
void AppendAttributionJson(const SpanAttribution& attr, JsonWriter& w);

/// Emits one MutexWaitStats as a JSON object value:
///   {"acquisitions":..,"contended":..,"wait_ns_total":..,
///    "wait_hist_us":[[lower_bound_us,count],...]}   (zero buckets
/// omitted). Shared by bench telemetry and the CLI.
void AppendMutexWaitJson(const MutexWaitStats& stats, JsonWriter& w);

/// Glue from util's dependency-free MutexWaitStats observer hook into
/// the obs layer: every contended wait is mirrored into `hist` (in
/// microseconds, for live MetricsRegistry export) and, when `recorder`
/// is non-null, recorded as a kLockWait span on the waiting thread so
/// contention shows up on the Perfetto timeline. The binding must
/// outlive the mutexes feeding `stats`.
class MutexWaitBinding {
 public:
  MutexWaitBinding() = default;
  MutexWaitBinding(const MutexWaitBinding&) = delete;
  MutexWaitBinding& operator=(const MutexWaitBinding&) = delete;

  void Bind(MutexWaitStats* stats, Histogram* hist, SpanRecorder* recorder);

 private:
  static void Observe(void* ctx, uint64_t wait_ns);

  Histogram* hist_ = nullptr;
  SpanRecorder* recorder_ = nullptr;
};

/// Histogram bounds (inclusive upper bounds, microseconds) matching the
/// MutexWaitStats log2 buckets, for registering "mutex.<name>.wait_us"
/// histograms in a MetricsRegistry.
std::vector<double> MutexWaitHistogramBounds();

}  // namespace irbuf::obs

#endif  // IRBUF_OBS_SPAN_H_
