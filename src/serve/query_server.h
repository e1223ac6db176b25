// QueryServer: the concurrent query-serving front end. A fixed pool of
// worker threads evaluates queries from a bounded admission queue over
// one shared ConcurrentBufferPool, with per-session accounting for
// refinement sequences and (optionally) shared-context ranking-aware
// replacement: the pool merges the weights its in-flight queries lease
// (ConcurrentPoolOptions::shared_context).
//
// Admission control: Submit is non-blocking. When the queue holds
// `queue_depth` waiting queries the submission is REJECTED with
// ResourceExhausted — backpressure the caller can see — instead of
// queueing unboundedly. A closed-loop caller (one outstanding query per
// user) therefore never sees a rejection as long as queue_depth >= the
// number of users.
//
// The single-user simulator is the 1-thread special case: a QueryServer
// with num_threads = 1 evaluates queries in exact submission order over
// a pool that makes the same decisions as BufferManager, so its answers
// (and, with shared_context off, its hit/miss counts) are byte-identical
// to IrSystem's — tests/serve/query_server_test.cc asserts this, and the
// round-robin interleave of ir::RunMultiUserWorkload is reproduced by
// submitting the same interleave to a 1-thread server.

#ifndef IRBUF_SERVE_QUERY_SERVER_H_
#define IRBUF_SERVE_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"
#include "serve/query_engine.h"
#include "util/monotonic_clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace irbuf::serve {

/// Deadline-aware overload control (CoDel-style shedding plus a
/// brownout ladder). Off by default; when enabled, ServerOptions::
/// deadline_us is measured from SUBMISSION instead of worker pickup, so
/// queue dwell spends the same budget evaluation does — which is what
/// makes shedding meaningful: a query whose remaining budget cannot
/// cover the observed median service time is dropped at dequeue with
/// kShedWhileQueued rather than evaluated into a guaranteed-late
/// answer. Before shedding, overload degrades gracefully: a queue-delay
/// EWMA drives a brownout ladder that first trims low-impact tail terms
/// (EvalControl::max_terms), then caps per-term page work
/// (EvalControl::max_pages_per_term) — each rung visible in telemetry —
/// so the server trades bounded answer quality for latency before it
/// trades availability.
struct OverloadOptions {
  bool enabled = false;
  /// Shed a dequeued query when remaining deadline budget <
  /// shed_factor * observed p50 service time.
  double shed_factor = 1.0;
  /// Completed-query samples required before the p50 is trusted (cold
  /// servers never shed on a wild first estimate).
  uint32_t min_service_samples = 8;
  /// Queue-delay EWMA smoothing weight (fraction of the newest sample).
  double ewma_alpha = 0.2;
  /// Brownout rung 1: queue-delay EWMA at or beyond this trims query
  /// terms to brownout_max_terms. 0 disables the rung.
  uint64_t brownout_term_threshold_us = 2000;
  uint32_t brownout_max_terms = 4;
  /// Brownout rung 2: EWMA at or beyond this additionally caps pages
  /// per term to brownout_max_pages_per_term. 0 disables the rung.
  uint64_t brownout_page_threshold_us = 8000;
  uint32_t brownout_max_pages_per_term = 4;
};

/// Configuration of a QueryServer.
struct ServerOptions {
  /// Worker threads evaluating queries.
  size_t num_threads = 4;
  /// Maximum queries waiting for a worker; submissions beyond this are
  /// rejected with ResourceExhausted.
  size_t queue_depth = 64;
  /// Shared buffer pool capacity, in pages.
  size_t buffer_pages = 256;
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  /// Evaluator tuning (DF vs BAF, thresholds, answer size).
  core::EvalOptions eval;
  /// Merge the weights of every in-flight query into the replacement
  /// context (Section 3.3; meaningful for ranking-aware policies). Off:
  /// each evaluation leases its own context, last writer wins — the
  /// honest per-query semantics under concurrency. Becomes the pool's
  /// ConcurrentPoolOptions::shared_context.
  bool shared_context = false;
  /// Simulated device latency per buffer miss (see ConcurrentPoolOptions).
  uint32_t io_delay_us_per_miss = 0;
  /// Readahead slots on the shared pool: background I/O workers that
  /// service the evaluators' page-access plans (see
  /// ConcurrentPoolOptions::prefetch_depth). 0 (default) disables
  /// readahead — the pool then behaves bit-identically to a server
  /// without the async pipeline.
  size_t prefetch_depth = 0;
  /// Per-query evaluation deadline in microseconds; 0 = none. A hit
  /// deadline returns the partial ranking built so far, annotated
  /// kDeadlineExceeded, instead of failing the query. Measured from the
  /// moment a worker picks the query up (queue wait excluded) — unless
  /// overload.enabled, which measures it from submission so queue dwell
  /// counts against the budget (see OverloadOptions).
  uint64_t deadline_us = 0;
  /// Deadline-aware load shedding and the brownout ladder.
  OverloadOptions overload;
  /// Retry/backoff + circuit breaker for the shared pool's disk reads
  /// (see ConcurrentPoolOptions::resilience). Disabled by default.
  fault::ResilienceOptions resilience;
  /// Latency-attribution recorder (obs/span.h). When set, the server
  /// wires it through the whole serve path — queue wait, context
  /// snapshot, evaluation (and, via the evaluator/pool/disk, term
  /// loops, page pins, miss reads, CRC verify, block decode,
  /// accumulator passes and the top-k merge) — and attaches it to the
  /// index's disk for the read-side spans (detached again when the
  /// server is destroyed; don't run two span-recording servers over one
  /// index at once). Not owned; must outlive the server. nullptr (the
  /// default) leaves only null-test branches on the hot path.
  obs::SpanRecorder* span_recorder = nullptr;
  /// Measure lock-contention waits on the admission-queue mutex and the
  /// shared pool's policy latch / page-table stripes (see
  /// QueueWaitStats and ConcurrentBufferPool::latch_wait_stats).
  bool profile_contention = false;
  /// External evaluation engine (e.g. shard::ShardedEngine). Not owned;
  /// must outlive the server. When set, workers route every query
  /// through it instead of the built-in single-pool path: `buffer_pages`,
  /// `policy`, `shared_context`, `io_delay_us_per_miss` and `resilience`
  /// above are then the *engine's* concern (configure them on the engine;
  /// the built-in pool sits idle), while admission, sessions,
  /// `deadline_us` and the serve.* metrics keep working unchanged.
  /// PoolStatsSnapshot() reports the engine's aggregate pool stats.
  QueryEngine* engine = nullptr;
};

/// One served answer plus its serving-side measurements.
struct QueryResponse {
  core::EvalResult eval;
  uint64_t session = 0;
  /// 1-based position of this query within its session.
  uint64_t session_step = 0;
  /// Submit-to-completion wall time.
  std::chrono::microseconds latency{0};
  /// Evaluation time only (latency minus queue wait).
  std::chrono::microseconds service_time{0};
  /// kOk for a full answer; kDeadlineExceeded when the per-query
  /// deadline cut evaluation and `eval` holds a partial ranking (its
  /// quality_bound says how partial).
  StatusCode annotation = StatusCode::kOk;
};

/// Cumulative per-session accounting (a session = one user's refinement
/// sequence; buffer contents persist across its steps, which is what the
/// refinement workloads exercise).
struct SessionStats {
  uint64_t queries = 0;
  uint64_t disk_reads = 0;
  uint64_t pages_processed = 0;
};

/// Server-level accounting.
struct ServerStats {
  uint64_t submitted = 0;
  /// Bounced at admission (queue full) with kResourceExhausted.
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Dropped from the queue by overload control with kShedWhileQueued
  /// (admitted, but the deadline budget could not cover evaluation).
  uint64_t shed = 0;
};

/// A concurrent query server over a prebuilt index.
class QueryServer {
 public:
  /// The index must outlive the server.
  QueryServer(const index::InvertedIndex* index, ServerOptions options);

  /// Stops and joins the workers (pending queries fail with
  /// FailedPrecondition).
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Launches the worker threads. Separate from construction so tests
  /// can pre-fill the queue deterministically. Idempotent.
  void Start() IRBUF_EXCLUDES(queue_mu_);

  /// Stops accepting work, fails queries still waiting in the queue with
  /// FailedPrecondition, and joins the workers (queries already being
  /// evaluated complete normally). Idempotent; also called by the
  /// destructor.
  void Stop() IRBUF_EXCLUDES(queue_mu_);

  /// Non-blocking admission. On success the future resolves when a
  /// worker has evaluated the query. Fails with ResourceExhausted when
  /// the admission queue is full and with FailedPrecondition after Stop.
  Result<std::future<Result<QueryResponse>>> Submit(uint64_t session,
                                                    core::Query query)
      IRBUF_EXCLUDES(queue_mu_);

  /// Blocking convenience: Submit + wait. Requires a started server.
  Result<QueryResponse> Execute(uint64_t session, core::Query query);

  /// Point-in-time copies (exact when the server is quiesced).
  ServerStats StatsSnapshot() const;
  SessionStats SessionSnapshot(uint64_t session) const;
  buffer::BufferStats PoolStatsSnapshot() const {
    return options_.engine != nullptr ? options_.engine->PoolStats()
                                      : pool_.StatsSnapshot();
  }

  /// Queries waiting for a worker right now.
  size_t QueueDepth() const IRBUF_EXCLUDES(queue_mu_);

  /// Resolves serve.* metric handles in `registry` (serve.submitted,
  /// serve.rejected_at_admission, serve.shed_while_queued,
  /// serve.completed, serve.failed, brownout-rung counters and the
  /// serve.latency_us histogram, whose JSON export carries p50/p90/p99;
  /// shed queries are excluded from the histogram so the percentiles
  /// reflect served traffic only) and binds the shared pool's buffer.*
  /// instruments. Call before Start; pass nullptr to unbind.
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Current queue-delay EWMA in microseconds (0 until overload control
  /// has seen a dequeue). The brownout ladder's input, exposed for
  /// tests and telemetry.
  double QueueDelayEwmaUs() const IRBUF_EXCLUDES(queue_mu_);

  ConcurrentBufferPool* mutable_pool() { return &pool_; }
  const ServerOptions& options() const { return options_; }

  /// Wait accounting for the admission-queue mutex (populated only when
  /// options.profile_contention is on). Non-const so callers can Bind
  /// an obs::MutexWaitBinding or Reset between measurement windows.
  MutexWaitStats* queue_wait_stats() { return &queue_waits_; }

 private:
  struct Task {
    uint64_t session = 0;
    core::Query query;
    std::promise<Result<QueryResponse>> promise;
    /// MonotonicNowNs at submission — the queue-wait span's start and
    /// the latency measurement's zero.
    uint64_t submitted_ns = 0;
    /// Server-unique id tying this query's spans together across the
    /// client (submit) and worker (evaluate) threads.
    uint32_t query_id = 0;
    /// Absolute deadline on the fault::MonotonicNowUs clock, stamped at
    /// submission when overload control is on; 0 otherwise. What the
    /// shed decision and the evaluator's EvalControl both consume.
    uint64_t deadline_us = 0;
  };

  void WorkerLoop() IRBUF_EXCLUDES(queue_mu_);
  /// `queue_delay_ewma_us` is the ladder input snapshotted at this
  /// task's dequeue (0 with overload off).
  void RunTask(Task task, double queue_delay_ewma_us)
      IRBUF_EXCLUDES(sessions_mu_);
  /// Overload shed decision for a just-dequeued task; fills `why` with
  /// the budget arithmetic when shedding.
  bool ShouldShed(const Task& task, std::string* why) const;

  struct MetricHandles {
    obs::Counter* submitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* brownout_trim_terms = nullptr;
    obs::Counter* brownout_trim_pages = nullptr;
    obs::Histogram* latency_us = nullptr;
  };

  const index::InvertedIndex* index_;
  const ServerOptions options_;
  ConcurrentBufferPool pool_;
  core::FilteringEvaluator evaluator_;

  /// Admission-queue latch. Never held while joining a worker (the
  /// workers take it to drain the queue) or while evaluating.
  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Task> queue_ IRBUF_GUARDED_BY(queue_mu_);
  bool stopping_ IRBUF_GUARDED_BY(queue_mu_) = false;
  bool started_ IRBUF_GUARDED_BY(queue_mu_) = false;
  /// Start fills this under queue_mu_; Stop swaps it out under queue_mu_
  /// and joins outside the lock (joining under it would deadlock with
  /// workers draining the queue).
  std::vector<std::thread> workers_ IRBUF_GUARDED_BY(queue_mu_);

  mutable Mutex sessions_mu_;
  std::unordered_map<uint64_t, SessionStats> sessions_
      IRBUF_GUARDED_BY(sessions_mu_);

  /// Queue-delay EWMA (microseconds), updated at every dequeue while
  /// overload control is on. Under queue_mu_ because it is read-modify-
  /// written exactly where the queue is already locked.
  double queue_delay_ewma_us_ IRBUF_GUARDED_BY(queue_mu_) = 0.0;
  /// Completed-query service times (microseconds) for the shed
  /// decision's p50. Log-spaced buckets from sub-ms to multi-second;
  /// Observe/Percentile are lock-free.
  obs::Histogram service_time_us_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint32_t> next_query_id_{0};
  MetricHandles metrics_;
  /// Contention accounting the constructor attaches to queue_mu_ when
  /// options.profile_contention is set.
  MutexWaitStats queue_waits_{"serve.queue"};
  /// True when the constructor attached options_.span_recorder to the
  /// index's disk (the destructor then detaches it).
  bool attached_disk_spans_ = false;
};

}  // namespace irbuf::serve

#endif  // IRBUF_SERVE_QUERY_SERVER_H_
