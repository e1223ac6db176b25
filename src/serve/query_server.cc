#include "serve/query_server.h"

#include <algorithm>

#include "fault/backoff.h"
#include "util/str.h"

namespace irbuf::serve {

namespace {

ServerOptions Normalize(ServerOptions options) {
  options.num_threads = std::max<size_t>(1, options.num_threads);
  options.queue_depth = std::max<size_t>(1, options.queue_depth);
  return options;
}

ConcurrentPoolOptions PoolOptionsFor(const ServerOptions& options) {
  ConcurrentPoolOptions pool;
  pool.capacity = options.buffer_pages;
  pool.policy = options.policy;
  pool.io_delay_us_per_miss = options.io_delay_us_per_miss;
  pool.prefetch_depth = options.prefetch_depth;
  pool.resilience = options.resilience;
  pool.span_recorder = options.span_recorder;
  pool.profile_contention = options.profile_contention;
  pool.shared_context = options.shared_context;
  return pool;
}

core::EvalOptions EvalOptionsFor(const ServerOptions& options) {
  core::EvalOptions eval = options.eval;
  eval.span_recorder = options.span_recorder;
  return eval;
}

// Shared by the service-time tracker and the serve.latency_us export:
// log-spaced sub-ms to multi-second. The top buckets matter for the
// shed decision, not just the export: Percentile() pins the +inf
// bucket to the last finite bound, so if real service times outran the
// top bucket the p50 estimate would saturate there and the
// `remaining < shed_factor * p50` test would underestimate service
// cost exactly in the heavy-overload regime shedding targets. Extends
// to 10s; beyond that p50 is a documented lower bound.
std::vector<double> LatencyBucketsUs() {
  return {100.0,    250.0,    500.0,     1000.0,    2500.0,
          5000.0,   10000.0,  25000.0,   50000.0,   100000.0,
          250000.0, 500000.0, 1000000.0, 2500000.0, 5000000.0,
          10000000.0};
}

}  // namespace

QueryServer::QueryServer(const index::InvertedIndex* index,
                         ServerOptions options)
    : index_(index),
      options_(Normalize(options)),
      pool_(&index->disk(), PoolOptionsFor(options_)),
      evaluator_(index, EvalOptionsFor(options_)),
      service_time_us_(LatencyBucketsUs()) {
  if (options_.profile_contention) {
    queue_mu_.TrackContention(&queue_waits_);
  }
  if (options_.span_recorder != nullptr && options_.engine == nullptr) {
    // The read-side spans (CRC verify, block decode) are recorded by
    // the disk itself, which the index hands out const — attach for the
    // server's lifetime, exactly like fault injection. An external
    // engine reads its own (per-shard) disks and attaches spans there.
    index_->disk().SetSpanRecorder(options_.span_recorder);
    attached_disk_spans_ = true;
  }
}

QueryServer::~QueryServer() {
  Stop();
  if (attached_disk_spans_) index_->disk().SetSpanRecorder(nullptr);
}

void QueryServer::Start() {
  MutexLock lock(queue_mu_);
  if (started_ || stopping_) return;
  started_ = true;
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void QueryServer::Stop() {
  // Claim the queue AND the worker handles under the latch, then fail /
  // join outside it: joining under queue_mu_ would deadlock (workers
  // take it to drain), and joining unsynchronized would race a
  // concurrent Stop (two callers iterating workers_ at once).
  std::deque<Task> orphans;
  std::vector<std::thread> workers;
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
    orphans.swap(queue_);
    workers.swap(workers_);
  }
  queue_cv_.NotifyAll();
  for (Task& task : orphans) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.failed != nullptr) metrics_.failed->Add(1);
    task.promise.set_value(
        Status::FailedPrecondition("server stopped before evaluation"));
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

Result<std::future<Result<QueryResponse>>> QueryServer::Submit(
    uint64_t session, core::Query query) {
  Task task;
  task.session = session;
  task.query = std::move(query);
  task.submitted_ns = MonotonicNowNs();
  task.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  if (options_.overload.enabled && options_.deadline_us > 0) {
    // Overload control measures the deadline from SUBMISSION: queue
    // dwell spends the same budget evaluation does, which is what makes
    // the shed decision at dequeue meaningful.
    task.deadline_us = fault::MonotonicNowUs() + options_.deadline_us;
  }
  std::future<Result<QueryResponse>> future = task.promise.get_future();
  {
    MutexLock lock(queue_mu_);
    if (stopping_) {
      return Status::FailedPrecondition("server is stopped");
    }
    if (queue_.size() >= options_.queue_depth) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_.rejected != nullptr) metrics_.rejected->Add(1);
      return Status::ResourceExhausted(
          StrFormat("admission queue full (%zu queries waiting); retry "
                    "after an answer drains",
                    queue_.size()));
    }
    queue_.push_back(std::move(task));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.submitted != nullptr) metrics_.submitted->Add(1);
  queue_cv_.NotifyOne();
  return future;
}

Result<QueryResponse> QueryServer::Execute(uint64_t session,
                                           core::Query query) {
  Result<std::future<Result<QueryResponse>>> submitted =
      Submit(session, std::move(query));
  if (!submitted.ok()) return submitted.status();
  return submitted.value().get();
}

void QueryServer::WorkerLoop() {
  for (;;) {
    Task task;
    double ewma_us = 0.0;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // Stopping and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      if (options_.overload.enabled) {
        const double delay_us = static_cast<double>(
            (MonotonicNowNs() - task.submitted_ns) / 1000);
        const double alpha = options_.overload.ewma_alpha;
        queue_delay_ewma_us_ =
            alpha * delay_us + (1.0 - alpha) * queue_delay_ewma_us_;
        ewma_us = queue_delay_ewma_us_;
      }
    }
    std::string why;
    if (ShouldShed(task, &why)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_.shed != nullptr) metrics_.shed->Add(1);
      // Shed queries never touch the latency histogram: the exported
      // percentiles describe served traffic, and a shed is visible in
      // its own counter, never as silent latency.
      task.promise.set_value(Status::ShedWhileQueued(why));
      continue;
    }
    RunTask(std::move(task), ewma_us);
  }
}

bool QueryServer::ShouldShed(const Task& task, std::string* why) const {
  if (!options_.overload.enabled || task.deadline_us == 0) return false;
  const uint64_t now_us = fault::MonotonicNowUs();
  if (now_us >= task.deadline_us) {
    *why = StrFormat("deadline already elapsed %llu us ago while queued",
                     static_cast<unsigned long long>(now_us -
                                                     task.deadline_us));
    return true;
  }
  if (service_time_us_.count() < options_.overload.min_service_samples) {
    return false;  // p50 not yet trustworthy; serve and learn.
  }
  const double remaining_us = static_cast<double>(task.deadline_us - now_us);
  const double p50_us = service_time_us_.Percentile(50.0);
  if (remaining_us < options_.overload.shed_factor * p50_us) {
    *why = StrFormat(
        "remaining budget %.0f us < %.2f x p50 service time %.0f us",
        remaining_us, options_.overload.shed_factor, p50_us);
    return true;
  }
  return false;
}

double QueryServer::QueueDelayEwmaUs() const {
  MutexLock lock(queue_mu_);
  return queue_delay_ewma_us_;
}

void QueryServer::RunTask(Task task, double queue_delay_ewma_us) {
  const uint64_t service_start_ns = MonotonicNowNs();
  obs::SpanRecorder* const spans = options_.span_recorder;
  if (spans != nullptr) {
    // Everything this worker records until the reset below belongs to
    // this query; the queue dwell is recorded manually because its
    // start happened on the submitting client's thread.
    spans->SetCurrentQuery(task.query_id);
    spans->RecordManual(obs::SpanStage::kQueueWait, task.submitted_ns,
                        service_start_ns, task.query_id);
  }
  core::EvalControl control;
  const core::EvalControl* control_ptr = nullptr;
  if (task.deadline_us > 0) {
    // Submission-stamped budget (overload mode): queue dwell already
    // spent part of it.
    control.deadline_us = task.deadline_us;
    control_ptr = &control;
  } else if (options_.deadline_us > 0) {
    control.deadline_us = fault::MonotonicNowUs() + options_.deadline_us;
    control_ptr = &control;
  }
  if (options_.overload.enabled) {
    // Brownout ladder: trade bounded answer quality for latency before
    // overload escalates to shedding. Rung 1 trims tail terms, rung 2
    // additionally caps per-term page work.
    const OverloadOptions& ov = options_.overload;
    if (ov.brownout_term_threshold_us > 0 &&
        queue_delay_ewma_us >=
            static_cast<double>(ov.brownout_term_threshold_us)) {
      control.max_terms = ov.brownout_max_terms;
      control_ptr = &control;
      if (metrics_.brownout_trim_terms != nullptr) {
        metrics_.brownout_trim_terms->Add(1);
      }
    }
    if (ov.brownout_page_threshold_us > 0 &&
        queue_delay_ewma_us >=
            static_cast<double>(ov.brownout_page_threshold_us)) {
      control.max_pages_per_term = ov.brownout_max_pages_per_term;
      control_ptr = &control;
      if (metrics_.brownout_trim_pages != nullptr) {
        metrics_.brownout_trim_pages->Add(1);
      }
    }
  }
  Result<core::EvalResult> eval = [&] {
    obs::ScopedSpan eval_span(spans, obs::SpanStage::kEvaluate);
    if (options_.engine != nullptr) {
      return options_.engine->Evaluate(task.query, control_ptr,
                                       task.query_id);
    }
    return evaluator_.Evaluate(task.query, &pool_, control_ptr);
  }();
  const uint64_t end_ns = MonotonicNowNs();
  if (spans != nullptr) spans->SetCurrentQuery(obs::SpanRecorder::kNoQuery);

  if (!eval.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.failed != nullptr) metrics_.failed->Add(1);
    task.promise.set_value(eval.status());
    return;
  }

  QueryResponse response;
  response.eval = std::move(eval).value();
  response.session = task.session;
  if (response.eval.deadline_hit) {
    response.annotation = StatusCode::kDeadlineExceeded;
    if (metrics_.deadline_exceeded != nullptr) {
      metrics_.deadline_exceeded->Add(1);
    }
  }
  if (response.eval.degraded && metrics_.degraded != nullptr) {
    metrics_.degraded->Add(1);
  }
  response.latency =
      std::chrono::microseconds((end_ns - task.submitted_ns) / 1000);
  response.service_time =
      std::chrono::microseconds((end_ns - service_start_ns) / 1000);
  {
    MutexLock lock(sessions_mu_);
    SessionStats& session_stats = sessions_[task.session];
    ++session_stats.queries;
    session_stats.disk_reads += response.eval.disk_reads;
    session_stats.pages_processed += response.eval.pages_processed;
    response.session_step = session_stats.queries;
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.completed != nullptr) metrics_.completed->Add(1);
  if (metrics_.latency_us != nullptr) {
    metrics_.latency_us->Observe(
        static_cast<double>(response.latency.count()));
  }
  // Feed the shed decision's p50 from every completed evaluation (shed
  // queries never reach here, so the estimate tracks served work).
  service_time_us_.Observe(static_cast<double>(response.service_time.count()));
  task.promise.set_value(std::move(response));
}

ServerStats QueryServer::StatsSnapshot() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  return s;
}

SessionStats QueryServer::SessionSnapshot(uint64_t session) const {
  MutexLock lock(sessions_mu_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? SessionStats{} : it->second;
}

size_t QueryServer::QueueDepth() const {
  MutexLock lock(queue_mu_);
  return queue_.size();
}

void QueryServer::BindMetrics(obs::MetricsRegistry* registry) {
  // With an external engine the built-in pool never serves a fetch;
  // binding it would only register always-zero buffer.* instruments
  // (the engine exposes its own, per-shard, BindMetrics).
  if (options_.engine == nullptr) pool_.BindMetrics(registry);
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.submitted =
      registry->AddCounter("serve.submitted", "queries admitted to the queue");
  metrics_.rejected = registry->AddCounter(
      "serve.rejected_at_admission",
      "submissions bounced by admission control (queue full)");
  metrics_.shed = registry->AddCounter(
      "serve.shed_while_queued",
      "admitted queries dropped at dequeue because the remaining "
      "deadline budget could not cover evaluation");
  metrics_.completed =
      registry->AddCounter("serve.completed", "queries answered");
  metrics_.failed =
      registry->AddCounter("serve.failed", "queries that errored or aborted");
  metrics_.deadline_exceeded = registry->AddCounter(
      "serve.deadline_exceeded",
      "queries answered partially because the deadline elapsed");
  metrics_.degraded = registry->AddCounter(
      "serve.degraded",
      "queries answered with pages lost or a deadline hit");
  metrics_.brownout_trim_terms = registry->AddCounter(
      "serve.brownout_trim_terms",
      "queries evaluated with the term budget trimmed (brownout rung 1)");
  metrics_.brownout_trim_pages = registry->AddCounter(
      "serve.brownout_trim_pages",
      "queries evaluated with per-term page work capped (brownout rung 2)");
  metrics_.latency_us = registry->AddHistogram(
      "serve.latency_us", LatencyBucketsUs(),
      "submit-to-answer latency in microseconds (shed queries excluded)");
}

}  // namespace irbuf::serve
