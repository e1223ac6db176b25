#include "shard/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "core/scorer.h"
#include "core/term_scheduler.h"
#include "fault/backoff.h"
#include "shard/scatter_gather.h"
#include "util/str.h"

namespace irbuf::shard {

namespace {

ShardedEngineOptions Normalize(ShardedEngineOptions options) {
  if (options.pool.span_recorder == nullptr) {
    options.pool.span_recorder = options.eval.span_recorder;
  }
  options.lanes_per_shard = std::max<size_t>(1, options.lanes_per_shard);
  return options;
}

/// Countdown barrier for one per-term fan-out, built to survive lanes
/// dropping out: the coordinator posts one Step per LIVE shard, each
/// lane Completes its own slot, and the coordinator waits with an
/// optional timeout. Results are pull-based — the coordinator snapshots
/// the slots after its wait and aggregates only the shards that had
/// completed by then — so a straggler's late completion lands in a slot
/// nobody reads: its Smax can never leak into the query, and there is
/// no count left dangling that could deadlock a future barrier.
///
/// Heap-allocated under shared ownership (coordinator + every lane
/// closure): after straggler abandonment a lane may Complete long after
/// the coordinator moved on — or returned — and must still find the
/// barrier alive.
struct FanOut {
  using StepOutcome = core::FilteringEvaluator::TermwiseRun::StepOutcome;

  struct Slot {
    bool done = false;
    bool ok = false;
    StepOutcome outcome;
    Status status;
  };

  FanOut(size_t shards, size_t expected_in)
      : expected(expected_in), slots(shards) {}

  Mutex mu;
  CondVar cv;
  /// Completions the coordinator will wait for (= steps posted).
  const size_t expected;
  size_t completed IRBUF_GUARDED_BY(mu) = 0;
  std::vector<Slot> slots IRBUF_GUARDED_BY(mu);

  void Complete(size_t shard, Result<StepOutcome> outcome)
      IRBUF_EXCLUDES(mu) {
    MutexLock lock(mu);
    Slot& slot = slots[shard];
    slot.done = true;
    if (outcome.ok()) {
      slot.ok = true;
      slot.outcome = outcome.value();
    } else {
      slot.status = outcome.status();
    }
    if (++completed >= expected) cv.NotifyAll();
  }

  void CompleteVoid(size_t shard) IRBUF_EXCLUDES(mu) {
    MutexLock lock(mu);
    slots[shard].done = true;
    slots[shard].ok = true;
    if (++completed >= expected) cv.NotifyAll();
  }

  /// Waits for all expected completions, giving up after `timeout_us`
  /// (0 = wait forever). Returns true when everyone arrived. Notifies
  /// fire only at full completion, so a timed wait that wakes early is
  /// spurious; the deadline is absolute (computed once on entry) so
  /// spurious wakeups re-arm only the REMAINING time and the soft
  /// deadline never stretches past its configured value.
  bool Wait(uint64_t timeout_us) IRBUF_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (timeout_us == 0) {
      while (completed < expected) cv.Wait(mu);
      return true;
    }
    const uint64_t deadline_us = fault::MonotonicNowUs() + timeout_us;
    while (completed < expected) {
      const uint64_t now_us = fault::MonotonicNowUs();
      if (now_us >= deadline_us) return false;
      (void)cv.WaitFor(mu, deadline_us - now_us);
    }
    return true;
  }

  /// Coordinator-side snapshot after Wait: one lock hold, then all
  /// aggregation (and breaker feeding) happens lock-free on the copy.
  std::vector<Slot> Snapshot() IRBUF_EXCLUDES(mu) {
    MutexLock lock(mu);
    return slots;
  }
};

}  // namespace

ShardLanes::ShardLanes(size_t num_lanes) {
  const size_t count = std::max<size_t>(1, num_lanes);
  lanes_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    lanes_.emplace_back([this] { LaneLoop(); });
  }
}

ShardLanes::~ShardLanes() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
}

void ShardLanes::Post(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    tasks_.push_back(std::move(fn));
  }
  cv_.NotifyOne();
}

void ShardLanes::LaneLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && tasks_.empty()) cv_.Wait(mu_);
      if (tasks_.empty()) return;  // Stopping and drained.
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

ShardedEngine::ShardedEngine(const ShardedIndex* index,
                             ShardedEngineOptions options)
    : index_(index),
      options_(Normalize(std::move(options))),
      pool_(index, options_.pool, options_.shared_context) {
  const size_t num_shards = index_->num_shards();
  core::EvalOptions eval = options_.eval;
  eval.tracer = nullptr;
  evaluators_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    evaluators_.emplace_back(&index_->shard(s), eval);
  }
  lanes_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    lanes_.push_back(std::make_unique<ShardLanes>(options_.lanes_per_shard));
  }
  breakers_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    breakers_.push_back(
        std::make_unique<fault::CircuitBreaker>(options_.shard_breaker));
  }
  if (options_.eval.span_recorder != nullptr) {
    // Read-side spans (CRC verify, block decode) are recorded by each
    // shard's disk; attach for the engine's lifetime, like QueryServer
    // does for the unsharded disk.
    for (size_t s = 0; s < num_shards; ++s) {
      index_->shard(s).disk().SetSpanRecorder(options_.eval.span_recorder);
    }
    attached_disk_spans_ = true;
  }
}

ShardedEngine::~ShardedEngine() {
  // Join the lanes before anything they might touch is torn down.
  lanes_.clear();
  if (attached_disk_spans_) {
    for (size_t s = 0; s < index_->num_shards(); ++s) {
      index_->shard(s).disk().SetSpanRecorder(nullptr);
    }
  }
}

double ShardedEngine::LostShardTermBound(size_t shard,
                                         const core::QueryTerm& qt) const {
  // Every shard-local page of the term's list could have contributed at
  // most page_max_weight * w_qt per posting-touched document — the same
  // replacement-value bound an unreadable page gets one level down.
  // w_qt uses the GLOBAL idf, matching what the shard evaluator itself
  // would have used (shards share global statistics).
  const index::InvertedIndex& local = index_->shard(shard);
  const uint32_t pages = local.lexicon().info(qt.term).pages;
  const double wq =
      core::QueryTermWeight(qt.fq, index_->lexicon().info(qt.term).idf);
  double bound = 0.0;
  for (uint32_t page_no = 0; page_no < pages; ++page_no) {
    bound += local.disk().PageMaxWeight(PageId{qt.term, page_no}) * wq;
  }
  return bound;
}

uint32_t ShardedEngine::ShardTermPages(size_t shard, TermId term) const {
  return index_->shard(shard).lexicon().info(term).pages;
}

void ShardedEngine::ForfeitShard(size_t shard, const core::Query& query,
                                 std::vector<char>* dead,
                                 core::EvalResult* merged) {
  if ((*dead)[shard] != 0) return;
  (*dead)[shard] = 1;
  ++merged->shards_lost;
  if (shards_lost_metric_ != nullptr) shards_lost_metric_->Add(1);
  // The shard's whole possible contribution is charged, executed terms
  // included: its partial (accumulators, counters, earlier per-page
  // bounds) is dropped wholesale at gather time, so the per-term page
  // bounds below cover everything it could have added to any document.
  for (const core::QueryTerm& qt : query.terms()) {
    merged->quality_bound += LostShardTermBound(shard, qt);
    merged->pages_lost += ShardTermPages(shard, qt.term);
  }
}

void ShardedEngine::BindMetrics(obs::MetricsRegistry* registry) {
  pool_.BindMetrics(registry);
  if (registry == nullptr) {
    shards_lost_metric_ = nullptr;
    for (std::unique_ptr<fault::CircuitBreaker>& breaker : breakers_) {
      breaker->BindMetrics(nullptr, nullptr);
    }
    return;
  }
  shards_lost_metric_ = registry->AddCounter(
      "engine.shards_lost",
      "shards forfeited mid-query (breaker open or straggler abandoned)");
  for (size_t s = 0; s < breakers_.size(); ++s) {
    breakers_[s]->BindMetrics(
        registry->AddCounter(StrFormat("shard%zu.breaker.trips", s),
                             "shard failure-domain breaker trips"),
        registry->AddCounter(StrFormat("shard%zu.breaker.rejects", s),
                             "term steps fail-fasted by the shard breaker"));
  }
}

Result<core::EvalResult> ShardedEngine::Evaluate(
    const core::Query& query, const core::EvalControl* control,
    uint32_t query_id) {
  core::EvalResult merged;
  if (query.empty()) return merged;

  const size_t num_shards = index_->num_shards();
  const index::Lexicon& lexicon = index_->lexicon();
  obs::SpanRecorder* const spans = options_.eval.span_recorder;

  // Per-query evaluation state shared with the lanes. Straggler
  // abandonment means a lane may still be inside a Step after the
  // coordinator moved on (or returned), so the runs live on the heap
  // under shared ownership and every lane closure holds a reference.
  // Each run's Begin leases the query's weights on its shard pool.
  struct QueryRuns {
    std::vector<core::FilteringEvaluator::TermwiseRun> runs;
  };
  auto shared = std::make_shared<QueryRuns>();
  shared->runs.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shared->runs.emplace_back(&evaluators_[s], pool_.shard(s));
    shared->runs[s].Begin(query, control);
  }

  // Shard liveness for THIS query: a shard goes dead when its breaker
  // rejects a term or it straggles past the soft deadline; it never
  // comes back within the query (its forfeiture already charged its
  // whole contribution).
  std::vector<char> dead(num_shards, 0);
  const auto live_count = [&dead, num_shards]() {
    size_t live = 0;
    for (size_t s = 0; s < num_shards; ++s) live += dead[s] == 0 ? 1 : 0;
    return live;
  };

  struct SmaxSpan {
    double before;
    double after;
  };
  std::vector<SmaxSpan> trajectory;  // Per executed term (trace merge).

  // One term across the live shards: breaker admission, post one Step
  // per live shard, timed barrier, straggler forfeiture, breaker
  // feedback, cross-shard Smax max. Dead shards are excluded from the
  // barrier AND from the aggregate, so a forfeited shard contributes
  // neither staleness nor deadlock.
  const auto step_all = [&](const core::QueryTerm& qt,
                            double* smax) -> Result<bool> {
    // Breaker admission: a shard whose breaker rejects the request is
    // forfeited before any work is posted. A half-open breaker admits
    // exactly one query's step as its probe; everyone else degrades.
    for (size_t s = 0; s < num_shards; ++s) {
      if (dead[s] != 0) continue;
      if (!breakers_[s]->AllowRequest()) {
        ForfeitShard(s, query, &dead, &merged);
      }
    }

    const size_t live = live_count();
    if (live == 0) return false;  // Every shard already charged.
    const double smax_in = *smax;
    auto fan = std::make_shared<FanOut>(num_shards, live);
    for (size_t s = 0; s < num_shards; ++s) {
      if (dead[s] != 0) continue;
      core::FilteringEvaluator::TermwiseRun* run = &shared->runs[s];
      lanes_[s]->Post([fan, shared, s, run, qt, spans, query_id, smax_in] {
        if (spans != nullptr) spans->SetCurrentQuery(query_id);
        fan->Complete(s, run->Step(qt, smax_in));
        if (spans != nullptr) {
          spans->SetCurrentQuery(obs::SpanRecorder::kNoQuery);
        }
      });
    }
    (void)fan->Wait(options_.shard_step_soft_deadline_us);

    const std::vector<FanOut::Slot> slots = fan->Snapshot();
    double agg_smax = smax_in;
    bool agg_skipped = true;
    Status first_error;  // Deferred: breaker accounting must finish.
    for (size_t s = 0; s < num_shards; ++s) {
      if (dead[s] != 0) continue;  // Was not posted this term.
      const FanOut::Slot& slot = slots[s];
      if (!slot.done) {
        // Straggler: abandoned mid-term. Its admitted request is
        // recorded as a failure (frees a half-open probe slot, pushes
        // the breaker toward a trip) and the shard is forfeited; the
        // late completion writes a slot nobody reads.
        breakers_[s]->RecordFailure();
        ForfeitShard(s, query, &dead, &merged);
        continue;
      }
      // Exactly one Record* per admitted step keeps the breaker's probe
      // accounting 1:1 with AllowRequest — on the logic-error path too,
      // or a half-open probe would wedge forever. A step that completed
      // with a logic error still got a device response, so it counts as
      // a success: the window measures device health, not query
      // validity.
      if (slot.ok && slot.outcome.pages_lost > 0) {
        breakers_[s]->RecordFailure();
      } else {
        breakers_[s]->RecordSuccess();
      }
      if (!slot.ok) {
        // Logic error fails the query — but only after every admitted
        // shard this term has fed its breaker outcome above.
        if (first_error.ok()) first_error = slot.status;
        continue;
      }
      agg_smax = std::max(agg_smax, slot.outcome.smax);
      agg_skipped = agg_skipped && slot.outcome.skipped;
    }
    if (!first_error.ok()) return first_error;
    if (live_count() == 0) return false;  // Every live shard straggled.
    trajectory.push_back(SmaxSpan{smax_in, agg_smax});
    *smax = agg_smax;
    if (agg_skipped) ++merged.terms_skipped;
    return true;
  };

  // The term loop itself is the unsharded evaluator's, over GLOBAL
  // statistics: thresholds and p_t from the global lexicon and
  // conversion table, b_t summed over the LIVE shard pools only — a
  // dead shard's resident pages are unreachable for this query, so
  // counting them would starve the ordering of the reads it still has
  // to do.
  Result<double> scheduled = core::ScheduleTerms(
      query, lexicon, index_->conversion_table(), options_.eval, control,
      [this, &dead, num_shards](TermId term) {
        uint32_t bt = 0;
        for (size_t s = 0; s < num_shards; ++s) {
          if (dead[s] == 0) bt += pool_.shard(s)->ResidentPages(term);
        }
        return bt;
      },
      step_all, &merged);
  if (!scheduled.ok()) return scheduled.status();

  // Gather: per-shard normalization + top-k selection runs on the
  // lanes (it walks shard-local accumulators), then the coordinator
  // merges the partials. Only surviving shards are gathered; a dead
  // shard's partial was already charged wholesale to the bound. Finish
  // is CPU-only (no device reads), so the gather barrier waits
  // untimed — a live shard always completes it.
  std::vector<core::EvalResult> partials(num_shards);
  if (live_count() > 0) {
    auto fan = std::make_shared<FanOut>(num_shards, live_count());
    for (size_t s = 0; s < num_shards; ++s) {
      if (dead[s] != 0) continue;
      core::FilteringEvaluator::TermwiseRun* run = &shared->runs[s];
      core::EvalResult* out = &partials[s];
      lanes_[s]->Post([fan, shared, s, run, out, spans, query_id] {
        if (spans != nullptr) spans->SetCurrentQuery(query_id);
        *out = run->Finish();
        if (spans != nullptr) {
          spans->SetCurrentQuery(obs::SpanRecorder::kNoQuery);
        }
        fan->CompleteVoid(s);
      });
    }
    (void)fan->Wait(0);
  }
  {
    obs::ScopedSpan merge_span(spans, obs::SpanStage::kShardMerge);
    std::vector<std::vector<core::ScoredDoc>> tops;
    tops.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      if (dead[s] != 0) continue;
      tops.push_back(std::move(partials[s].top_docs));
    }
    merged.top_docs =
        ScatterGatherMerger::MergeTopK(tops, options_.eval.top_n);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (dead[s] != 0) continue;
    const core::EvalResult& partial = partials[s];
    merged.disk_reads += partial.disk_reads;
    merged.pages_processed += partial.pages_processed;
    merged.postings_processed += partial.postings_processed;
    merged.accumulators += partial.accumulators;
    merged.pages_lost += partial.pages_lost;
    merged.pages_trimmed += partial.pages_trimmed;
    merged.work_trimmed = merged.work_trimmed || partial.work_trimmed;
    merged.quality_bound += partial.quality_bound;
  }
  merged.degraded = merged.pages_lost > 0 || merged.deadline_hit ||
                    merged.work_trimmed || merged.shards_lost > 0;
  if (options_.eval.record_trace) {
    // Per-term merged trace over the SURVIVING shards: counters summed,
    // the Smax trajectory and thresholds from the coordinator's
    // (global) view. Every surviving shard participated in every
    // executed term, so their traces align row-for-row; a forfeited
    // shard's rows (possibly truncated mid-query) are dropped with its
    // partial. A term is "skipped" when every surviving shard skipped
    // it, which equals the unsharded fmax <= f_add test because global
    // fmax is the max of the shard fmaxes and f_add is shared.
    size_t first_live = num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (dead[s] == 0) {
        first_live = s;
        break;
      }
    }
    if (first_live < num_shards) {
      merged.trace.reserve(trajectory.size());
      for (size_t i = 0; i < trajectory.size(); ++i) {
        core::TermTrace trace = partials[first_live].trace[i];
        trace.total_pages = 0;
        trace.pages_processed = 0;
        trace.pages_read = 0;
        trace.postings_processed = 0;
        trace.pages_lost = 0;
        trace.pages_trimmed = 0;
        trace.skipped = true;
        for (size_t s = 0; s < num_shards; ++s) {
          if (dead[s] != 0) continue;
          const core::TermTrace& shard_trace = partials[s].trace[i];
          trace.total_pages += shard_trace.total_pages;
          trace.pages_processed += shard_trace.pages_processed;
          trace.pages_read += shard_trace.pages_read;
          trace.postings_processed += shard_trace.postings_processed;
          trace.pages_lost += shard_trace.pages_lost;
          trace.pages_trimmed += shard_trace.pages_trimmed;
          trace.skipped = trace.skipped && shard_trace.skipped;
        }
        trace.smax_before = trajectory[i].before;
        trace.smax_after = trajectory[i].after;
        merged.trace.push_back(trace);
      }
    }
  }
  return merged;
}

}  // namespace irbuf::shard
