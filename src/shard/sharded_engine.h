// The scatter-gather evaluation engine: one TermwiseRun per shard,
// driven through a SHARED term order with a Smax barrier at every term
// boundary, partial top-k lists merged rank-safely at the end. Plugs
// into QueryServer as its serve::QueryEngine.
//
// Why sharded == unsharded, bit for bit:
//
//  1. The term order, the term budget, the deadline probe and the
//     forfeit of cut terms are ONE function, core::ScheduleTerms, which
//     the unsharded evaluator runs as well. The coordinator feeds it the
//     global lexicon and conversion table, b_t summed over the live
//     shard pools, and a step that fans the term out to every live
//     shard. DF's order is therefore the unsharded order by
//     construction, and BAF's rounds can differ only through b_t.
//  2. Thresholds depend on state only through Smax AT TERM START
//     (ProcessTerm computes f_ins/f_add once per term and only raises
//     Smax mid-term). The fan-out step is a barrier that hands the
//     scheduler the max of the per-shard Smax values; accumulators are
//     disjoint across shards (a doc lives in one shard), so max over
//     shards of the per-shard running max IS the unsharded running max,
//     and every shard enters the next term with the exact unsharded
//     Smax.
//  3. Within a shard, postings are processed in the source order
//     restricted to the shard's doc range (doc-range filtering
//     preserves list order), so each document's accumulator sees the
//     same additions in the same sequence — FP-identical scores.
//  4. The merge sorts the union of per-shard top-k partials with
//     SelectTopN's exact comparator (see shard/scatter_gather.h).
//
// DF is therefore bit-identical to the unsharded evaluator always —
// across warm refinement sequences, any policy, any capacity. BAF's
// *term order* additionally consults buffer residency b_t: against a
// cold pool both paths see b_t = 0 for every not-yet-processed term for
// the whole query (a processed term is never reconsidered), so
// single-query-from-cold BAF is bit-identical too; across a WARM
// sequence the sharded engine aggregates honest per-shard residency,
// which may legitimately order terms differently than one shared pool
// would (same answers only when thresholds are saturated; the golden
// tests pin the cold identity).
//
// Execution model (rethinkdb-style per-shard cache ownership with
// cross-thread message passing): each shard owns a small fixed pool of
// "lane" threads. A coordinator (the QueryServer worker running the
// query) posts one Step per shard per term and blocks on a countdown
// barrier, so one query's buffer misses overlap ACROSS shards — the
// unsharded evaluator's misses are serial, and PR 6 measured exactly
// that serial miss time as 95-97% of the 8-worker p99 — while
// lanes_per_shard >= the server's worker count keeps concurrent
// queries from serializing behind each other on a shard.

#ifndef IRBUF_SHARD_SHARDED_ENGINE_H_
#define IRBUF_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "fault/circuit_breaker.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/query_engine.h"
#include "shard/index_sharder.h"
#include "shard/sharded_buffer_pool.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace irbuf::shard {

/// A fixed pool of worker threads bound to one shard. Closures posted
/// here touch only that shard's posting file and buffer pool, so a
/// lane never contends on another shard's latch (the "no shared latch"
/// property is structural, not just lock-granularity).
class ShardLanes {
 public:
  explicit ShardLanes(size_t num_lanes);
  /// Joins the lanes after draining already-posted closures.
  ~ShardLanes();

  ShardLanes(const ShardLanes&) = delete;
  ShardLanes& operator=(const ShardLanes&) = delete;

  /// Enqueues `fn` for the next free lane; never blocks the caller.
  void Post(std::function<void()> fn) IRBUF_EXCLUDES(mu_);

 private:
  void LaneLoop() IRBUF_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ IRBUF_GUARDED_BY(mu_);
  bool stopping_ IRBUF_GUARDED_BY(mu_) = false;
  /// Filled in the constructor, joined in the destructor; never touched
  /// in between.
  std::vector<std::thread> lanes_;
};

/// Configuration of a ShardedEngine.
struct ShardedEngineOptions {
  /// Evaluator tuning, shared by every shard evaluator. buffer_aware
  /// selects DF vs BAF for the COORDINATOR's term ordering; tracer is
  /// ignored (per-shard tracer events would interleave meaninglessly);
  /// span_recorder is wired through shards, pools and disks.
  core::EvalOptions eval;
  /// Per-shard pool construction (total budget, policy, miss delay,
  /// resilience). pool.span_recorder defaults to eval.span_recorder
  /// when left null.
  ShardedPoolOptions pool;
  /// Lane threads per shard (>= 1). Use the serving worker count so
  /// every in-flight query can make progress on every shard at once.
  size_t lanes_per_shard = 1;
  /// Each shard pool's RAP context is the max-merge of every query in
  /// flight on it (ConcurrentPoolOptions::shared_context; Section 3.3
  /// under sharding). A query's shard run leases its weights from Begin
  /// until Finish. A forfeited shard's run never finishes, so its lease
  /// ends when the query's runs are destroyed: once Evaluate has
  /// returned and every abandoned straggler Step has returned too.
  bool shared_context = false;

  // --- Shard failure domains ---
  //
  // Each shard is its own failure domain: a per-shard circuit breaker
  // (fed by every step's I/O outcome — any lost page is a failure, a
  // clean step a success) plus an optional per-step soft deadline. A
  // shard whose breaker rejects a term, or that straggles past the soft
  // deadline, is FORFEITED for the rest of the query: its partial is
  // dropped wholesale and the merged result charges, per query term,
  // the shard-local page bound Σ PageMaxWeight * w_qt to quality_bound
  // (see LostShardTermBound) and the shard's page count to pages_lost.
  // The query still answers from the surviving shards, degraded but
  // honest. Breakers persist across queries, so a blacked-out shard
  // costs each query at most one probing term once tripped. With zero
  // lost pages a breaker never trips, so healthy-path behavior (and the
  // p=0 goldens) is unchanged.

  /// Tuning for every shard's breaker.
  fault::BreakerOptions shard_breaker;
  /// Wall-clock budget for any one shard to complete one term's step;
  /// a shard exceeding it is abandoned as a straggler (forfeited, its
  /// late completion discarded — never merged, never counted into
  /// Smax). 0 = wait indefinitely, the pre-failure-domain behavior.
  uint64_t shard_step_soft_deadline_us = 0;
};

/// Doc-partitioned scatter-gather engine over a ShardedIndex.
class ShardedEngine final : public serve::QueryEngine {
 public:
  /// `index` must outlive the engine.
  ShardedEngine(const ShardedIndex* index, ShardedEngineOptions options);
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Evaluates one query scatter-gather style. Thread-safe; each call
  /// owns its per-shard TermwiseRuns and barrier state, and the shard
  /// pools are concurrent. `query_id` tags lane-side spans so
  /// cross-thread work lands on the query's trace timeline.
  Result<core::EvalResult> Evaluate(const core::Query& query,
                                    const core::EvalControl* control,
                                    uint32_t query_id) override;

  buffer::BufferStats PoolStats() const override {
    return pool_.AggregateStats();
  }

  ShardedBufferPool* mutable_pool() { return &pool_; }
  size_t num_shards() const { return index_->num_shards(); }

  /// Upper bound on what one query term could have contributed from
  /// `shard`'s postings: sum over the shard-local pages of the term's
  /// list of PageMaxWeight * w_qt (w_qt from the GLOBAL idf, same as
  /// the unsharded evaluator). This is exactly the per-term charge a
  /// forfeited shard adds to the merged quality_bound — public so the
  /// chaos tests can assert the merge conserves it to the last bit.
  double LostShardTermBound(size_t shard, const core::QueryTerm& qt) const;

  /// Pages of `term`'s list living on `shard` — the per-term charge a
  /// forfeited shard adds to the merged pages_lost.
  uint32_t ShardTermPages(size_t shard, TermId term) const;

  /// The shard's failure-domain breaker (null for an out-of-range
  /// shard). Exposed so tests (and the chaos CLI) can pre-trip or
  /// inspect.
  fault::CircuitBreaker* shard_breaker(size_t shard) {
    return shard < breakers_.size() ? breakers_[shard].get() : nullptr;
  }

  /// Binds per-shard buffer instruments ("shard<i>.buffer.*"), shard
  /// breaker trip/reject counters ("shard<i>.breaker.*") and the
  /// engine-level forfeit counter ("engine.shards_lost").
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  /// Marks `shard` dead for the rest of this query and charges its
  /// whole possible contribution (every query term's shard-local page
  /// bound) to the merged result.
  void ForfeitShard(size_t shard, const core::Query& query,
                    std::vector<char>* dead, core::EvalResult* merged);

  const ShardedIndex* index_;
  const ShardedEngineOptions options_;
  ShardedBufferPool pool_;
  std::vector<core::FilteringEvaluator> evaluators_;
  std::vector<std::unique_ptr<ShardLanes>> lanes_;
  /// Per-shard failure-domain breakers. Their own mutex serializes
  /// feeding; persists across queries.
  std::vector<std::unique_ptr<fault::CircuitBreaker>> breakers_;
  /// Bumped once per shard forfeiture; wired at BindMetrics time (the
  /// Counter itself is thread-safe).
  obs::Counter* shards_lost_metric_ = nullptr;
  /// True when the constructor attached eval.span_recorder to the shard
  /// disks (the destructor then detaches it).
  bool attached_disk_spans_ = false;
};

}  // namespace irbuf::shard

#endif  // IRBUF_SHARD_SHARDED_ENGINE_H_
