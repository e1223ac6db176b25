// The chaos harness: refinement-style workloads under randomized fault
// schedules, across both evaluation algorithms (DF, BAF), both headline
// replacement policies (LRU, RAP) and both serving shapes (1 worker,
// 8 workers). The invariants:
//
//   * no crash, no contract (DCHECK) violation, no failed query — device
//     faults degrade answers, they never abort them;
//   * buffer-stats conservation (fetches == hits + misses) under every
//     schedule;
//   * a fault-free (p = 0) run through the resilience stack is
//     bit-identical to a run without it;
//   * every degraded answer accounts for itself: pages_lost > 0 or a
//     deadline hit, with a finite positive quality bound;
//   * recall@10 keeps a floor that scales with the pages actually lost.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "obs/query_tracer.h"
#include "serve/concurrent_buffer_pool.h"
#include "serve/query_server.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

struct ChaosConfig {
  bool buffer_aware;
  buffer::PolicyKind policy;
};

std::string ConfigName(const ::testing::TestParamInfo<ChaosConfig>& info) {
  std::string name = info.param.buffer_aware ? "BAF_" : "DF_";
  name += buffer::PolicyKindName(info.param.policy);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

const ChaosConfig kConfigs[] = {
    {false, buffer::PolicyKind::kLru},
    {false, buffer::PolicyKind::kRap},
    {true, buffer::PolicyKind::kLru},
    {true, buffer::PolicyKind::kRap},
};

fault::ResilienceOptions FastResilience() {
  fault::ResilienceOptions options;
  options.enabled = true;
  options.sleep_on_backoff = false;  // Schedules drawn, not slept.
  return options;
}

/// A moderate randomized campaign, deterministic in `seed`.
fault::FaultSpec ChaosSpec(uint64_t seed) {
  fault::FaultSpec spec;
  spec.seed = seed;
  spec.rules.push_back({fault::FaultKind::kTransientRead, 0.10});
  spec.rules.push_back({fault::FaultKind::kBitFlip, 0.05});
  spec.rules.push_back({fault::FaultKind::kPermanentBadPage, 0.04});
  fault::FaultRule latency{fault::FaultKind::kLatencySpike, 0.10};
  latency.latency_multiplier = 3.0;
  spec.rules.push_back(latency);
  return spec;
}

/// The refinement-style query sequence the chaos runs share: growing
/// prefixes of the term space, evaluated over one persistent pool.
std::vector<core::Query> RefinementQueries(uint32_t num_terms) {
  std::vector<core::Query> queries;
  for (uint32_t take : {3u, 6u, num_terms}) {
    core::Query q;
    for (TermId t = 0; t < std::min(take, num_terms); ++t) {
      q.AddTerm(t, 1 + t % 3);
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

double RecallAt10(const std::vector<core::ScoredDoc>& got,
                  const std::vector<core::ScoredDoc>& reference) {
  const size_t n = std::min<size_t>(10, reference.size());
  if (n == 0) return 1.0;
  size_t found = 0;
  const size_t got_n = std::min<size_t>(10, got.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < got_n; ++j) {
      if (got[j].doc == reference[i].doc) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(n);
}

uint64_t QueryPages(const index::InvertedIndex& index, const core::Query& q) {
  uint64_t total = 0;
  for (const core::QueryTerm& qt : q.terms()) {
    total += index.lexicon().info(qt.term).pages;
  }
  return total;
}

// ---- p = 0: the resilience stack must be bit-invisible. ----

class ChaosZeroRateTest : public ::testing::TestWithParam<ChaosConfig> {};

TEST_P(ChaosZeroRateTest, FaultFreeRunIsBitIdentical) {
  const ChaosConfig& config = GetParam();
  TestCollection tc = MakeRandomCollection(404, 300, 10, 3);
  core::EvalOptions eval;
  eval.buffer_aware = config.buffer_aware;
  eval.top_n = 25;

  // Reference: no injector, no resilience.
  std::vector<core::EvalResult> reference;
  {
    buffer::BufferManager pool(&tc.index.disk(), 12,
                               buffer::MakePolicy(config.policy));
    core::FilteringEvaluator evaluator(&tc.index, eval);
    for (const core::Query& q : RefinementQueries(10)) {
      auto r = evaluator.Evaluate(q, &pool);
      ASSERT_TRUE(r.ok());
      reference.push_back(std::move(r).value());
    }
  }

  // Same workload through an installed (but fault-free) injector and an
  // enabled resilience stack.
  fault::FaultSpec empty_spec;
  empty_spec.seed = 404;
  fault::FaultInjector injector(empty_spec);
  tc.index.disk().SetFaultInjector(&injector);
  buffer::BufferManager pool(&tc.index.disk(), 12,
                             buffer::MakePolicy(config.policy));
  pool.SetResilience(FastResilience());
  core::FilteringEvaluator evaluator(&tc.index, eval);
  const std::vector<core::Query> queries = RefinementQueries(10);
  for (size_t s = 0; s < queries.size(); ++s) {
    auto r = evaluator.Evaluate(queries[s], &pool);
    ASSERT_TRUE(r.ok());
    const core::EvalResult& got = r.value();
    const core::EvalResult& want = reference[s];
    EXPECT_EQ(got.disk_reads, want.disk_reads) << "step " << s;
    EXPECT_EQ(got.pages_processed, want.pages_processed) << "step " << s;
    EXPECT_EQ(got.postings_processed, want.postings_processed)
        << "step " << s;
    EXPECT_EQ(got.accumulators, want.accumulators) << "step " << s;
    EXPECT_FALSE(got.degraded) << "step " << s;
    EXPECT_EQ(got.pages_lost, 0u) << "step " << s;
    ASSERT_EQ(got.top_docs.size(), want.top_docs.size()) << "step " << s;
    for (size_t i = 0; i < got.top_docs.size(); ++i) {
      EXPECT_EQ(got.top_docs[i].doc, want.top_docs[i].doc)
          << "step " << s << " rank " << i;
      // Bit-identical, not just close.
      EXPECT_EQ(got.top_docs[i].score, want.top_docs[i].score)
          << "step " << s << " rank " << i;
    }
  }
  EXPECT_EQ(injector.total_injected(), 0u);
  tc.index.disk().SetFaultInjector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Configs, ChaosZeroRateTest,
                         ::testing::ValuesIn(kConfigs), ConfigName);

// ---- Deterministic degradation: a fully bad term drops out exactly. ----

TEST(ChaosDegradationTest, FullyBadTermDegradesToRemainingTerms) {
  TestCollection tc = MakeRandomCollection(77, 250, 8, 3);
  core::Query full;
  for (TermId t = 0; t < 8; ++t) full.AddTerm(t, 1);
  core::Query without_term0;
  for (TermId t = 1; t < 8; ++t) without_term0.AddTerm(t, 1);

  // Safe full evaluation, so the comparison is exact (no thresholds).
  core::EvalOptions eval;
  eval.c_ins = 0.0;
  eval.c_add = 0.0;
  eval.top_n = 20;

  fault::FaultSpec spec;
  fault::FaultRule bad{fault::FaultKind::kPermanentBadPage, 1.0};
  bad.term_hi = 0;  // Only term 0's pages are bad media.
  spec.rules.push_back(bad);
  fault::FaultInjector injector(spec);
  tc.index.disk().SetFaultInjector(&injector);

  obs::QueryTracer tracer;
  core::EvalOptions traced = eval;
  traced.tracer = &tracer;
  buffer::BufferManager pool(&tc.index.disk(), 16,
                             buffer::MakePolicy(buffer::PolicyKind::kLru));
  pool.SetResilience(FastResilience());
  core::FilteringEvaluator evaluator(&tc.index, traced);
  auto degraded = evaluator.Evaluate(full, &pool);
  tc.index.disk().SetFaultInjector(nullptr);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  EXPECT_TRUE(degraded.value().degraded);
  EXPECT_EQ(degraded.value().pages_lost,
            tc.index.lexicon().info(0).pages);
  EXPECT_GT(degraded.value().quality_bound, 0.0);
  EXPECT_TRUE(std::isfinite(degraded.value().quality_bound));
  EXPECT_FALSE(degraded.value().deadline_hit);

  // The degraded answer equals evaluating the query without the lost
  // term: unreadable postings contribute nothing, everything else is
  // untouched.
  const auto reference = core::BruteForceRanking(tc, without_term0, 20);
  ASSERT_EQ(degraded.value().top_docs.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(degraded.value().top_docs[i].doc, reference[i].doc)
        << "rank " << i;
    EXPECT_NEAR(degraded.value().top_docs[i].score, reference[i].score,
                1e-9);
  }

  // The tracer saw one page_lost event per lost page, and the bounds it
  // recorded sum to the result's quality bound.
  uint32_t lost_events = 0;
  double bound_sum = 0.0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind != obs::TraceEventKind::kPageLost) continue;
    ++lost_events;
    EXPECT_EQ(e.term, 0u);
    bound_sum += e.a;
  }
  EXPECT_EQ(lost_events, degraded.value().pages_lost);
  EXPECT_NEAR(bound_sum, degraded.value().quality_bound, 1e-9);
}

// ---- Deadlines cut at term boundaries, deterministically. ----

uint64_t g_fake_now_us = 0;
uint64_t FakeNow() { return g_fake_now_us; }

TEST(ChaosDeadlineTest, ExpiredDeadlineForfeitsEverything) {
  TestCollection tc = MakeRandomCollection(31, 200, 6, 3);
  core::Query q;
  for (TermId t = 0; t < 6; ++t) q.AddTerm(t, 1);
  core::EvalOptions eval;
  buffer::BufferManager pool(&tc.index.disk(), 8,
                             buffer::MakePolicy(buffer::PolicyKind::kLru));
  core::FilteringEvaluator evaluator(&tc.index, eval);

  core::EvalControl control;
  control.now_us = &FakeNow;
  control.deadline_us = 10;
  g_fake_now_us = 1000;  // Already past the deadline at the first check.
  auto r = evaluator.Evaluate(q, &pool, &control);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().deadline_hit);
  EXPECT_TRUE(r.value().degraded);
  EXPECT_TRUE(r.value().top_docs.empty());
  EXPECT_GT(r.value().quality_bound, 0.0);
  EXPECT_EQ(r.value().disk_reads, 0u);  // Cut before any device work.
}

TEST(ChaosDeadlineTest, GenerousDeadlineChangesNothing) {
  TestCollection tc = MakeRandomCollection(31, 200, 6, 3);
  core::Query q;
  for (TermId t = 0; t < 6; ++t) q.AddTerm(t, 1);
  core::EvalOptions eval;
  core::FilteringEvaluator evaluator(&tc.index, eval);

  buffer::BufferManager clean_pool(
      &tc.index.disk(), 8, buffer::MakePolicy(buffer::PolicyKind::kLru));
  auto reference = evaluator.Evaluate(q, &clean_pool);
  ASSERT_TRUE(reference.ok());

  core::EvalControl control;
  control.now_us = &FakeNow;
  control.deadline_us = 1u << 30;
  g_fake_now_us = 0;
  buffer::BufferManager pool(&tc.index.disk(), 8,
                             buffer::MakePolicy(buffer::PolicyKind::kLru));
  auto r = evaluator.Evaluate(q, &pool, &control);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().deadline_hit);
  EXPECT_FALSE(r.value().degraded);
  ASSERT_EQ(r.value().top_docs.size(), reference.value().top_docs.size());
  for (size_t i = 0; i < r.value().top_docs.size(); ++i) {
    EXPECT_EQ(r.value().top_docs[i].doc, reference.value().top_docs[i].doc);
    EXPECT_EQ(r.value().top_docs[i].score,
              reference.value().top_docs[i].score);
  }
}

// ---- Randomized single-threaded chaos sweeps. ----

class ChaosSweepTest : public ::testing::TestWithParam<ChaosConfig> {};

TEST_P(ChaosSweepTest, RandomScheduleNeverFailsAQuery) {
  const ChaosConfig& config = GetParam();
  TestCollection tc = MakeRandomCollection(505, 300, 10, 3);
  core::EvalOptions eval;
  eval.buffer_aware = config.buffer_aware;
  eval.top_n = 25;

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    fault::FaultInjector injector(ChaosSpec(seed));
    tc.index.disk().SetFaultInjector(&injector);
    buffer::BufferManager pool(&tc.index.disk(), 12,
                               buffer::MakePolicy(config.policy));
    pool.SetResilience(FastResilience());
    core::FilteringEvaluator evaluator(&tc.index, eval);
    for (const core::Query& q : RefinementQueries(10)) {
      auto r = evaluator.Evaluate(q, &pool);
      // Invariant 1: device faults degrade, they never fail the query.
      ASSERT_TRUE(r.ok()) << "seed " << seed << ": "
                          << r.status().ToString();
      const core::EvalResult& er = r.value();
      // Invariant 2: degradation accounts for itself.
      EXPECT_EQ(er.degraded, er.pages_lost > 0 || er.deadline_hit)
          << "seed " << seed;
      EXPECT_GE(er.quality_bound, 0.0);
      EXPECT_TRUE(std::isfinite(er.quality_bound));
      if (er.pages_lost > 0) {
        EXPECT_GT(er.quality_bound, 0.0);
      }
      // Invariant 3: stats conservation under every schedule.
      const buffer::BufferStats& stats = pool.stats();
      EXPECT_EQ(stats.fetches, stats.hits + stats.misses)
          << "seed " << seed;
    }
    tc.index.disk().SetFaultInjector(nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ChaosSweepTest,
                         ::testing::ValuesIn(kConfigs), ConfigName);

// ---- Recall floor: lost pages cost bounded answer quality. ----

TEST(ChaosRecallTest, RecallFloorScalesWithPagesLost) {
  TestCollection tc = MakeRandomCollection(606, 400, 10, 3);
  core::Query q;
  for (TermId t = 0; t < 10; ++t) q.AddTerm(t, 1);
  core::EvalOptions eval;
  eval.c_ins = 0.0;  // Full evaluation isolates the fault-driven loss.
  eval.c_add = 0.0;
  eval.top_n = 20;
  core::FilteringEvaluator evaluator(&tc.index, eval);

  buffer::BufferManager clean_pool(
      &tc.index.disk(), 16, buffer::MakePolicy(buffer::PolicyKind::kLru));
  auto reference = evaluator.Evaluate(q, &clean_pool);
  ASSERT_TRUE(reference.ok());

  const uint64_t total_pages = QueryPages(tc.index, q);
  ASSERT_GT(total_pages, 0u);
  for (double rate : {0.0, 0.05, 0.15}) {
    fault::FaultSpec spec;
    spec.seed = 42;
    spec.rules.push_back(
        {fault::FaultKind::kPermanentBadPage, rate});
    fault::FaultInjector injector(spec);
    tc.index.disk().SetFaultInjector(&injector);
    buffer::BufferManager pool(&tc.index.disk(), 16,
                               buffer::MakePolicy(buffer::PolicyKind::kLru));
    pool.SetResilience(FastResilience());
    auto r = evaluator.Evaluate(q, &pool);
    tc.index.disk().SetFaultInjector(nullptr);
    ASSERT_TRUE(r.ok());

    const double frac_lost = static_cast<double>(r.value().pages_lost) /
                             static_cast<double>(total_pages);
    const double recall =
        RecallAt10(r.value().top_docs, reference.value().top_docs);
    // The floor scales with the fraction of the query's pages actually
    // lost: each lost page can displace at most a bounded amount of the
    // true top answers. The factor 3 is generous slack over the
    // deterministic outcome; zero loss must mean perfect recall.
    EXPECT_GE(recall, std::max(0.0, 1.0 - 3.0 * frac_lost))
        << "rate " << rate << " lost " << r.value().pages_lost << "/"
        << total_pages;
    if (r.value().pages_lost == 0) {
      EXPECT_DOUBLE_EQ(recall, 1.0) << "rate " << rate;
    }
  }
}

// ---- Concurrent chaos: the full serving stack, 1 and 8 workers. ----

class ChaosServerTest
    : public ::testing::TestWithParam<std::tuple<ChaosConfig, size_t>> {};

TEST_P(ChaosServerTest, ServerAbsorbsFaultsAcrossWorkers) {
  const ChaosConfig& config = std::get<0>(GetParam());
  const size_t workers = std::get<1>(GetParam());
  TestCollection tc = MakeRandomCollection(707, 300, 10, 3);
  fault::FaultInjector injector(ChaosSpec(workers));
  tc.index.disk().SetFaultInjector(&injector);

  serve::ServerOptions options;
  options.num_threads = workers;
  options.queue_depth = 64;
  options.buffer_pages = 16;
  options.policy = config.policy;
  options.eval.buffer_aware = config.buffer_aware;
  options.eval.record_trace = false;
  options.resilience = FastResilience();
  options.resilience.breaker.min_samples = 6;
  serve::QueryServer server(&tc.index, options);
  server.Start();

  const std::vector<core::Query> queries = RefinementQueries(10);
  std::vector<std::thread> clients;
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> failures{0};
  for (size_t session = 0; session < 4; ++session) {
    clients.emplace_back([&, session] {
      for (int loop = 0; loop < 3; ++loop) {
        for (const core::Query& q : queries) {
          auto response = server.Execute(session, q);
          if (!response.ok()) {
            ++failures;
            continue;
          }
          const core::EvalResult& er = response.value().eval;
          // Degradation accounts for itself even under concurrency.
          EXPECT_EQ(er.degraded, er.pages_lost > 0 || er.deadline_hit);
          EXPECT_GE(er.quality_bound, 0.0);
          EXPECT_TRUE(std::isfinite(er.quality_bound));
          EXPECT_EQ(response.value().annotation == StatusCode::kOk,
                    !er.deadline_hit);
          if (er.degraded) ++degraded;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.Stop();
  tc.index.disk().SetFaultInjector(nullptr);

  // Device faults never fail a query — they degrade it.
  EXPECT_EQ(failures.load(), 0u);
  const serve::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 4u * 3u * queries.size());
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  const buffer::BufferStats pool = server.PoolStatsSnapshot();
  EXPECT_EQ(pool.fetches, pool.hits + pool.misses);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChaosServerTest,
    ::testing::Combine(::testing::ValuesIn(kConfigs),
                       ::testing::Values<size_t>(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<ChaosConfig, size_t>>&
           info) {
      return ConfigName({std::get<0>(info.param), info.index}) + "_" +
             std::to_string(std::get<1>(info.param)) + "workers";
    });

// ---- Faults on the readahead path degrade like faults on the demand
// path. A failed prefetch load publishes nothing — the later demand
// fetch retries the device itself and forfeits the page through the
// normal degradation accounting — so the answer (ranking, degraded
// flag, pages_lost, quality bound) is bitwise identical whether the
// bad pages were first touched by a prefetch worker or by the query.

TEST(ChaosPrefetchTest, FaultedPrefetchDegradesExactlyLikeFaultedDemand) {
  TestCollection tc = MakeRandomCollection(77, 250, 8, 3);
  core::Query full;
  for (TermId t = 0; t < 8; ++t) full.AddTerm(t, 1);

  // Safe full evaluation: no thresholds, so the comparison is exact.
  core::EvalOptions eval;
  eval.c_ins = 0.0;
  eval.c_add = 0.0;
  eval.top_n = 20;
  core::FilteringEvaluator evaluator(&tc.index, eval);

  fault::FaultSpec spec;
  fault::FaultRule bad{fault::FaultKind::kPermanentBadPage, 1.0};
  bad.term_hi = 0;  // Only term 0's pages are bad media.
  spec.rules.push_back(bad);
  fault::FaultInjector injector(spec);
  tc.index.disk().SetFaultInjector(&injector);

  serve::ConcurrentPoolOptions demand_opts;
  demand_opts.capacity = 16;
  demand_opts.resilience = FastResilience();
  serve::ConcurrentBufferPool demand_pool(&tc.index.disk(), demand_opts);
  auto via_demand = evaluator.Evaluate(full, &demand_pool);

  serve::ConcurrentPoolOptions prefetch_opts = demand_opts;
  prefetch_opts.prefetch_depth = 4;
  serve::ConcurrentBufferPool prefetch_pool(&tc.index.disk(),
                                            prefetch_opts);
  // Force the bad pages through the readahead path first. The failed
  // loads are silent; give the workers time to finish failing so the
  // query's demand fetches are true retries, not coalesced joins —
  // either way the outcome below must be the same.
  std::vector<PageId> plan;
  for (uint32_t p = 0; p < tc.index.lexicon().info(0).pages; ++p) {
    plan.push_back(PageId{0, p});
  }
  prefetch_pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  fault::SleepUs(50000);
  auto via_prefetch = evaluator.Evaluate(full, &prefetch_pool);
  tc.index.disk().SetFaultInjector(nullptr);

  ASSERT_TRUE(via_demand.ok()) << via_demand.status().ToString();
  ASSERT_TRUE(via_prefetch.ok()) << via_prefetch.status().ToString();
  const core::EvalResult& d = via_demand.value();
  const core::EvalResult& p = via_prefetch.value();

  EXPECT_TRUE(d.degraded);
  EXPECT_TRUE(p.degraded);
  EXPECT_EQ(p.pages_lost, d.pages_lost);
  EXPECT_EQ(p.quality_bound, d.quality_bound);  // Bitwise, no tolerance.
  ASSERT_EQ(p.top_docs.size(), d.top_docs.size());
  for (size_t i = 0; i < d.top_docs.size(); ++i) {
    EXPECT_EQ(p.top_docs[i].doc, d.top_docs[i].doc) << "rank " << i;
    EXPECT_EQ(p.top_docs[i].score, d.top_docs[i].score) << "rank " << i;
  }

  // Every readahead of term 0 failed silently: nothing of the bad term
  // ever became resident. (The evaluator's own readahead of the healthy
  // terms 1..7 still runs and may be used — that is the point: faults
  // disable nothing globally.) The misses + issued == device-reads
  // conservation is re-checked at pool destruction.
  EXPECT_EQ(prefetch_pool.ResidentPages(0), 0u);
}

// ---- Readahead never moves the breaker. A whole term of failed
// readahead reads leaves it closed and untripped, so the demand fetches
// that follow are admitted or rejected by demand outcomes alone.

TEST(ChaosPrefetchTest, FaultedReadaheadLeavesBreakerClosed) {
  TestCollection tc = MakeRandomCollection(77, 250, 8, 3);
  fault::FaultSpec spec;
  fault::FaultRule bad{fault::FaultKind::kPermanentBadPage, 1.0};
  bad.term_hi = 0;
  spec.rules.push_back(bad);
  fault::FaultInjector injector(spec);
  tc.index.disk().SetFaultInjector(&injector);

  const uint32_t pages = tc.index.lexicon().info(0).pages;
  // Enough failures to trip a breaker that counted them.
  ASSERT_GE(pages, fault::BreakerOptions{}.min_samples);
  {
    serve::ConcurrentPoolOptions options;
    options.capacity = 16;
    options.resilience = FastResilience();
    options.prefetch_depth = 4;
    serve::ConcurrentBufferPool pool(&tc.index.disk(), options);
    const fault::CircuitBreaker* breaker = pool.resilience()->breaker();
    ASSERT_NE(breaker, nullptr);

    std::vector<PageId> plan;
    for (uint32_t p = 0; p < pages; ++p) plan.push_back(PageId{0, p});
    // Hint the term in slices that fit the readahead queue, letting each
    // slice settle: every hinted page ends as one failed device read or
    // one breaker rejection.
    constexpr size_t kSlice = 16;
    for (size_t begin = 0; begin < plan.size(); begin += kSlice) {
      const size_t end = std::min(plan.size(), begin + kSlice);
      pool.Prefetch(buffer::PageAccessPlan(plan.data() + begin, end - begin));
      const auto settled = [&] {
        const uint64_t failed =
            injector.injected(fault::FaultKind::kPermanentBadPage);
        return failed + breaker->rejects() >= end;
      };
      for (int i = 0; i < 5000 && !settled(); ++i) fault::SleepUs(1000);
    }

    EXPECT_EQ(injector.injected(fault::FaultKind::kPermanentBadPage), pages);
    EXPECT_EQ(breaker->state(), fault::BreakerState::kClosed);
    EXPECT_EQ(breaker->trips(), 0u);
    EXPECT_EQ(breaker->rejects(), 0u);
    EXPECT_EQ(pool.ResidentPages(0), 0u);
  }
  tc.index.disk().SetFaultInjector(nullptr);
}

}  // namespace
}  // namespace irbuf
