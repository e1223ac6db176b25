// irbuf_bench: runs ONE workload of the irbuf benchmark (BENCHMARK.md)
// for one seed and prints the result as one JSON object on the last
// line of stdout. run.py builds this program, runs it once per
// workload, selects the metrics BENCHMARK.json names and checks them.
//
// The program drives the layers only through their public API:
// serve::QueryServer::Submit, shard::ShardedEngine,
// ir::RunRefinementSequence, the pools' StatsSnapshot /
// PrefetchStatsSnapshot / *_wait_stats, SimulatedDisk::stats, and the
// span recorder the serve path already accepts. Per-layer time is that
// recorder's spans reduced here to exclusive (self) time, so that per
// query the worker thread's self times + the unattributed rest add up
// to the response latency.
//
// Usage:
//   irbuf_bench --workload W --seed S --seconds T --cache DIR
//               [--traced] [--smoke]
//
// W is one of session-io, session-hot, adhoc-sharded, paper-replay.
// The corpus is generated into DIR on first use and loaded from there
// afterwards. The seed drives only the session schedule and the topic
// draws; the corpus is always the seed-42 synthetic WSJ collection, at
// scale 1 (the paper's full profile) or, with --smoke, at scale 0.02.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/policy_factory.h"
#include "core/filtering_evaluator.h"
#include "corpus/corpus_io.h"
#include "corpus/synthetic_corpus.h"
#include "ir/experiment.h"
#include "obs/json.h"
#include "obs/span.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"
#include "util/monotonic_clock.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "workload/refinement.h"

using namespace irbuf;

namespace {

// ---- Fixed configuration --------------------------------------------

// Load threads == server workers == cores of the reference machine:
// more client threads than cores would measure the scheduler.
constexpr size_t kClients = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kShards = 4;
constexpr size_t kLanesPerShard = 4;
constexpr uint32_t kMissDelayUs = 2000;
// Ad-hoc queries read ~130 pages each across the shards; at 2 ms a read
// 4 workers answer ~40 q/s, too few samples for a steady p99 in one run.
// A 200 us device keeps misses dominant and gives ~5x the samples.
constexpr uint32_t kAdhocMissDelayUs = 200;
constexpr size_t kReadahead = 4;
// session-io and adhoc-sharded pools: this share of the union working
// set of the queries the plan can issue. At 20% only ~1.3% of page
// fetches miss, half the queries miss nothing, and p50 sat on the step
// between all-hit (~0.6 ms) and one-miss (~2.6 ms) queries, moving +-17%
// between seeds; at 10% ~2.6% miss and p50 lies well inside the queries
// that miss.
constexpr double kPoolFraction = 0.1;
constexpr double kScale = 1.0;
constexpr double kSmokeScale = 0.02;
constexpr uint32_t kTopN = 20;
constexpr size_t kAdhocMinTerms = 30;
constexpr size_t kAdhocMaxTerms = 100;
// Sessions in one seed's plan, walked cyclically; the pools are sized
// from the queries it holds.
constexpr size_t kPlannedSessions = 2048;
constexpr size_t kDrawBlock = 64;
// Where in the plan the measured window starts, whatever warm-up
// consumed: every run of a seed, traced or not, serves the same sessions.
constexpr size_t kMeasureStart = 1024;
constexpr size_t kThroughputSlices = 5;
// The untimed set-up is repeated and its median reported, so one slow
// repetition does not move setup_s.
constexpr size_t kSetupReps = 3;
constexpr size_t kRecallSample = 200;
// Independent Pcg32 streams per use of the seed.
constexpr uint64_t kStreamSessions = 1;
constexpr uint64_t kStreamSample = 2;
constexpr uint64_t kStreamOrder = 3;
// Seeds the session popularity order, which is part of the workload
// definition rather than of a run's inputs (see MakePlan).
constexpr uint64_t kPopularitySeed = 42;

enum class Workload { kSessionIo, kSessionHot, kAdhocSharded, kPaperReplay };

struct WorkloadName {
  Workload workload;
  const char* name;
};

constexpr WorkloadName kWorkloadNames[] = {
    {Workload::kSessionIo, "session-io"},
    {Workload::kSessionHot, "session-hot"},
    {Workload::kAdhocSharded, "adhoc-sharded"},
    {Workload::kPaperReplay, "paper-replay"},
};

uint64_t Now() { return MonotonicNowNs(); }

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// The p-th percentile as the mean of the order statistics within half
/// a percentile point of it. Where few distinct items make up the tail
/// (paper-replay times the same 800 sequence runs every pass), a single
/// order statistic jumps between neighbouring items from run to run;
/// the mean over the window does not. With many samples it equals the
/// interpolated percentile to within the sample's own spread.
double SmoothPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double last = static_cast<double>(values.size() - 1);
  const auto rank = [last](double q) {
    return static_cast<size_t>(std::clamp(q / 100.0, 0.0, 1.0) * last + 0.5);
  };
  const size_t lo = rank(p - 0.5);
  const size_t hi = rank(p + 0.5);
  double sum = 0.0;
  for (size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const uint64_t kProcessStartNs = Now();

/// Progress on stderr; stdout carries only the result.
void Progress(const std::string& what) {
  std::fprintf(stderr, "irbuf_bench [+%.1fs] %s\n",
               Seconds(kProcessStartNs, Now()), what.c_str());
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "irbuf_bench: %s\n", why.c_str());
  std::exit(1);
}

// ---- Arguments ------------------------------------------------------

struct Args {
  Workload workload = Workload::kSessionIo;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string cache_dir;
  bool traced = false;
  bool smoke = false;

  double scale() const { return smoke ? kSmokeScale : kScale; }
  std::string corpus_path() const {
    char name[64];
    std::snprintf(name, sizeof(name), "/wsj_s%.4f_seed42.irbc", scale());
    return cache_dir + name;
  }
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "irbuf_bench: %s\nusage: irbuf_bench --workload W --seed S "
               "--seconds T --cache DIR [--traced] [--smoke]\n",
               why);
  std::exit(2);
}

double ParseNumber(const char* flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < lo ||
      value > hi) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage((std::string("missing value for ") + flag).c_str());
      }
      return argv[++i];
    };
    if (std::strcmp(flag, "--workload") == 0) {
      const char* name = next();
      for (const WorkloadName& w : kWorkloadNames) {
        if (std::strcmp(name, w.name) == 0) {
          args.workload = w.workload;
          args.workload_name = w.name;
          have_workload = true;
        }
      }
      if (!have_workload) Usage("unknown workload");
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = static_cast<uint64_t>(ParseNumber(flag, next(), 0, 1e15));
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = ParseNumber(flag, next(), 0.1, 600);
    } else if (std::strcmp(flag, "--cache") == 0) {
      args.cache_dir = next();
    } else if (std::strcmp(flag, "--traced") == 0) {
      args.traced = true;
    } else if (std::strcmp(flag, "--smoke") == 0) {
      args.smoke = true;
    } else {
      Usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.cache_dir.empty()) Usage("--cache is required");
  return args;
}

// ---- Result report --------------------------------------------------

/// Everything one run prints: metrics with units, informational values
/// (sample counts, check results) and correctness problems.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value) {
    info_.push_back({name, value, ""});
  }
  void Counter(const std::string& name, uint64_t value) {
    counters_.push_back({name, value});
  }
  /// Records a correctness problem; the run then reports correct=false.
  void Problem(const std::string& what) {
    std::fprintf(stderr, "irbuf_bench: CHECK FAILED: %s\n", what.c_str());
    problems_.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Problem(what);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  std::string Json(const Args& args) const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("workload").Str(args.workload_name);
    w.Key("seed").UInt(args.seed);
    w.Key("traced").Bool(args.traced);
    w.Key("scale").Num(args.scale());
    w.Key("seconds").Num(args.seconds);
    w.Key("correct").Bool(problems_.empty() && wrong == 0);
    w.Key("attempted").UInt(attempted);
    w.Key("failed").UInt(failed);
    w.Key("wrong").UInt(wrong);
    w.Key("problems").BeginArray();
    for (const std::string& p : problems_) w.Str(p);
    w.EndArray();
    w.Key("metrics").BeginObject();
    for (const Entry& m : metrics_) {
      w.Key(m.name).BeginObject();
      w.Key("value").Num(m.value);
      w.Key("unit").Str(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.Key("info").BeginObject();
    for (const Entry& m : info_) w.Key(m.name).Num(m.value);
    w.EndObject();
    w.Key("counters").BeginObject();
    for (const auto& [name, value] : counters_) w.Key(name).UInt(value);
    w.EndObject();
    w.EndObject();
    return std::move(w).Take();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> info_;
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<std::string> problems_;
};

// ---- Corpus, queries and the seeded session plan ---------------------

/// Generates the corpus into the cache unless a file is already there.
/// Not part of set-up: the generator runs once per checkout. It caches
/// through a temporary name, so a run killed while saving leaves no
/// truncated corpus for the next run to load.
void EnsureCorpus(const Args& args) {
  const std::string path = args.corpus_path();
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) return;
  ::mkdir(args.cache_dir.c_str(), 0755);
  std::fprintf(stderr, "irbuf_bench: generating corpus (scale %.3f) -> %s\n",
               args.scale(), path.c_str());
  corpus::CorpusOptions options;
  options.scale = args.scale();
  // bench/bench_util.cc's rule, so the scale-1 corpus is the one the
  // reproduction benches use: topic count shrinks with the vocabulary.
  options.num_random_topics = std::max<uint32_t>(
      8, static_cast<uint32_t>(std::llround(96.0 * args.scale())));
  const std::string tmp = path + ".tmp";
  auto generated = corpus::LoadOrGenerateCorpus(options, tmp);
  if (!generated.ok()) {
    Die("corpus generation: " + generated.status().ToString());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) Die("corpus save failed");
}

/// Every distinct query a workload can issue ("items"), plus what they
/// were built from.
struct Catalogue {
  std::unique_ptr<corpus::SyntheticCorpus> corpus;
  /// ADD-ONLY and ADD-DROP per topic (session and replay workloads).
  std::vector<workload::RefinementSequence> sequences;
  /// Item of each sequence's first step; its steps are consecutive.
  std::vector<uint32_t> first_item;
  std::vector<const core::Query*> items;
  std::unique_ptr<shard::ShardedIndex> sharded;

  const index::InvertedIndex& index() const { return corpus->index(); }
};

void BuildSequences(Catalogue* cat) {
  for (const corpus::Topic& topic : cat->corpus->topics()) {
    // One contribution ranking (a full safe evaluation) serves both kinds.
    auto ranking =
        workload::RankTermsByContribution(topic.query, cat->index());
    if (!ranking.ok()) Die("term ranking: " + ranking.status().ToString());
    for (workload::RefinementKind kind : {workload::RefinementKind::kAddOnly,
                                          workload::RefinementKind::kAddDrop}) {
      workload::RefinementSequence seq =
          workload::BuildRefinementSequenceFromRanking(topic.title,
                                                       ranking.value(), kind);
      if (!seq.steps.empty()) cat->sequences.push_back(std::move(seq));
    }
  }
  for (const workload::RefinementSequence& seq : cat->sequences) {
    cat->first_item.push_back(static_cast<uint32_t>(cat->items.size()));
    for (const workload::RefinementStep& step : seq.steps) {
      cat->items.push_back(&step.query);
    }
  }
}

void BuildAdhocQueries(Catalogue* cat) {
  for (const corpus::Topic& topic : cat->corpus->topics()) {
    if (topic.query.size() >= kAdhocMinTerms &&
        topic.query.size() <= kAdhocMaxTerms) {
      cat->items.push_back(&topic.query);
    }
  }
  if (cat->items.empty()) Die("no topic has 30-100 terms");
}

/// One planned session: `steps` consecutive items issued closed-loop.
struct PlannedSession {
  uint32_t first_item = 0;
  uint32_t steps = 1;
};

struct Plan {
  std::vector<PlannedSession> sessions;
  /// Every term the plan can touch, and their pages: the union working
  /// set the pools are sized from.
  std::vector<TermId> terms;
  uint64_t union_pages = 0;

  const PlannedSession& At(size_t k) const {
    return sessions[k % sessions.size()];
  }
};

/// Draws kPlannedSessions candidates with probabilities proportional to
/// `weights` by quota: each block of kDrawBlock draws takes the
/// candidates at evenly spaced points through the CDF (systematic
/// sampling), from a fixed offset per block, so a block holds every
/// candidate within one of its expected count. The seed only shuffles
/// each block. Every run therefore serves the same mix in a different
/// order: with independent draws, which of ~200 sequences (3 to 99
/// terms) landed in a 5-s window moved max_qps by +-15% and p99 by
/// +-40% between seeds.
std::vector<uint32_t> QuotaDraws(const std::vector<double>& weights,
                                 Pcg32* rng) {
  std::vector<double> cdf(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) cdf[i] = total += weights[i];
  std::vector<uint32_t> draws;
  for (size_t block = 0; draws.size() < kPlannedSessions; ++block) {
    const size_t first = draws.size();
    // Golden-ratio offsets spread successive blocks' points over the
    // tail of the distribution.
    double offset = 0.5 + 0.6180339887498949 * static_cast<double>(block);
    offset -= std::floor(offset);
    for (size_t j = 0; j < kDrawBlock; ++j) {
      const double x = (offset + static_cast<double>(j)) /
                       static_cast<double>(kDrawBlock) * total;
      const size_t k =
          std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin();
      draws.push_back(static_cast<uint32_t>(std::min(k, cdf.size() - 1)));
    }
    for (size_t i = kDrawBlock; i > 1; --i) {
      std::swap(draws[first + i - 1],
                draws[first + rng->NextBounded(static_cast<uint32_t>(i))]);
    }
  }
  return draws;
}

/// Session workloads: sequences drawn Zipf(1.0) over a popularity order
/// fixed with the corpus. Ad-hoc: topic queries drawn uniformly. Both
/// mixes are assumed, not fitted to a query log (BENCHMARK.md, "Traffic:
/// what is assumed"). The order is not seeded: which sequence a seed
/// made hottest would move max_qps by +-20% between seeds.
Plan MakePlan(const Catalogue& cat, Workload workload, uint64_t seed) {
  Plan plan;
  Pcg32 rng(seed, kStreamSessions);
  if (workload == Workload::kAdhocSharded) {
    const std::vector<double> uniform(cat.items.size(), 1.0);
    for (uint32_t item : QuotaDraws(uniform, &rng)) {
      plan.sessions.push_back({item, 1});
    }
  } else {
    std::vector<uint32_t> order(cat.sequences.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    Pcg32 shuffle(kPopularitySeed, kStreamOrder);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[shuffle.NextBounded(static_cast<uint32_t>(i))]);
    }
    std::vector<double> zipf(order.size());
    for (size_t rank = 0; rank < zipf.size(); ++rank) {
      zipf[rank] = 1.0 / static_cast<double>(rank + 1);
    }
    for (uint32_t rank : QuotaDraws(zipf, &rng)) {
      const uint32_t seq = order[rank];
      plan.sessions.push_back(
          {cat.first_item[seq],
           static_cast<uint32_t>(cat.sequences[seq].steps.size())});
    }
  }
  std::unordered_set<TermId> terms;
  for (const PlannedSession& s : plan.sessions) {
    for (uint32_t k = 0; k < s.steps; ++k) {
      for (const core::QueryTerm& qt : cat.items[s.first_item + k]->terms()) {
        terms.insert(qt.term);
      }
    }
  }
  plan.terms.assign(terms.begin(), terms.end());
  std::sort(plan.terms.begin(), plan.terms.end());
  for (TermId t : plan.terms) {
    plan.union_pages += cat.index().lexicon().info(t).pages;
  }
  return plan;
}

// ---- Serving rig -----------------------------------------------------

struct ServeConfig {
  bool baf = false;
  buffer::PolicyKind policy = buffer::PolicyKind::kRap;
  bool shared_context = false;
  size_t pool_pages = 0;
  uint32_t delay_us = 0;
  size_t readahead = 0;
  bool sharded = false;
  /// Read every page of the plan's terms in set-up (session-hot).
  bool fill = false;
};

ServeConfig ConfigFor(Workload workload, const Plan& plan) {
  ServeConfig config;
  const size_t fraction_pages = std::max<size_t>(
      16, static_cast<size_t>(kPoolFraction *
                              static_cast<double>(plan.union_pages)));
  switch (workload) {
    case Workload::kSessionIo:
      config.baf = true;
      config.shared_context = true;
      config.pool_pages = fraction_pages;
      config.delay_us = kMissDelayUs;
      config.readahead = kReadahead;
      break;
    case Workload::kSessionHot:
      config.baf = true;
      config.shared_context = true;
      config.pool_pages = plan.union_pages + 64;
      config.readahead = kReadahead;
      config.fill = true;
      break;
    case Workload::kAdhocSharded:
      config.pool_pages = fraction_pages;
      config.delay_us = kAdhocMissDelayUs;
      config.sharded = true;
      break;
    case Workload::kPaperReplay:
      break;
  }
  return config;
}

/// Window deltas of every counter the layers expose.
struct Counters {
  buffer::BufferStats pool;
  serve::PoolPrefetchStats prefetch;
  storage::DiskStats disk;
  std::vector<uint64_t> shard_reads;
  uint64_t queue_wait_ns = 0;
  uint64_t latch_wait_ns = 0;
  uint64_t stripe_wait_ns = 0;

  Counters Minus(const Counters& b) const {
    Counters d;
    d.pool = {pool.fetches - b.pool.fetches, pool.hits - b.pool.hits,
              pool.misses - b.pool.misses, pool.evictions - b.pool.evictions};
    d.prefetch = {prefetch.issued - b.prefetch.issued,
                  prefetch.used - b.prefetch.used,
                  prefetch.wasted - b.prefetch.wasted,
                  prefetch.coalesced_misses - b.prefetch.coalesced_misses,
                  prefetch.device_reads - b.prefetch.device_reads};
    d.disk = {disk.reads - b.disk.reads,
              disk.postings_decoded - b.disk.postings_decoded,
              disk.bytes_read - b.disk.bytes_read};
    for (size_t s = 0; s < shard_reads.size(); ++s) {
      const uint64_t base = s < b.shard_reads.size() ? b.shard_reads[s] : 0;
      d.shard_reads.push_back(shard_reads[s] - base);
    }
    d.queue_wait_ns = queue_wait_ns - b.queue_wait_ns;
    d.latch_wait_ns = latch_wait_ns - b.latch_wait_ns;
    d.stripe_wait_ns = stripe_wait_ns - b.stripe_wait_ns;
    return d;
  }
};

/// One running QueryServer (with its ShardedEngine when sharded).
class Rig {
 public:
  Rig(const Catalogue& cat, const ServeConfig& config, const Plan& plan,
      obs::SpanRecorder* spans)
      : cat_(cat), sharded_(config.sharded), filled_(config.fill) {
    serve::ServerOptions options;
    options.num_threads = kWorkers;
    options.queue_depth = kClients;  // A closed loop never fills it.
    options.buffer_pages = config.pool_pages;
    options.policy = config.policy;
    options.eval.buffer_aware = config.baf;
    options.eval.record_trace = false;
    options.eval.top_n = kTopN;
    options.shared_context = config.shared_context;
    options.io_delay_us_per_miss = config.delay_us;
    options.prefetch_depth = config.readahead;
    options.span_recorder = spans;
    options.profile_contention = spans != nullptr;
    if (config.sharded) {
      shard::ShardedEngineOptions engine;
      engine.eval = options.eval;
      engine.eval.span_recorder = spans;
      engine.pool.total_pages = config.pool_pages;
      engine.pool.policy = config.policy;
      engine.pool.io_delay_us_per_miss = config.delay_us;
      engine.pool.prefetch_depth = config.readahead;
      engine.pool.profile_contention = spans != nullptr;
      engine.lanes_per_shard = kLanesPerShard;
      engine.shared_context = config.shared_context;
      engine_ = std::make_unique<shard::ShardedEngine>(cat.sharded.get(),
                                                       engine);
      options.engine = engine_.get();
      options.buffer_pages = 2;  // The built-in pool sits idle.
    }
    server_ = std::make_unique<serve::QueryServer>(&cat.index(), options);
    if (engine_ != nullptr) {
      for (size_t s = 0; s < engine_->num_shards(); ++s) {
        pools_.push_back(engine_->mutable_pool()->shard(s));
      }
    } else {
      pools_.push_back(server_->mutable_pool());
    }
    if (spans != nullptr) {
      // Contended waits become kLockWait spans, so lock time is carved
      // out of the span that was blocked.
      Bind(server_->queue_wait_stats(), spans);
      for (serve::ConcurrentBufferPool* pool : pools_) {
        Bind(pool->latch_wait_stats(), spans);
        Bind(pool->stripe_wait_stats(), spans);
      }
    }
    if (config.fill) Fill(plan);
    server_->Start();
  }

  ~Rig() { server_->Stop(); }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  serve::QueryServer& server() { return *server_; }

  /// A filled pool is full from the start; otherwise the first eviction
  /// shows the free list is gone.
  bool Full() { return filled_ || Snapshot().pool.evictions > 0; }

  /// Threads that fetch pages: the workers, or every shard lane.
  size_t fetch_threads() const {
    return sharded_ ? kShards * kLanesPerShard : kWorkers;
  }

  Counters Snapshot() {
    Counters c;
    c.pool = server_->PoolStatsSnapshot();
    for (serve::ConcurrentBufferPool* pool : pools_) {
      const serve::PoolPrefetchStats p = pool->PrefetchStatsSnapshot();
      c.prefetch.issued += p.issued;
      c.prefetch.used += p.used;
      c.prefetch.wasted += p.wasted;
      c.prefetch.coalesced_misses += p.coalesced_misses;
      c.prefetch.device_reads += p.device_reads;
      c.latch_wait_ns += pool->latch_wait_stats()->wait_ns_total();
      c.stripe_wait_ns += pool->stripe_wait_stats()->wait_ns_total();
    }
    c.queue_wait_ns = server_->queue_wait_stats()->wait_ns_total();
    if (sharded_) {
      for (size_t s = 0; s < cat_.sharded->num_shards(); ++s) {
        const storage::DiskStats d = cat_.sharded->shard(s).disk().stats();
        c.disk.reads += d.reads;
        c.disk.postings_decoded += d.postings_decoded;
        c.disk.bytes_read += d.bytes_read;
        c.shard_reads.push_back(d.reads);
      }
    } else {
      c.disk = cat_.index().disk().stats();
      c.shard_reads.push_back(c.disk.reads);
    }
    return c;
  }

 private:
  void Bind(MutexWaitStats* stats, obs::SpanRecorder* spans) {
    bindings_.push_back(std::make_unique<obs::MutexWaitBinding>());
    bindings_.back()->Bind(stats, nullptr, spans);
  }

  /// Reads every page of every term the plan can touch, so the measured
  /// window never misses.
  void Fill(const Plan& plan) {
    for (TermId t : plan.terms) {
      const uint32_t pages = cat_.index().lexicon().info(t).pages;
      for (uint32_t p = 0; p < pages; ++p) {
        auto pin = server_->mutable_pool()->FetchPinned(PageId{t, p});
        if (!pin.ok()) Die("pool fill: " + pin.status().ToString());
      }
    }
  }

  const Catalogue& cat_;
  const bool sharded_;
  const bool filled_;
  // Declared before the server and engine: a binding must outlive the
  // mutexes that report to it.
  std::vector<std::unique_ptr<obs::MutexWaitBinding>> bindings_;
  std::unique_ptr<shard::ShardedEngine> engine_;
  std::unique_ptr<serve::QueryServer> server_;
  std::vector<serve::ConcurrentBufferPool*> pools_;
};

// ---- Load generation ------------------------------------------------

/// One answered (or failed) query.
struct Sample {
  uint32_t item = 0;
  /// Server-assigned query id (the server numbers submissions in order;
  /// Clients serializes its submissions to know it).
  uint32_t query_id = 0;
  uint64_t submit_ns = 0;     // just before Submit
  uint64_t submitted_ns = 0;  // just after Submit returned
  uint64_t end_ns = 0;        // answer received by the client
  /// Submission to answer, and evaluation alone, as the server timed them
  /// (whole microseconds).
  uint64_t server_latency_ns = 0;
  uint64_t service_ns = 0;
  bool ok = false;
  bool wrong = false;
  bool degraded = false;
  uint64_t pages = 0;
  uint64_t postings = 0;
  uint64_t accumulators = 0;
  uint64_t terms_skipped = 0;
  uint64_t shards_lost = 0;

  /// Submission to answer, as the client saw it.
  double latency_ms() const {
    return static_cast<double>(end_ns - submit_ns) / 1e6;
  }
};

/// Top-k well-formedness: min(k, candidates) answers, distinct
/// in-range documents, finite scores in SelectTopN's order.
bool WellFormed(const core::EvalResult& e, uint32_t num_docs) {
  const size_t expect = std::min<uint64_t>(kTopN, e.accumulators);
  if (e.top_docs.size() != expect) return false;
  std::unordered_set<DocId> seen;
  for (size_t i = 0; i < e.top_docs.size(); ++i) {
    const core::ScoredDoc& d = e.top_docs[i];
    if (d.doc >= num_docs || !std::isfinite(d.score) ||
        !seen.insert(d.doc).second) {
      return false;
    }
    if (i > 0) {
      const core::ScoredDoc& p = e.top_docs[i - 1];
      if (p.score < d.score || (p.score == d.score && p.doc > d.doc)) {
        return false;
      }
    }
  }
  return true;
}

/// The first answer served for each item, and whether every later
/// answer to it was identical (required where answers cannot depend on
/// the buffer: DF).
struct FirstAnswer {
  std::vector<core::ScoredDoc> docs;
  bool all_identical = true;
};

struct Window {
  std::vector<Sample> samples;
  double seconds = 0.0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t Answered() const {
    uint64_t n = 0;
    for (const Sample& s : samples) n += s.ok ? 1 : 0;
    return n;
  }

  /// Answers per second in each of kThroughputSlices equal slices of the
  /// window, ascending.
  std::vector<double> SliceRates() const {
    std::vector<double> rates(kThroughputSlices, 0.0);
    const uint64_t slice_ns = (end_ns - start_ns) / kThroughputSlices;
    if (slice_ns == 0) return rates;
    const double per_answer = 1e9 / static_cast<double>(slice_ns);
    for (const Sample& s : samples) {
      const uint64_t i = (s.end_ns - start_ns) / slice_ns;
      if (s.ok && i < kThroughputSlices) rates[i] += per_answer;
    }
    std::sort(rates.begin(), rates.end());
    return rates;
  }

  /// Answers per second: the median slice, so a burst of load from
  /// outside the program that slows a slice or two does not move it.
  double Throughput() const { return SliceRates()[kThroughputSlices / 2]; }
};

/// Issues the plan's sessions against one rig from kClients threads.
class Clients {
 public:
  Clients(Rig* rig, const Catalogue* cat, const Plan* plan, bool deterministic)
      : rig_(rig), cat_(cat), plan_(plan), deterministic_(deterministic) {}

  /// kClients users refine concurrently for `seconds`, one per client
  /// thread, each issuing its sessions' steps back to back (a user
  /// refines only after seeing the answer). User u takes planned
  /// sessions base + u, base + u + kClients, ..., so a seed fixes every
  /// user's inputs whatever the timing.
  Window Run(double seconds, size_t base) {
    Window w;
    w.start_ns = Now();
    w.end_ns = w.start_ns + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::vector<Sample>> per_user(kClients);
    std::vector<std::thread> users;
    for (size_t u = 0; u < kClients; ++u) {
      users.emplace_back([this, &w, &per_user, base, u] {
        for (size_t k = base + u; Now() < w.end_ns; k += kClients) {
          const PlannedSession& session = plan_->At(k);
          const uint64_t id = next_session_.fetch_add(1);
          for (uint32_t step = 0; step < session.steps && Now() < w.end_ns;
               ++step) {
            per_user[u].push_back(Issue(id, session.first_item + step));
            if (!per_user[u].back().ok) break;
          }
        }
      });
    }
    for (std::thread& t : users) t.join();
    w.seconds = Seconds(w.start_ns, w.end_ns);
    for (const std::vector<Sample>& v : per_user) {
      w.samples.insert(w.samples.end(), v.begin(), v.end());
    }
    return w;
  }

  std::unordered_map<uint32_t, FirstAnswer> TakeAnswers() {
    MutexLock lock(answers_mu_);
    return std::move(answers_);
  }

 private:
  Sample Issue(uint64_t session, uint32_t item) {
    Sample s;
    s.item = item;
    Result<std::future<Result<serve::QueryResponse>>> submitted = [&] {
      MutexLock lock(submit_mu_);
      s.query_id = next_query_id_++;
      s.submit_ns = Now();
      auto r = rig_->server().Submit(session, *cat_->items[item]);
      s.submitted_ns = Now();
      return r;
    }();
    Result<serve::QueryResponse> r =
        submitted.ok() ? submitted.value().get()
                       : Result<serve::QueryResponse>(submitted.status());
    s.end_ns = Now();
    if (!r.ok()) return s;
    const serve::QueryResponse& resp = r.value();
    const core::EvalResult& e = resp.eval;
    s.ok = true;
    s.server_latency_ns = static_cast<uint64_t>(resp.latency.count()) * 1000;
    s.service_ns = static_cast<uint64_t>(resp.service_time.count()) * 1000;
    s.degraded = e.degraded || resp.annotation != StatusCode::kOk;
    s.pages = e.pages_processed;
    s.postings = e.postings_processed;
    s.accumulators = e.accumulators;
    s.terms_skipped = e.terms_skipped;
    s.shards_lost = e.shards_lost;
    s.wrong = !WellFormed(e, cat_->index().num_docs());
    MutexLock lock(answers_mu_);
    auto [it, inserted] = answers_.try_emplace(item);
    if (inserted) {
      it->second.docs = e.top_docs;
    } else if (deterministic_ && it->second.docs != e.top_docs) {
      it->second.all_identical = false;
      s.wrong = true;
    }
    return s;
  }

  Rig* rig_;
  const Catalogue* cat_;
  const Plan* plan_;
  const bool deterministic_;
  std::atomic<uint64_t> next_session_{1};
  Mutex submit_mu_;
  uint32_t next_query_id_ IRBUF_GUARDED_BY(submit_mu_) = 0;
  Mutex answers_mu_;
  std::unordered_map<uint32_t, FirstAnswer> answers_
      IRBUF_GUARDED_BY(answers_mu_);
};

// ---- Exclusive-time attribution --------------------------------------

constexpr size_t kStages = obs::kNumSpanStages;

size_t StageIndex(obs::SpanStage stage) { return static_cast<size_t>(stage); }

/// Per-query reduction of the recorder's spans to self time.
struct QuerySpans {
  /// Self time by stage, summed over every thread that worked on it.
  std::array<uint64_t, kStages> self_ns{};
  /// Σ self and Σ depth-0 duration on the worker (serving) thread; by
  /// construction equal.
  uint64_t worker_self_ns = 0;
  uint64_t worker_root_ns = 0;
  /// Σ depth-0 span time on other threads (shard lanes).
  uint64_t lane_ns = 0;
  uint64_t queue_start_ns = 0;
  bool has_queue_span = false;
};

/// Self time = span duration minus its direct children on the same
/// thread. A thread's buffer holds spans in completion order, so each
/// span's children were recorded just before it: a running per-depth
/// sum of child durations gives every span's self time in one pass.
class SelfTime {
 public:
  void Add(const std::vector<obs::ThreadSpans>& threads) {
    for (const obs::ThreadSpans& ts : threads) {
      bool worker = false;
      for (const obs::Span& s : ts.spans) {
        worker = worker ||
                 (s.depth == 0 && s.stage == obs::SpanStage::kEvaluate);
      }
      std::array<uint64_t, 257> child{};
      for (const obs::Span& s : ts.spans) {
        const size_t d = s.depth;
        const uint64_t children = child[d + 1];
        child[d + 1] = 0;
        child[d] += s.dur_ns;
        if (children > s.dur_ns) ++negative_self;
        const uint64_t self = children > s.dur_ns ? 0 : s.dur_ns - children;
        if (s.query == obs::SpanRecorder::kNoQuery) continue;
        QuerySpans& q = queries[s.query];
        q.self_ns[static_cast<size_t>(s.stage)] += self;
        if (worker) {
          q.worker_self_ns += self;
          if (d == 0) q.worker_root_ns += s.dur_ns;
          if (s.stage == obs::SpanStage::kQueueWait) {
            q.queue_start_ns = s.start_ns;
            q.has_queue_span = true;
          }
        } else if (d == 0) {
          q.lane_ns += s.dur_ns;
        }
      }
    }
  }

  std::unordered_map<uint32_t, QuerySpans> queries;
  uint64_t negative_self = 0;
};

/// Totals over the analysed window's answered queries.
struct Attribution {
  uint64_t queries = 0;
  double latency_ns = 0.0;
  std::array<double, kStages> self_ns{};
  double lane_ns = 0.0;
  double unattributed_ns = 0.0;
  /// Per-stage share of latency among the slowest 1% of queries.
  std::array<double, kStages> p99_share{};
  uint64_t violations = 0;
};

/// Joins the span reduction with the client's samples. For every
/// answered query: Σ worker self == Σ worker depth-0 spans (within
/// 1 µs), the spans fit inside the server's latency (which is truncated
/// to µs), and its queue-wait span starts inside the client's Submit
/// call (the query-id mapping is right).
Attribution Attribute(const SelfTime& st, const std::vector<Sample>& samples,
                      bool served) {
  Attribution a;
  a.violations = st.negative_self;
  struct Row {
    double latency;
    std::array<double, kStages> self;
  };
  std::vector<Row> rows;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    auto it = st.queries.find(s.query_id);
    if (it == st.queries.end()) {
      ++a.violations;
      continue;
    }
    const QuerySpans& q = it->second;
    const double latency = static_cast<double>(s.server_latency_ns);
    const double unattributed =
        latency - static_cast<double>(q.worker_root_ns);
    const double self_err = std::fabs(static_cast<double>(q.worker_self_ns) -
                                      static_cast<double>(q.worker_root_ns));
    bool bad = self_err > 1000.0 || unattributed < -1000.0;
    if (served) {
      bad = bad || !q.has_queue_span || q.queue_start_ns < s.submit_ns ||
            q.queue_start_ns > s.submitted_ns;
    }
    if (bad) ++a.violations;
    Row row{latency, {}};
    for (size_t i = 0; i < kStages; ++i) {
      row.self[i] = static_cast<double>(q.self_ns[i]);
      a.self_ns[i] += row.self[i];
    }
    a.latency_ns += latency;
    a.unattributed_ns += unattributed;
    a.lane_ns += static_cast<double>(q.lane_ns);
    ++a.queries;
    rows.push_back(row);
  }
  std::vector<double> latencies;
  for (const Row& r : rows) latencies.push_back(r.latency);
  const double p99 = SmoothPercentile(latencies, 99);
  double bucket_latency = 0.0;
  std::array<double, kStages> bucket{};
  for (const Row& r : rows) {
    if (r.latency < p99) continue;
    bucket_latency += r.latency;
    for (size_t i = 0; i < kStages; ++i) bucket[i] += r.self[i];
  }
  for (size_t i = 0; i < kStages; ++i) {
    a.p99_share[i] = Ratio(bucket[i], bucket_latency);
  }
  return a;
}

// ---- Metrics ---------------------------------------------------------

double ServicePercentileMs(const std::vector<Sample>& samples, double p) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (s.ok) v.push_back(static_cast<double>(s.service_ns) / 1e6);
  }
  return SmoothPercentile(std::move(v), p);
}

double LatencyPercentileMs(const std::vector<Sample>& samples, double p) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (s.ok) v.push_back(s.latency_ms());
  }
  return SmoothPercentile(std::move(v), p);
}

/// Answered and failed counts of a window; a failure is a rejected,
/// shed or failed query, a degraded answer or a wrong one.
void CountOutcomes(const std::vector<Sample>& samples, Report* r) {
  for (const Sample& s : samples) {
    ++r->attempted;
    if (!s.ok || s.degraded || s.wrong) ++r->failed;
    if (s.wrong) ++r->wrong;
  }
}

struct ReplayConfig {
  const char* label;
  bool baf;
  buffer::PolicyKind policy;
  double fraction;  // buffer size, share of each sequence's working set
};

// paper-replay's configurations: {DF/LRU, BAF/RAP} x buffer {10%, 50%}
// of each sequence's working set.
constexpr ReplayConfig kReplayConfigs[] = {
    {"DF-LRU.b10", false, buffer::PolicyKind::kLru, 0.10},
    {"DF-LRU.b50", false, buffer::PolicyKind::kLru, 0.50},
    {"BAF-RAP.b10", true, buffer::PolicyKind::kRap, 0.10},
    {"BAF-RAP.b50", true, buffer::PolicyKind::kRap, 0.50},
};
constexpr size_t kReplayConfigCount = std::size(kReplayConfigs);

/// The raw counters run.py checks: fetches == hits + misses, and every
/// device read is a demand miss or a readahead read.
void CounterTotals(const Counters& c, Report* r) {
  r->Counter("fetches", c.pool.fetches);
  r->Counter("hits", c.pool.hits);
  r->Counter("misses", c.pool.misses);
  r->Counter("device_reads", c.disk.reads);
  r->Counter("pool_device_reads", c.prefetch.device_reads);
  r->Counter("demand_reads", c.pool.misses);
  r->Counter("readahead_reads", c.prefetch.issued);
}

/// The layer metrics every workload reports. Inputs: the analysed
/// window's samples and counter deltas and its span attribution.
struct LayerInputs {
  const std::vector<Sample>* samples = nullptr;
  Counters counters;
  Attribution attr;
  double window_s = 0.0;
  size_t fetch_threads = 1;
  bool sharded = false;
  serve::ServerStats server;
  /// paper-replay only: pass-0 reads per configuration.
  std::array<double, kReplayConfigCount> replay_reads{};
  double replay_postings_per_query = 0.0;
};

void LayerMetrics(const LayerInputs& in, Report* r) {
  const std::vector<Sample>& samples = *in.samples;
  double answered = 0.0, pages = 0.0, postings = 0.0, accumulators = 0.0,
         skipped = 0.0, lost = 0.0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    answered += 1.0;
    pages += static_cast<double>(s.pages);
    postings += static_cast<double>(s.postings);
    accumulators += static_cast<double>(s.accumulators);
    skipped += static_cast<double>(s.terms_skipped);
    lost += static_cast<double>(s.shards_lost);
  }
  const Attribution& a = in.attr;
  const Counters& c = in.counters;
  using Stage = obs::SpanStage;
  const auto self = [&a](Stage stage) { return a.self_ns[StageIndex(stage)]; };
  const auto share = [&a](double ns) { return Ratio(ns, a.latency_ns); };
  const auto p99q = [&a](Stage stage) {
    return a.p99_share[StageIndex(stage)];
  };
  const auto ms_per_query = [&a](double ns) {
    return Ratio(ns / 1e6, static_cast<double>(a.queries));
  };
  const auto per_query = [answered](double count) {
    return Ratio(count, answered);
  };
  const auto per_thread_s = [&in](uint64_t wait_ns, size_t threads) {
    return Ratio(static_cast<double>(wait_ns) / 1e9,
                 in.window_s * static_cast<double>(threads));
  };
  const auto count = [](uint64_t n) { return static_cast<double>(n); };

  // serve
  r->Metric("serve.service_ms.p50", ServicePercentileMs(samples, 50), "ms");
  r->Metric("serve.service_ms.p99", ServicePercentileMs(samples, 99), "ms");
  r->Metric("serve.queue_wait_share", share(self(Stage::kQueueWait)), "ratio");
  r->Metric("serve.queue_wait_share.p99q", p99q(Stage::kQueueWait), "ratio");
  r->Metric("serve.context_share", share(self(Stage::kContextSnapshot)),
            "ratio");
  r->Metric("serve.queue_lock_wait_share",
            per_thread_s(c.queue_wait_ns, kWorkers), "ratio");
  r->Metric("serve.rejected", count(in.server.rejected), "count");
  r->Metric("serve.shed", count(in.server.shed), "count");
  r->Metric("serve.failed", count(in.server.failed), "count");

  // core: the evaluator's own time. Under sharding the coordinator's
  // evaluate self time is barrier wait, reported as shard.coord_wait.
  const double core_self =
      self(Stage::kTermLoop) + (in.sharded ? 0.0 : self(Stage::kEvaluate));
  r->Metric("core.self_ms.per_query", ms_per_query(core_self), "ms");
  r->Metric("core.self_share", share(core_self), "ratio");
  r->Metric("core.accumulate_ms.per_query",
            ms_per_query(self(Stage::kAccumulate)), "ms");
  r->Metric("core.accumulate_share", share(self(Stage::kAccumulate)), "ratio");
  r->Metric("core.topk_ms.per_query", ms_per_query(self(Stage::kTopKMerge)),
            "ms");
  r->Metric("core.topk_share", share(self(Stage::kTopKMerge)), "ratio");
  r->Metric("core.postings_per_query", per_query(postings), "postings/q");
  r->Metric("core.pages_touched_per_query", per_query(pages), "pages/q");
  r->Metric("core.terms_skipped_per_query", per_query(skipped), "terms/q");
  r->Metric("core.accumulators_per_query", per_query(accumulators),
            "count/q");

  // buffer
  r->Metric("buffer.hit_rate", c.pool.HitRate(), "fraction");
  r->Metric("buffer.evictions_per_query", per_query(count(c.pool.evictions)),
            "pages/q");
  r->Metric("buffer.pin_us.per_fetch",
            Ratio(self(Stage::kPagePin) / 1e3, count(c.pool.fetches)), "us");
  r->Metric("buffer.pin_share", share(self(Stage::kPagePin)), "ratio");
  r->Metric("buffer.lock_wait_share", share(self(Stage::kLockWait)), "ratio");
  r->Metric("buffer.latch_wait_share",
            per_thread_s(c.latch_wait_ns, in.fetch_threads), "ratio");
  r->Metric("buffer.stripe_wait_share",
            per_thread_s(c.stripe_wait_ns, in.fetch_threads), "ratio");
  r->Metric("buffer.async_wait_share", share(self(Stage::kAsyncWait)),
            "ratio");
  r->Metric("buffer.coalesced_per_query",
            per_query(count(c.prefetch.coalesced_misses)), "pages/q");
  r->Metric("buffer.prefetch_used_frac",
            Ratio(count(c.prefetch.used), count(c.prefetch.issued)),
            "fraction");
  r->Metric("buffer.prefetch_wasted_per_query",
            per_query(count(c.prefetch.wasted)), "pages/q");

  // storage
  r->Metric("storage.device_reads_per_query", per_query(count(c.disk.reads)),
            "reads/q");
  r->Metric("storage.demand_reads_per_query", per_query(count(c.pool.misses)),
            "reads/q");
  r->Metric("storage.readahead_reads_per_query",
            per_query(count(c.prefetch.issued)), "reads/q");
  r->Metric("storage.miss_read_share", share(self(Stage::kMissRead)), "ratio");
  r->Metric("storage.miss_read_share.p99q", p99q(Stage::kMissRead), "ratio");
  r->Metric("storage.crc_share", share(self(Stage::kCrcVerify)), "ratio");
  r->Metric("storage.decode_share", share(self(Stage::kBlockDecode)),
            "ratio");
  r->Metric("storage.bytes_read_per_query",
            per_query(count(c.disk.bytes_read)), "bytes/q");
  r->Metric("storage.postings_decoded_per_query",
            per_query(count(c.disk.postings_decoded)), "postings/q");

  // shard
  double max_reads = 0.0, sum_reads = 0.0;
  for (uint64_t reads : c.shard_reads) {
    max_reads = std::max(max_reads, count(reads));
    sum_reads += count(reads);
  }
  const double mean_reads =
      Ratio(sum_reads, static_cast<double>(c.shard_reads.size()));
  r->Metric("shard.coord_wait_share",
            in.sharded ? share(self(Stage::kEvaluate)) : 0.0, "ratio");
  r->Metric("shard.coord_wait_share.p99q",
            in.sharded ? p99q(Stage::kEvaluate) : 0.0, "ratio");
  r->Metric("shard.lane_busy_ratio", share(a.lane_ns), "ratio");
  r->Metric("shard.merge_share", share(self(Stage::kShardMerge)), "ratio");
  r->Metric("shard.read_skew",
            mean_reads > 0.0 ? max_reads / mean_reads : 1.0, "ratio");
  r->Metric("shard.lost", lost, "count");

  // replay (zero on the serving workloads)
  for (size_t i = 0; i < kReplayConfigCount; ++i) {
    r->Metric(std::string("replay.reads.") + kReplayConfigs[i].label,
              in.replay_reads[i], "reads");
  }
  r->Metric("replay.postings_per_query", in.replay_postings_per_query,
            "postings/q");

  // obs
  r->Metric("obs.unattributed_frac", share(a.unattributed_ns), "ratio");
  r->Metric("obs.attribution_violations", count(a.violations), "count");
  r->Info("attributed_queries", count(a.queries));

  CounterTotals(c, r);
}

/// The set-up components as shares of set-up time.
struct SetupTimes {
  double load_s = 0.0;
  double sequences_s = 0.0;
  double shard_s = 0.0;
  double warm_s = 0.0;
  double total() const { return load_s + sequences_s + shard_s + warm_s; }
};

void SetupMetrics(const std::vector<SetupTimes>& reps, Report* r) {
  std::vector<double> totals;
  for (const SetupTimes& t : reps) totals.push_back(t.total());
  const double setup_s = SmoothPercentile(totals, 50);
  // The shares of the median repetition.
  const SetupTimes* mid = &reps.front();
  for (const SetupTimes& t : reps) {
    if (std::fabs(t.total() - setup_s) < std::fabs(mid->total() - setup_s)) {
      mid = &t;
    }
  }
  r->Metric("setup_s", setup_s, "s");
  const auto frac = [mid](double part) { return Ratio(part, mid->total()); };
  r->Metric("setup.load_frac", frac(mid->load_s), "fraction");
  r->Metric("setup.sequences_frac", frac(mid->sequences_s), "fraction");
  r->Metric("setup.shard_frac", frac(mid->shard_s), "fraction");
  r->Metric("setup.warm_frac", frac(mid->warm_s), "fraction");
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean overlap of the served answers with the safe ranking (c_ins =
/// c_add = 0) over a seeded sample of distinct items. With `df_check`
/// the answer must also equal the cold unsharded DF ranking bit for
/// bit (DF answers cannot depend on the buffer).
double Recall(const Catalogue& cat,
              const std::unordered_map<uint32_t, FirstAnswer>& answers,
              uint64_t seed, size_t sample_size, bool df_check, Report* r) {
  std::vector<uint32_t> items;
  for (const auto& [item, answer] : answers) items.push_back(item);
  std::sort(items.begin(), items.end());
  Pcg32 rng(seed, kStreamSample);
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  if (items.size() > sample_size) items.resize(sample_size);
  core::EvalOptions safe;
  safe.c_ins = 0.0;
  safe.c_add = 0.0;
  safe.top_n = kTopN;
  safe.record_trace = false;
  core::EvalOptions df;
  df.top_n = kTopN;
  df.record_trace = false;
  double sum = 0.0;
  for (uint32_t item : items) {
    const FirstAnswer& served = answers.at(item);
    auto reference = ir::RunColdQuery(cat.index(), *cat.items[item], safe);
    if (!reference.ok()) Die("safe ranking: " + reference.status().ToString());
    std::unordered_set<DocId> truth;
    for (const core::ScoredDoc& d : reference.value().top_docs) {
      truth.insert(d.doc);
    }
    size_t hit = 0;
    for (const core::ScoredDoc& d : served.docs) hit += truth.count(d.doc);
    sum += Ratio(static_cast<double>(hit), static_cast<double>(truth.size()));
    if (df_check) {
      auto cold = ir::RunColdQuery(cat.index(), *cat.items[item], df);
      if (!cold.ok()) Die("DF reference: " + cold.status().ToString());
      if (cold.value().top_docs != served.docs) {
        ++r->wrong;
        r->Problem("item " + std::to_string(item) +
                   ": answer differs from the unsharded DF reference");
      }
    }
  }
  r->Info("recall_sample", static_cast<double>(items.size()));
  return Ratio(sum, static_cast<double>(items.size()));
}

// ---- Serving workloads -----------------------------------------------

struct ServeState {
  Catalogue cat;
  Plan plan;
  ServeConfig config;
  std::unique_ptr<Rig> rig;  // Last: torn down before the catalogue.
};

std::unique_ptr<ServeState> SetUp(const Args& args, SetupTimes* times) {
  auto state = std::make_unique<ServeState>();
  uint64_t t = Now();
  auto loaded = corpus::LoadCorpus(args.corpus_path());
  if (!loaded.ok()) Die("corpus load: " + loaded.status().ToString());
  state->cat.corpus = std::move(loaded).value();
  times->load_s = Seconds(t, Now());

  t = Now();
  if (args.workload == Workload::kAdhocSharded) {
    BuildAdhocQueries(&state->cat);
  } else {
    BuildSequences(&state->cat);
  }
  if (args.workload != Workload::kPaperReplay) {
    state->plan = MakePlan(state->cat, args.workload, args.seed);
  }
  times->sequences_s = Seconds(t, Now());

  if (args.workload == Workload::kAdhocSharded) {
    t = Now();
    shard::ShardOptions sharding;
    sharding.num_shards = kShards;
    sharding.page_size = state->cat.corpus->profile().page_size;
    auto sharded = shard::ShardIndex(state->cat.index(), sharding);
    if (!sharded.ok()) Die("sharding: " + sharded.status().ToString());
    state->cat.sharded =
        std::make_unique<shard::ShardedIndex>(std::move(sharded).value());
    times->shard_s = Seconds(t, Now());
  }

  if (args.workload != Workload::kPaperReplay) {
    t = Now();
    state->config = ConfigFor(args.workload, state->plan);
    state->rig = std::make_unique<Rig>(state->cat, state->config, state->plan,
                                       nullptr);
    times->warm_s = Seconds(t, Now());
  }
  return state;
}

std::unique_ptr<ServeState> SetUpRepeated(const Args& args, Report* r) {
  std::vector<SetupTimes> reps;
  std::unique_ptr<ServeState> state;
  const size_t n = args.smoke ? 1 : kSetupReps;
  for (size_t i = 0; i < n; ++i) {
    state.reset();  // One corpus in memory at a time.
    SetupTimes times;
    state = SetUp(args, &times);
    reps.push_back(times);
  }
  SetupMetrics(reps, r);
  Progress("set-up done");
  return state;
}

/// Warm-up: load until the pool is full (or the time cap), so the
/// measured window starts from a full pool.
void WarmUp(Clients* clients, Rig* rig, const Args& args) {
  const double min_s = args.smoke ? 0.2 : 1.0;
  const double max_s = args.smoke ? 0.5 : std::max(2.0, 0.5 * args.seconds);
  const uint64_t start = Now();
  for (size_t base = 0;; base += 64) {
    (void)clients->Run(std::min(0.5, min_s), base);
    const double elapsed = Seconds(start, Now());
    if (elapsed >= max_s || (elapsed >= min_s && rig->Full())) break;
  }
}

int RunServing(const Args& args, Report* r) {
  std::unique_ptr<ServeState> state = SetUpRepeated(args, r);
  const bool deterministic = args.workload == Workload::kAdhocSharded;
  // Traced: half the window untraced (the overhead baseline), then a
  // traced server serves the same sessions for the other half.
  const double window_s = args.traced ? 0.5 * args.seconds : args.seconds;

  Clients clients(state->rig.get(), &state->cat, &state->plan, deterministic);
  WarmUp(&clients, state->rig.get(), args);
  Progress("warm-up done");
  Counters before = state->rig->Snapshot();
  Window window = clients.Run(window_s, kMeasureStart);
  Counters delta = state->rig->Snapshot().Minus(before);
  const double max_qps = window.Throughput();
  CountOutcomes(window.samples, r);
  r->Info("samples", static_cast<double>(window.samples.size()));
  r->Info("slice_qps.min", window.SliceRates().front());
  r->Info("slice_qps.max", window.SliceRates().back());
  r->Info("pool_pages", static_cast<double>(state->config.pool_pages));
  r->Info("union_pages", static_cast<double>(state->plan.union_pages));
  Progress("measured window done");

  std::unordered_map<uint32_t, FirstAnswer> answers;
  if (!args.traced) {
    r->Metric("max_qps", max_qps, "q/s");
    r->Metric("p50_ms", LatencyPercentileMs(window.samples, 50), "ms");
    r->Metric("p99_ms", LatencyPercentileMs(window.samples, 99), "ms");
    r->Metric("peak_rss_mb", PeakRssMb(), "MB");
    answers = clients.TakeAnswers();
    state->rig.reset();
    const auto per_query = [&window](uint64_t count) {
      return Ratio(static_cast<double>(count),
                   static_cast<double>(window.Answered()));
    };
    r->Info("fail_frac", Ratio(static_cast<double>(r->failed),
                               static_cast<double>(r->attempted)));
    r->Info("hit_rate", delta.pool.HitRate());
    r->Info("evictions_per_query", per_query(delta.pool.evictions));
    r->Info("device_reads_per_query", per_query(delta.disk.reads));
    r->Info("demand_reads_per_query", per_query(delta.pool.misses));
    CounterTotals(delta, r);
  } else {
    state->rig.reset();
    obs::SpanRecorder spans;
    state->rig = std::make_unique<Rig>(state->cat, state->config, state->plan,
                                       &spans);
    Clients traced(state->rig.get(), &state->cat, &state->plan, deterministic);
    WarmUp(&traced, state->rig.get(), args);
    spans.Clear();
    before = state->rig->Snapshot();
    Window traced_window = traced.Run(window_s, kMeasureStart);
    Progress("traced window done");
    LayerInputs in;
    in.counters = state->rig->Snapshot().Minus(before);
    in.server = state->rig->server().StatsSnapshot();
    in.window_s = traced_window.seconds;
    in.fetch_threads = state->rig->fetch_threads();
    in.sharded = state->config.sharded;
    SelfTime st;
    st.Add(spans.Snapshot());
    spans.Clear();
    answers = traced.TakeAnswers();
    state->rig.reset();

    CountOutcomes(traced_window.samples, r);
    in.samples = &traced_window.samples;
    in.attr = Attribute(st, traced_window.samples, /*served=*/true);
    LayerMetrics(in, r);
    r->Metric("obs.trace_overhead_frac",
              1.0 - Ratio(traced_window.Throughput(), max_qps), "ratio");
  }
  r->Check(!answers.empty(), "no query was answered");
  const size_t sample = args.smoke ? 40 : kRecallSample;
  const double recall =
      Recall(state->cat, answers, args.seed, sample, deterministic, r);
  if (!args.traced) r->Metric("recall_at_20", recall, "fraction");
  Progress("reference rankings done");
  if (deterministic) {
    for (const auto& [item, answer] : answers) {
      r->Check(answer.all_identical,
               "item " + std::to_string(item) +
                   ": DF answers differ between repeats");
    }
  }
  return 0;
}

// ---- paper-replay ----------------------------------------------------

size_t ReplayPages(const Catalogue& cat, size_t seq, const ReplayConfig& c) {
  const double ws = static_cast<double>(
      ir::SequenceWorkingSetPages(cat.index(), cat.sequences[seq]));
  return std::max<size_t>(1,
                          static_cast<size_t>(std::llround(c.fraction * ws)));
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t Digest(const std::vector<core::ScoredDoc>& docs, uint64_t h) {
  for (const core::ScoredDoc& d : docs) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d.score, sizeof(bits));
    for (uint64_t v : {static_cast<uint64_t>(d.doc), bits}) {
      h = (h ^ v) * 0x100000001b3ull;
    }
  }
  return h;
}

/// One pass: every sequence (seeded order) under every configuration.
/// A run of one sequence on a cold pool is one latency sample.
struct ReplayPass {
  std::vector<double> run_ms;
  uint64_t steps = 0;
  uint64_t postings = 0;
  std::array<uint64_t, kReplayConfigCount> reads{};
  /// Per (config, sequence): reads and answer digest, for the
  /// pass-to-pass and traced-vs-untraced identity checks.
  std::vector<std::array<uint64_t, 2>> fingerprint;
};

class Replay {
 public:
  Replay(const Catalogue* cat, uint64_t seed) : cat_(*cat) {
    const size_t n = cat_.sequences.size();
    order_.resize(n);
    for (uint32_t i = 0; i < n; ++i) order_[i] = i;
    Pcg32 shuffle(seed, kStreamOrder);
    for (size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1],
                order_[shuffle.NextBounded(static_cast<uint32_t>(i))]);
    }
    pages_.resize(n);
    for (size_t s = 0; s < n; ++s) {
      for (size_t c = 0; c < kReplayConfigCount; ++c) {
        pages_[s][c] = ReplayPages(cat_, s, kReplayConfigs[c]);
      }
    }
  }

  /// Whole ir::RunRefinementSequence passes until `seconds` have
  /// elapsed (at least one): every run of a workload times the same
  /// sequence runs. Returns the elapsed seconds.
  double RunPasses(double seconds, Report* r) {
    const size_t n = cat_.sequences.size();
    const uint64_t start = Now();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    for (size_t p = 0; passes_.empty() || Now() < end; ++p) {
      ReplayPass pass;
      pass.fingerprint.assign(n * kReplayConfigCount, {0, 0});
      for (size_t i = 0; i < n; ++i) RunSequence(order_[i], p == 0, &pass);
      passes_.push_back(std::move(pass));
    }
    // Later passes must reproduce pass 0 exactly.
    for (const ReplayPass& pass : passes_) {
      for (size_t i = 0; i < pass.fingerprint.size(); ++i) {
        r->Check(pass.fingerprint[i] == passes_[0].fingerprint[i],
                 std::string("replay ") + kReplayConfigs[i / n].label +
                     " sequence " + std::to_string(i % n) +
                     ": reads or answers differ between passes");
      }
    }
    r->Check(df_invariant_, "DF answers depend on the buffer size");
    return Seconds(start, Now());
  }

  /// The same runs through evaluator + BufferManager directly, with
  /// spans recorded around and inside each step, for `seconds`. Their
  /// reads must equal RunRefinementSequence's exactly.
  LayerInputs RunTraced(double seconds, std::vector<Sample>* samples,
                        Report* r) {
    const size_t n = cat_.sequences.size();
    obs::SpanRecorder spans;
    cat_.index().disk().SetSpanRecorder(&spans);
    SelfTime st;
    Counters counters;
    const storage::DiskStats disk0 = cat_.index().disk().stats();
    uint32_t next_query = 0;
    const uint64_t start = Now();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    for (size_t i = 0; i < n && Now() < end; ++i) {
      const uint32_t s = order_[i];
      for (size_t c = 0; c < kReplayConfigCount; ++c) {
        const ReplayConfig& rc = kReplayConfigs[c];
        core::EvalOptions eval;
        eval.buffer_aware = rc.baf;
        eval.top_n = kTopN;
        eval.record_trace = false;
        eval.span_recorder = &spans;
        const core::FilteringEvaluator evaluator(&cat_.index(), eval);
        buffer::BufferManager buffers(&cat_.index().disk(), pages_[s][c],
                                      buffer::MakePolicy(rc.policy));
        uint64_t reads = 0;
        for (const workload::RefinementStep& step : cat_.sequences[s].steps) {
          Sample sample;
          sample.query_id = next_query++;
          spans.SetCurrentQuery(sample.query_id);
          const uint64_t t0 = Now();
          Result<core::EvalResult> e = [&] {
            obs::ScopedSpan span(&spans, obs::SpanStage::kEvaluate);
            return evaluator.Evaluate(step.query, &buffers);
          }();
          const uint64_t t1 = Now();
          spans.SetCurrentQuery(obs::SpanRecorder::kNoQuery);
          if (!e.ok()) Die("traced replay: " + e.status().ToString());
          const core::EvalResult& result = e.value();
          sample.submit_ns = sample.submitted_ns = t0;
          sample.end_ns = t1;
          sample.server_latency_ns = sample.service_ns = t1 - t0;
          sample.ok = true;
          sample.wrong = !WellFormed(result, cat_.index().num_docs());
          sample.pages = result.pages_processed;
          sample.postings = result.postings_processed;
          sample.accumulators = result.accumulators;
          sample.terms_skipped = result.terms_skipped;
          reads += result.disk_reads;
          samples->push_back(sample);
        }
        const buffer::BufferStats& bs = buffers.stats();
        counters.pool.fetches += bs.fetches;
        counters.pool.hits += bs.hits;
        counters.pool.misses += bs.misses;
        counters.pool.evictions += bs.evictions;
        r->Check(passes_[0].fingerprint[c * n + s][0] == reads,
                 std::string("traced replay ") + rc.label + " sequence " +
                     std::to_string(s) +
                     ": reads differ from RunRefinementSequence");
        // Reduce and drop the spans while the thread is quiescent, so
        // the recorder never holds more than one sequence run.
        st.Add(spans.Snapshot());
        spans.Clear();
      }
    }
    LayerInputs in;
    in.window_s = Seconds(start, Now());
    cat_.index().disk().SetSpanRecorder(nullptr);
    const storage::DiskStats disk1 = cat_.index().disk().stats();
    counters.disk = {disk1.reads - disk0.reads,
                     disk1.postings_decoded - disk0.postings_decoded,
                     disk1.bytes_read - disk0.bytes_read};
    counters.prefetch.device_reads = counters.pool.misses;
    counters.shard_reads.push_back(counters.disk.reads);
    in.counters = counters;
    in.samples = samples;
    in.attr = Attribute(st, *samples, /*served=*/false);
    const ReplayPass& first = passes_[0];
    for (size_t c = 0; c < kReplayConfigCount; ++c) {
      in.replay_reads[c] = static_cast<double>(first.reads[c]);
    }
    in.replay_postings_per_query = Ratio(static_cast<double>(first.postings),
                                         static_cast<double>(first.steps));
    return in;
  }

  const std::vector<ReplayPass>& passes() const { return passes_; }
  /// DF-LRU.b10 answers of pass 0, by item.
  const std::unordered_map<uint32_t, FirstAnswer>& answers() const {
    return answers_;
  }

 private:
  void RunSequence(uint32_t s, bool first_pass, ReplayPass* pass) {
    const size_t n = cat_.sequences.size();
    std::vector<uint64_t> df_steps;
    for (size_t c = 0; c < kReplayConfigCount; ++c) {
      const ReplayConfig& rc = kReplayConfigs[c];
      ir::SequenceRunOptions options;
      options.buffer_aware = rc.baf;
      options.policy = rc.policy;
      options.buffer_pages = pages_[s][c];
      options.top_n = kTopN;
      const uint64_t t0 = Now();
      auto run = ir::RunRefinementSequence(cat_.index(), cat_.sequences[s], {},
                                           options);
      const uint64_t t1 = Now();
      if (!run.ok()) Die("replay: " + run.status().ToString());
      const ir::SequenceRunResult& result = run.value();
      pass->run_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      pass->steps += result.steps.size();
      pass->postings += result.total_postings_processed;
      pass->reads[c] += result.total_disk_reads;
      uint64_t digest = kFnvBasis;
      for (size_t k = 0; k < result.steps.size(); ++k) {
        const std::vector<core::ScoredDoc>& docs = result.steps[k].top_docs;
        digest = Digest(docs, digest);
        if (!rc.baf) {
          // The DF answer of a step cannot depend on the buffer size.
          const uint64_t step_digest = Digest(docs, kFnvBasis);
          if (df_steps.size() == k) {
            df_steps.push_back(step_digest);
          } else if (df_steps[k] != step_digest) {
            df_invariant_ = false;
          }
        }
        if (first_pass && c == 0) {
          answers_[cat_.first_item[s] + static_cast<uint32_t>(k)].docs = docs;
        }
      }
      pass->fingerprint[c * n + s] = {result.total_disk_reads, digest};
    }
  }

  const Catalogue& cat_;
  std::vector<uint32_t> order_;
  std::vector<std::array<size_t, kReplayConfigCount>> pages_;
  std::vector<ReplayPass> passes_;
  std::unordered_map<uint32_t, FirstAnswer> answers_;
  bool df_invariant_ = true;
};

int RunReplay(const Args& args, Report* r) {
  std::unique_ptr<ServeState> state = SetUpRepeated(args, r);
  const Catalogue& cat = state->cat;
  Replay replay(&cat, args.seed);
  // Traced: half the window untraced (the overhead baseline and the
  // exact reads), half traced.
  const double elapsed =
      replay.RunPasses(args.traced ? 0.5 * args.seconds : args.seconds, r);
  uint64_t steps = 0;
  std::vector<double> run_ms;
  for (const ReplayPass& pass : replay.passes()) {
    steps += pass.steps;
    run_ms.insert(run_ms.end(), pass.run_ms.begin(), pass.run_ms.end());
  }
  r->attempted += steps;
  const double untraced_qps = Ratio(static_cast<double>(steps), elapsed);
  r->Info("passes", static_cast<double>(replay.passes().size()));
  r->Info("replay_samples", static_cast<double>(run_ms.size()));
  Progress("replay passes done");

  const ReplayPass& first = replay.passes()[0];
  if (!args.traced) {
    r->Metric("max_qps", untraced_qps, "q/s");
    r->Metric("p50_ms", SmoothPercentile(run_ms, 50), "ms");
    r->Metric("p99_ms", SmoothPercentile(run_ms, 99), "ms");
    r->Metric("peak_rss_mb", PeakRssMb(), "MB");
    uint64_t reads = 0;
    for (size_t c = 0; c < kReplayConfigCount; ++c) {
      r->Info(std::string("reads.") + kReplayConfigs[c].label,
              static_cast<double>(first.reads[c]));
      reads += first.reads[c];
    }
    r->Info("device_reads_per_query", Ratio(static_cast<double>(reads),
                                            static_cast<double>(first.steps)));
  } else {
    std::vector<Sample> samples;
    const LayerInputs in = replay.RunTraced(0.5 * args.seconds, &samples, r);
    CountOutcomes(samples, r);
    LayerMetrics(in, r);
    const double traced_qps =
        Ratio(static_cast<double>(samples.size()), in.window_s);
    r->Metric("obs.trace_overhead_frac", 1.0 - Ratio(traced_qps, untraced_qps),
              "ratio");
  }

  const size_t sample = args.smoke ? 40 : kRecallSample;
  const double recall =
      Recall(cat, replay.answers(), args.seed, sample, /*df_check=*/true, r);
  if (!args.traced) r->Metric("recall_at_20", recall, "fraction");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  EnsureCorpus(args);
  Report report;
  const int rc = args.workload == Workload::kPaperReplay
                     ? RunReplay(args, &report)
                     : RunServing(args, &report);
  std::printf("%s\n", report.Json(args).c_str());
  return rc;
}
