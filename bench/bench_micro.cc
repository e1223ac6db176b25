// Microbenchmarks (google-benchmark) for the hot paths underneath the
// reproduction: stemming, posting compression, buffer-pool fetches per
// policy (both pools), accumulator updates and probes, and top-n
// selection. These quantify the constant factors behind the simulator's
// CPU-cost metric.

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "buffer/buffer_manager.h"
#include "buffer/policy_factory.h"
#include "core/accumulator_set.h"
#include "core/top_n.h"
#include "index/index_builder.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"
#include "storage/codec.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace irbuf {
namespace {

const char* kWords[] = {
    "computers",   "computing",     "increases",  "investment",
    "american",    "stockmarkets",  "relational", "conditional",
    "hesitancy",   "formalization", "electrical", "adjustment",
    "gyroscopic",  "dependable",    "insulation", "manufacturing",
};

void BM_PorterStem(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::PorterStem(kWords[i++ % std::size(kWords)]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_Tokenize(benchmark::State& state) {
  std::string input;
  for (int i = 0; i < 50; ++i) {
    input += "Drastic price increases hit American stock markets in 1987; ";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::TokenizeAll(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Tokenize);

std::vector<Posting> MakePagePostings(size_t n) {
  Pcg32 rng(5);
  TruncatedGeometric freq(0.55, 30);
  std::vector<Posting> postings;
  for (size_t i = 0; i < n; ++i) {
    postings.push_back(
        Posting{static_cast<DocId>(i * 7 + 3), freq.Sample(&rng)});
  }
  std::sort(postings.begin(), postings.end(),
            [](const Posting& a, const Posting& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.doc < b.doc;
            });
  return postings;
}

void BM_EncodePostings(benchmark::State& state) {
  auto postings = MakePagePostings(404);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::EncodePostings(postings));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 404);
}
BENCHMARK(BM_EncodePostings);

/// One doc-id gap in the scale-1 corpus's mix: 75% of gaps take one
/// byte, 24% two and 1% three.
uint32_t DrawMixedGap(Pcg32* rng) {
  const uint32_t r = rng->NextBounded(100);
  if (r < 75) return 1 + rng->NextBounded(127);
  if (r < 99) return 128 + rng->NextBounded(16384 - 128);
  return 16384 + rng->NextBounded(1u << 20);
}

/// A page in the corpus's gap mix: two runs of 124 and 280 postings.
std::vector<Posting> MakeMixedPagePostings() {
  Pcg32 rng(5);
  std::vector<Posting> postings;
  for (auto [freq, len] : {std::pair<uint32_t, uint32_t>{2, 124}, {1, 280}}) {
    DocId doc = rng.NextBounded(1000);
    for (uint32_t i = 0; i < len; ++i) {
      if (i > 0) doc += DrawMixedGap(&rng);
      postings.push_back(Posting{doc, freq});
    }
  }
  return postings;
}

/// Decodes one page image per iteration into a reused block.
void DecodePage(benchmark::State& state, const std::vector<Posting>& postings) {
  const auto image = storage::EncodePostings(postings);
  storage::PostingBlock block;
  for (auto _ : state) {
    if (!storage::DecodePostingsInto(image, &block).ok()) std::abort();
    benchmark::DoNotOptimize(block.doc_ids.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(postings.size()));
  state.counters["bytes_per_posting"] =
      static_cast<double>(image.size()) / static_cast<double>(postings.size());
}

// Decode on two 404-posting pages: 95% one-byte gaps in 7 runs (the
// 16-wide all-terminator case), and the corpus's mix in 2 runs (the
// table-driven windows).
void BM_DecodePostings_block(benchmark::State& state) {
  DecodePage(state, MakePagePostings(404));
}
BENCHMARK(BM_DecodePostings_block);

void BM_DecodePostings_mixed(benchmark::State& state) {
  DecodePage(state, MakeMixedPagePostings());
}
BENCHMARK(BM_DecodePostings_mixed);

// Accumulator A/B: the unordered_map the evaluators used before the
// open-addressing table, same find-or-insert-then-add stream.
void BM_AccumulatorUpdates_legacy(benchmark::State& state) {
  Pcg32 rng(7);
  std::vector<DocId> docs(10000);
  for (DocId& d : docs) d = rng.NextBounded(100000);
  for (auto _ : state) {
    std::unordered_map<DocId, double> acc;
    for (DocId d : docs) {
      auto [it, inserted] = acc.try_emplace(d, 0.0);
      it->second += 1.5;
    }
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
  state.SetLabel("legacy/BM_AccumulatorUpdates");
}
BENCHMARK(BM_AccumulatorUpdates_legacy);

void BM_AccumulatorUpdates_block(benchmark::State& state) {
  Pcg32 rng(7);
  std::vector<DocId> docs(10000);
  for (DocId& d : docs) d = rng.NextBounded(100000);
  for (auto _ : state) {
    core::AccumulatorSet acc;
    for (DocId d : docs) {
      acc.FindOrInsert(d) += 1.5;
    }
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
  state.SetLabel("block/BM_AccumulatorUpdates");
}
BENCHMARK(BM_AccumulatorUpdates_block);

// The DF/BAF add-mode stream (Persin's step 4(c)iii) at paper-replay's
// per-query shape: ~440 candidates, then ~40,000 FindOrNull probes over
// the WSJ profile's 173,252 doc ids. One probe in 50 names a candidate;
// the rest miss, as almost every add-mode probe does.
void BM_AccumulatorProbe(benchmark::State& state) {
  constexpr uint32_t kNumDocs = 173252;
  constexpr uint32_t kCandidates = 440;
  Pcg32 rng(19);
  core::AccumulatorSet acc;
  std::vector<DocId> candidates(kCandidates);
  for (DocId& d : candidates) {
    d = rng.NextBounded(kNumDocs);
    acc.Insert(d, 1.0);
  }
  std::vector<DocId> probes(40000);
  for (DocId& d : probes) {
    d = rng.NextBounded(kNumDocs);
    if (rng.NextBounded(50) == 0) d = candidates[rng.NextBounded(kCandidates)];
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (DocId d : probes) {
      if (const double* a = acc.FindOrNull(d)) sum += *a;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_AccumulatorProbe);

const index::InvertedIndex& MicroIndex() {
  static index::InvertedIndex* index = [] {
    index::IndexBuilderOptions options;
    options.page_size = 404;
    options.num_docs = 100000;
    index::IndexBuilder builder(options);
    Pcg32 rng(11);
    TruncatedGeometric freq(0.55, 30);
    for (int t = 0; t < 8; ++t) {
      std::vector<Posting> postings;
      for (DocId d : SampleDistinct(100000, 8080, &rng)) {
        postings.push_back(Posting{d, freq.Sample(&rng)});
      }
      auto id = builder.AddTermPostings("term" + std::to_string(t),
                                        std::move(postings));
      if (!id.ok()) std::abort();
    }
    auto built = std::move(builder).Build();
    if (!built.ok()) std::abort();
    return new index::InvertedIndex(std::move(built).value());
  }();
  return *index;
}

// Pins and unpins a uniform random page of MicroIndex's 8 terms per
// iteration through a 64-page `pool` (a BufferManager or its concurrent
// twin; both are final, so the calls stay direct).
template <typename Pool>
void FetchRandomPages(benchmark::State& state, Pool& pool) {
  const index::InvertedIndex& index = MicroIndex();
  buffer::QueryContext ctx;
  for (TermId t = 0; t < 8; ++t) ctx.SetWeight(t, 1.0 + t);
  const buffer::QueryLease lease = pool.BeginQuery(std::move(ctx));
  Pcg32 rng(13);
  for (auto _ : state) {
    TermId term = rng.NextBounded(8);
    uint32_t page = rng.NextBounded(index.lexicon().info(term).pages);
    benchmark::DoNotOptimize(pool.FetchPinned(PageId{term, page}));
  }
  state.SetLabel(buffer::PolicyKindName(
      static_cast<buffer::PolicyKind>(state.range(0))));
}

void AllPolicies(benchmark::internal::Benchmark* bench) {
  for (buffer::PolicyKind kind :
       {buffer::PolicyKind::kLru, buffer::PolicyKind::kMru,
        buffer::PolicyKind::kRap, buffer::PolicyKind::kLruK,
        buffer::PolicyKind::kTwoQ, buffer::PolicyKind::kClock,
        buffer::PolicyKind::kFifo}) {
    bench->Arg(static_cast<int>(kind));
  }
}

void BM_BufferFetch(benchmark::State& state) {
  buffer::BufferManager pool(
      &MicroIndex().disk(), 64,
      buffer::MakePolicy(static_cast<buffer::PolicyKind>(state.range(0))));
  FetchRandomPages(state, pool);
}
BENCHMARK(BM_BufferFetch)->Apply(AllPolicies);

// The same stream through the thread-safe serving pool, on one thread:
// what the stripe, latch and atomics cost when nothing contends.
void BM_ConcurrentBufferFetch(benchmark::State& state) {
  serve::ConcurrentPoolOptions options;
  options.capacity = 64;
  options.policy = static_cast<buffer::PolicyKind>(state.range(0));
  serve::ConcurrentBufferPool pool(&MicroIndex().disk(), options);
  FetchRandomPages(state, pool);
}
BENCHMARK(BM_ConcurrentBufferFetch)->Apply(AllPolicies);

// A frame table the RAP bench writes directly, with no pool around it.
class MicroDirectory final : public buffer::FrameDirectory {
 public:
  explicit MicroDirectory(size_t capacity) : frames(capacity) {}
  const buffer::FrameMeta& Meta(buffer::FrameId frame) const override {
    return frames[frame];
  }
  size_t capacity() const override { return frames.size(); }

  std::vector<buffer::FrameMeta> frames;
};

// RAP victim selection in a full pool, per miss: ChooseVictim, the
// eviction it picks and the insert of the next page of a random term,
// with the query context republished every 8 misses (the next choice
// then re-reads its weights). Stored weights fall along each list, as on
// frequency-sorted lists. Args: pool capacity, context terms.
void BM_RapChooseVictim(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  const TermId context_terms = static_cast<TermId>(state.range(1));
  const TermId terms = 2 * context_terms + static_cast<TermId>(capacity / 8);
  MicroDirectory dir(capacity);
  auto policy = buffer::MakePolicy(buffer::PolicyKind::kRap);
  policy->Attach(&dir);
  buffer::QueryContext ctx;
  for (TermId t = 0; t < context_terms; ++t) ctx.SetWeight(t, 1.0 + t % 5);
  policy->SetQueryContext(&ctx);
  // Under RAP a term's resident pages stay a prefix of its list, so its
  // next page is its resident count.
  std::vector<uint32_t> resident(terms, 0);
  Pcg32 rng(19);
  const auto insert = [&](buffer::FrameId frame) {
    const TermId t = rng.NextBounded(terms);
    const uint32_t page_no = resident[t]++;
    dir.frames[frame] = {PageId{t, page_no}, 1000.0 / (1 + page_no), true};
    policy->OnInsert(frame);
  };
  for (size_t f = 0; f < capacity; ++f) {
    insert(static_cast<buffer::FrameId>(f));
  }
  uint64_t misses = 0;
  for (auto _ : state) {
    if (++misses % 8 == 0) policy->SetQueryContext(&ctx);
    const buffer::FrameId victim = policy->ChooseVictim();
    policy->OnEvict(victim);
    --resident[dir.frames[victim].page.term];
    insert(victim);
  }
}
BENCHMARK(BM_RapChooseVictim)
    ->ArgNames({"capacity", "context"})
    ->ArgsProduct({{64, 1152, 4610}, {3, 100, 400}});

// Span-tracing cost pair: the disabled path (null recorder — what every
// hot-path site pays when tracing is off, one branch in and one out)
// versus full recording. The disabled number is the one the
// "instrumentation off is free" contract rides on.
void BM_SpanScope_disabled(benchmark::State& state) {
  obs::SpanRecorder* recorder = nullptr;
  for (auto _ : state) {
    obs::ScopedSpan span(recorder, obs::SpanStage::kPagePin, 1);
    benchmark::DoNotOptimize(recorder);
  }
  state.SetLabel("disabled/BM_SpanScope");
}
BENCHMARK(BM_SpanScope_disabled);

void BM_SpanScope_enabled(benchmark::State& state) {
  obs::SpanRecorder recorder;
  recorder.SetCurrentQuery(7);
  uint64_t n = 0;
  for (auto _ : state) {
    obs::ScopedSpan span(&recorder, obs::SpanStage::kPagePin, 1);
    benchmark::DoNotOptimize(n);
    // Bound the recorder's memory: a long benchmark run would otherwise
    // retain every span. The amortized clear cost is in the noise.
    if ((++n & 0xFFFF) == 0) recorder.Clear();
  }
  state.SetLabel("enabled/BM_SpanScope");
}
BENCHMARK(BM_SpanScope_enabled);

// Mutex-profiling cost pair: a plain (seed-equivalent) lock/unlock
// versus one with contention tracking attached, uncontended — the
// try_lock + relaxed counter the instrumented fast path adds. Waits are
// only timed when the lock actually blocks, which an uncontended
// single-thread loop never does, so no clock reads happen here.
void BM_MutexLock_plain(benchmark::State& state) {
  Mutex mu;
  for (auto _ : state) {
    mu.Lock();
    mu.Unlock();
  }
  state.SetLabel("plain/BM_MutexLock");
}
BENCHMARK(BM_MutexLock_plain);

void BM_MutexLock_profiled(benchmark::State& state) {
  Mutex mu;
  MutexWaitStats stats("bench.mutex");
  mu.TrackContention(&stats);
  for (auto _ : state) {
    mu.Lock();
    mu.Unlock();
  }
  benchmark::DoNotOptimize(stats.acquisitions());
  state.SetLabel("profiled/BM_MutexLock");
}
BENCHMARK(BM_MutexLock_profiled);

void BM_SelectTopN(benchmark::State& state) {
  const index::InvertedIndex& index = MicroIndex();
  Pcg32 rng(17);
  core::AccumulatorSet acc;
  for (int i = 0; i < 50000; ++i) {
    acc.Insert(rng.NextBounded(100000), rng.NextDouble() * 1000.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SelectTopN(acc, index, static_cast<uint32_t>(
                                         state.range(0))));
  }
}
BENCHMARK(BM_SelectTopN)->Arg(20)->Arg(200);

}  // namespace
}  // namespace irbuf

BENCHMARK_MAIN();
