#include "core/quit_continue_evaluator.h"

#include "core/accumulator_set.h"
#include "core/scorer.h"
#include "core/top_n.h"

namespace irbuf::core {

Result<EvalResult> QuitContinueEvaluator::Evaluate(
    const Query& query, buffer::BufferPool* buffers) const {
  EvalResult result;
  if (query.empty()) return result;

  const buffer::QueryLease lease =
      buffers->BeginQuery(BuildQueryContext(query, index_->lexicon()));

  // Decreasing-idf order, as in DF's step 3.
  const index::Lexicon& lexicon = index_->lexicon();
  const std::vector<QueryTerm> order = DfTermOrder(query, lexicon);

  AccumulatorSet accumulators;
  bool quit = false;

  obs::QueryTracer* const tracer = options_.tracer;
  if (tracer != nullptr) tracer->BeginQuery(order.size());
  // The accumulator budget starts in the "grow" phase; the transition to
  // "capped" (continue) or "quit" is recorded once, when first hit.
  bool limit_hit = false;

  for (const QueryTerm& qt : order) {
    if (quit) break;
    const index::TermInfo& info = lexicon.info(qt.term);
    const double wq = QueryTermWeight(qt.fq, info.idf);
    const uint64_t postings_before = result.postings_processed;
    if (tracer != nullptr) tracer->BeginTerm(qt.term, info.pages, 0.0, 0.0);
    // Quit/continue reads every page of the list in order (no threshold
    // clipping exists in this strategy), so the whole tail is the plan.
    if (buffers->PrefetchDepth() > 0 && info.pages > 1) {
      std::vector<PageId> plan;
      plan.reserve(info.pages - 1);
      for (uint32_t page_no = 1; page_no < info.pages; ++page_no) {
        plan.push_back(PageId{qt.term, page_no});
      }
      buffers->Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
    }
    for (uint32_t page_no = 0; page_no < info.pages && !quit; ++page_no) {
      Result<buffer::PinnedPage> page =
          buffers->FetchPinned(PageId{qt.term, page_no});
      if (!page.ok()) return page.status();
      ++result.pages_processed;
      if (page.value().was_miss()) ++result.disk_reads;
      const storage::PostingBlock& block = page.value()->block;
      for (const storage::PostingRun& run : block.runs) {
        if (quit) break;
        // Hoisted per run: all postings in a run share f_{d,t}.
        const double partial = DocTermWeight(run.freq, info.idf) * wq;
        // LINT-HOT-LOOP: quit/continue run scan.
        for (uint32_t i = run.begin; i < run.end; ++i) {
          ++result.postings_processed;
          const DocId doc = block.doc_ids[i];
          double* a = accumulators.FindOrNull(doc);
          if (a == nullptr) {
            if (accumulators.size() >= options_.accumulator_limit) {
              if (tracer != nullptr && !limit_hit) {
                limit_hit = true;
                // The limit_hit latch makes this trace event fire at
                // most once per query, so the tracer's push_back is off
                // the steady-state posting path.
                // irbuf-analyzer: allow(hot-alloc-ast)
                tracer->Phase(qt.term, options_.mode == LimitMode::kQuit
                                           ? "grow->quit"
                                           : "grow->capped");
              }
              if (options_.mode == LimitMode::kQuit) {
                quit = true;
                break;
              }
              continue;  // kContinue: no new candidates, keep updating.
            }
            a = &accumulators.Insert(doc, 0.0);
          }
          *a += partial;
        }
        // LINT-HOT-LOOP-END
      }
    }
    if (tracer != nullptr) {
      tracer->EndTerm(qt.term, 0.0,
                      result.postings_processed - postings_before);
      tracer->Accumulators(accumulators.size());
    }
  }

  result.top_docs = SelectTopN(accumulators, *index_, options_.top_n);
  result.accumulators = accumulators.size();
  if (tracer != nullptr) tracer->EndQuery(0.0, result.accumulators);
  return result;
}

}  // namespace irbuf::core
