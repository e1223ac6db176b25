#include "core/filtering_evaluator.h"

#include <algorithm>

#include "core/scorer.h"
#include "core/term_scheduler.h"
#include "core/top_n.h"

namespace irbuf::core {

std::vector<QueryTerm> DfTermOrder(const Query& query,
                                   const index::Lexicon& lexicon) {
  std::vector<QueryTerm> order = query.terms();
  std::sort(order.begin(), order.end(),
            [&lexicon](const QueryTerm& a, const QueryTerm& b) {
              const index::TermInfo& ia = lexicon.info(a.term);
              const index::TermInfo& ib = lexicon.info(b.term);
              if (ia.idf != ib.idf) return ia.idf > ib.idf;
              if (ia.pages != ib.pages) return ia.pages < ib.pages;
              return a.term < b.term;
            });
  return order;
}

Status FilteringEvaluator::ProcessTerm(const QueryTerm& qt,
                                       buffer::BufferPool* buffers,
                                       AccumulatorSet* accumulators,
                                       double* smax, EvalResult* result,
                                       const EvalControl* control) const {
  obs::ScopedSpan term_span(options_.span_recorder,
                            obs::SpanStage::kTermLoop, qt.term);
  const index::TermInfo& info = index_->lexicon().info(qt.term);
  const Thresholds th = ComputeThresholds(options_.c_ins, options_.c_add,
                                          *smax, qt.fq, info.idf);
  obs::QueryTracer* const tracer = options_.tracer;
  TermTrace trace;
  trace.term = qt.term;
  trace.idf = info.idf;
  trace.total_pages = info.pages;
  trace.smax_before = *smax;
  trace.f_ins = th.f_ins;
  trace.f_add = th.f_add;

  // Step 4b / 3c: when even the term's highest frequency cannot pass the
  // addition threshold, no posting can contribute — skip the whole list
  // without any read.
  const bool below_add = static_cast<double>(info.fmax) <= th.f_add;
  if (below_add && !options_.always_read_first_page) {
    trace.skipped = true;
    trace.smax_after = *smax;
    ++result->terms_skipped;
    if (options_.record_trace) result->trace.push_back(trace);
    if (tracer != nullptr) {
      tracer->SkipTerm(qt.term, static_cast<double>(info.fmax), th.f_add);
    }
    return Status::OK();
  }
  if (tracer != nullptr) {
    tracer->BeginTerm(qt.term, info.pages, th.f_ins, th.f_add);
  }

  const double wq = QueryTermWeight(qt.fq, info.idf);

  // The early-exit of step 4(c)iv is only sound on frequency-sorted
  // lists; on a document-ordered index (the traditional layout the paper
  // contrasts against in footnote 14), low-frequency postings may be
  // followed by high-frequency ones, so the whole list must be scanned.
  const bool can_stop_early =
      index_->order() == index::IndexListOrder::kFrequencySorted;

  // Brownout rung 2: the page budget truncates the list like an early
  // f_add stop would, except the forfeited tail is accounted below.
  const uint32_t page_cap =
      (control != nullptr && control->max_pages_per_term > 0 &&
       control->max_pages_per_term < info.pages)
          ? control->max_pages_per_term
          : info.pages;

  // Readahead: the page loop below fetches pages 0..page_cap of this
  // term in order — evaluation knows its future — so hand the pool the
  // tail of that sequence as a plan. On frequency-sorted lists the plan
  // is clipped at the conversion table's PagesToProcess bound: pages
  // the f_add threshold (at the current Smax) proves the scan can never
  // reach are not worth reading ahead. Clipping is rank-safe because a
  // plan is a pure hint — every page actually touched still arrives
  // through FetchPinned below, and Smax only grows, so the bound only
  // overestimates the pages the scan will demand. Guarded on
  // PrefetchDepth so a pool without readahead pays nothing here.
  if (buffers->PrefetchDepth() > 0) {
    uint32_t plan_end = page_cap;
    if (can_stop_early) {
      plan_end = std::min(plan_end, index_->conversion_table().PagesToProcess(
                                        qt.term, th.f_add, info.pages,
                                        info.fmax));
    }
    if (plan_end > 1) {
      std::vector<PageId> plan;
      plan.reserve(plan_end - 1);
      // Page 0 is demanded immediately; prefetching it would just race
      // the fetch (coalescing would merge them, but why queue it).
      for (uint32_t page_no = 1; page_no < plan_end; ++page_no) {
        plan.push_back(PageId{qt.term, page_no});
      }
      buffers->Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
    }
  }

  bool stop = false;
  // Phase tracking for the tracer: "ins" while postings pass f_ins,
  // "add" once they only pass f_add, "drop" when processing stops.
  // Frequencies are nonincreasing within a list, so phases never revert.
  const char* phase = "ins";
  for (uint32_t page_no = 0; page_no < page_cap && !stop; ++page_no) {
    // The pin is scoped to this iteration: released before the next
    // page is fetched, so at most one page per query is pinned and
    // victim selection at fetch time sees no pins from this reader.
    Result<buffer::PinnedPage> page = [&] {
      // kPagePin covers the pool's whole fetch: stripe lookup, policy
      // latch, and (on a miss) the nested kMissRead the pool records.
      obs::ScopedSpan pin_span(options_.span_recorder,
                               obs::SpanStage::kPagePin, qt.term);
      return buffers->FetchPinned(PageId{qt.term, page_no});
    }();
    if (!page.ok()) {
      const StatusCode code = page.status().code();
      const bool device_fault = code == StatusCode::kUnavailable ||
                                code == StatusCode::kCorrupted ||
                                code == StatusCode::kIOError;
      // Logic errors (all frames pinned, unknown page, policy bug)
      // still fail the query; only device-level losses degrade.
      if (!device_fault) return page.status();
      // Degrade: forfeit the page like a threshold-skipped tail. Each
      // of its postings could have contributed at most
      // page_max_weight * w_{q,t} to one document, and the page's max
      // weight is catalog metadata, readable without a device read.
      const double bound =
          index_->disk().PageMaxWeight(PageId{qt.term, page_no}) * wq;
      ++trace.pages_lost;
      result->quality_bound += bound;
      if (tracer != nullptr) tracer->PageLost(qt.term, page_no, bound);
      continue;
    }
    ++trace.pages_processed;
    if (page.value().was_miss()) ++trace.pages_read;
    const double page_smax_before = *smax;

    // The "easy fix" flag forces the entire first page to contribute, so a
    // term added during refinement can never be silently ignored.
    const bool unconditional =
        options_.always_read_first_page && page_no == 0;

    // Threshold decisions are per-run, not per-posting: every posting in
    // a run shares f_{d,t}, so its branch — and its contribution
    // w_{d,t} * w_{q,t} — is computed once per run and the per-doc loops
    // below touch only the SoA doc_ids[].
    const storage::PostingBlock& block = page.value()->block;
    // One kAccumulate span per fetched page (the span sits outside the
    // run scans, so the hot loops themselves stay untouched).
    obs::ScopedSpan accumulate_span(options_.span_recorder,
                                    obs::SpanStage::kAccumulate, qt.term);
    for (const storage::PostingRun& run : block.runs) {
      const double f = static_cast<double>(run.freq);
      if (unconditional || f > th.f_ins) {
        // Steps 4(c)i-ii: candidate insertion.
        const double partial = DocTermWeight(run.freq, info.idf) * wq;
        // LINT-HOT-LOOP: DF/BAF insert-mode run scan.
        for (uint32_t i = run.begin; i < run.end; ++i) {
          ++trace.postings_processed;
          double& a = accumulators->FindOrInsert(block.doc_ids[i]);
          a += partial;
          if (a > *smax) *smax = a;
        }
        // LINT-HOT-LOOP-END
      } else if (f > th.f_add) {
        if (tracer != nullptr && phase[0] == 'i') {
          tracer->Phase(qt.term, "ins->add");
          phase = "add";
        }
        // Step 4(c)iii: contribute only to existing candidates.
        const double partial = DocTermWeight(run.freq, info.idf) * wq;
        // LINT-HOT-LOOP: DF/BAF add-mode run scan.
        for (uint32_t i = run.begin; i < run.end; ++i) {
          ++trace.postings_processed;
          if (double* a = accumulators->FindOrNull(block.doc_ids[i])) {
            *a += partial;
            if (*a > *smax) *smax = *a;
          }
        }
        // LINT-HOT-LOOP-END
      } else if (can_stop_early) {
        // Step 4(c)iv: frequency-sorted order guarantees no later posting
        // can pass the addition threshold. The posting that triggers the
        // stop is counted as processed, exactly as the per-posting loop
        // counted it.
        ++trace.postings_processed;
        if (tracer != nullptr) {
          tracer->Phase(qt.term,
                        phase[0] == 'i' ? "ins->drop" : "add->drop");
        }
        stop = true;
        break;
      } else {
        // Document-ordered list below f_add: every posting is examined
        // (and counted) but none can contribute.
        trace.postings_processed += run.end - run.begin;
      }
    }
    if (unconditional && below_add) stop = true;
    // One Smax event per page that moved it (posting granularity would
    // swamp the trace; page granularity preserves the trajectory).
    if (tracer != nullptr && *smax != page_smax_before) {
      tracer->Smax(qt.term, page_smax_before, *smax);
    }
  }

  // Pages the budget kept us from reading: each could have contributed
  // at most page_max_weight * w_{q,t} per posting-touched document —
  // the same replacement-value bound a lost page gets. An early f_add
  // stop makes the tail worthless anyway, so no bound accrues then.
  if (!stop && page_cap < info.pages) {
    for (uint32_t page_no = page_cap; page_no < info.pages; ++page_no) {
      result->quality_bound +=
          index_->disk().PageMaxWeight(PageId{qt.term, page_no}) * wq;
    }
    trace.pages_trimmed = info.pages - page_cap;
    result->pages_trimmed += trace.pages_trimmed;
    result->work_trimmed = true;
  }

  trace.smax_after = *smax;
  result->pages_processed += trace.pages_processed;
  result->disk_reads += trace.pages_read;
  result->postings_processed += trace.postings_processed;
  result->pages_lost += trace.pages_lost;
  if (options_.record_trace) result->trace.push_back(trace);
  if (tracer != nullptr) {
    tracer->EndTerm(qt.term, *smax, trace.postings_processed);
    tracer->Accumulators(accumulators->size());
  }
  return Status::OK();
}

void FilteringEvaluator::TermwiseRun::Begin(const Query& query,
                                            const EvalControl* control) {
  if (control != nullptr) {
    control_ = *control;
    has_control_ = true;
  }
  obs::ScopedSpan snapshot_span(evaluator_->options_.span_recorder,
                                obs::SpanStage::kContextSnapshot);
  lease_ = buffers_->BeginQuery(
      BuildQueryContext(query, evaluator_->index_->lexicon()));
}

Result<FilteringEvaluator::TermwiseRun::StepOutcome>
FilteringEvaluator::TermwiseRun::Step(const QueryTerm& qt, double smax_in) {
  const uint32_t skipped_before = result_.terms_skipped;
  const uint64_t reads_before = result_.disk_reads;
  const uint32_t lost_before = result_.pages_lost;
  double smax = smax_in;
  IRBUF_RETURN_NOT_OK(
      evaluator_->ProcessTerm(qt, buffers_, &accumulators_, &smax, &result_,
                              has_control_ ? &control_ : nullptr));
  StepOutcome outcome;
  outcome.smax = smax;
  outcome.skipped = result_.terms_skipped != skipped_before;
  outcome.pages_read =
      static_cast<uint32_t>(result_.disk_reads - reads_before);
  outcome.pages_lost = result_.pages_lost - lost_before;
  return outcome;
}

EvalResult FilteringEvaluator::TermwiseRun::Finish() {
  {
    obs::ScopedSpan merge_span(evaluator_->options_.span_recorder,
                               obs::SpanStage::kTopKMerge);
    result_.top_docs = SelectTopN(accumulators_, *evaluator_->index_,
                                  evaluator_->options_.top_n);
  }
  lease_.End();
  result_.accumulators = accumulators_.size();
  result_.degraded = result_.pages_lost > 0 || result_.deadline_hit ||
                     result_.work_trimmed || result_.shards_lost > 0;
  return std::move(result_);
}

Result<EvalResult> FilteringEvaluator::Evaluate(
    const Query& query, buffer::BufferPool* buffers,
    const EvalControl* control) const {
  if (query.empty()) return EvalResult{};

  // Ranking-aware replacement sees the new query's weights before any page
  // of this evaluation is touched.
  TermwiseRun run(this, buffers);
  run.Begin(query, control);
  obs::QueryTracer* const tracer = options_.tracer;
  if (tracer != nullptr) tracer->BeginQuery(query.size());

  Result<double> smax = ScheduleTerms(
      query, index_->lexicon(), index_->conversion_table(), options_, control,
      [buffers](TermId term) { return buffers->ResidentPages(term); },
      [&run](const QueryTerm& qt, double* term_smax) -> Result<bool> {
        Result<TermwiseRun::StepOutcome> outcome = run.Step(qt, *term_smax);
        if (!outcome.ok()) return outcome.status();
        *term_smax = outcome.value().smax;
        return true;
      },
      run.mutable_result());
  if (!smax.ok()) return smax.status();

  EvalResult result = run.Finish();
  if (tracer != nullptr) tracer->EndQuery(smax.value(), result.accumulators);
  return result;
}

}  // namespace irbuf::core
