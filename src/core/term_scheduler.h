// The term scheduler: the one term loop behind unsharded and sharded
// evaluation. DF (Figure 1, step 3) walks the query's terms in
// DfTermOrder; BAF (Figure 2, step 3a) picks, per round, the unmarked
// term with the fewest estimated disk reads d_t = max(p_t - b_t, 0),
// ties to the higher idf, then the lower term id. The caller supplies
// what differs between one pool and N shards — b_t and the per-term
// step — as template parameters, so the loop makes no indirect call,
// and nothing here runs per posting.

#ifndef IRBUF_CORE_TERM_SCHEDULER_H_
#define IRBUF_CORE_TERM_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "core/scorer.h"
#include "fault/backoff.h"
#include "index/inverted_index.h"
#include "util/status.h"

namespace irbuf::core {

/// The deadline probe, read at term boundaries only (a handful of clock
/// reads per query; a hit deadline never tears a term mid-list).
inline bool DeadlinePassed(const EvalControl* control) {
  if (control == nullptr || control->deadline_us == 0) return false;
  uint64_t (*clock)() =
      control->now_us != nullptr ? control->now_us : &fault::MonotonicNowUs;
  return clock() >= control->deadline_us;
}

/// Evaluates `query`'s terms in DF or BAF order (options.buffer_aware)
/// under `control` (may be null) and returns Smax after the last
/// evaluated term. Term statistics, thresholds and p_t come from
/// `lexicon` and `table`, which must be the global ones.
///
///  * resident_pages(TermId) -> uint32_t is b_t; only BAF asks.
///  * step(const QueryTerm&, double* smax) -> Result<bool> evaluates one
///    term with thresholds from *smax and leaves Smax after the term in
///    *smax. It returns false when nothing is left to evaluate on (every
///    shard forfeited, and their loss already charged); the loop then
///    stops without charging the remaining terms.
///
/// A term-budget cut sets result->work_trimmed, a passed deadline
/// result->deadline_hit. Either adds every unevaluated term's maximum
/// single-document contribution w(fmax, idf) * w_{q,t} to
/// result->quality_bound.
template <typename ResidentPagesFn, typename StepFn>
Result<double> ScheduleTerms(const Query& query, const index::Lexicon& lexicon,
                             const index::ConversionTable& table,
                             const EvalOptions& options,
                             const EvalControl* control,
                             ResidentPagesFn resident_pages, StepFn step,
                             EvalResult* result) {
  struct Candidate {
    QueryTerm qt;
    double cached_smax = -1.0;  // Smax at which f_add/p_t were computed.
    double f_add = 0.0;
    uint32_t pt = 0;
    bool done = false;
  };
  const std::vector<QueryTerm> order =
      options.buffer_aware ? query.terms() : DfTermOrder(query, lexicon);
  std::vector<Candidate> terms;
  terms.reserve(order.size());
  for (const QueryTerm& qt : order) terms.push_back(Candidate{qt});

  double smax = 0.0;
  for (size_t round = 0; round < terms.size(); ++round) {
    // Brownout rung 1 caps the terms evaluated. DF puts the
    // highest-impact terms first and BAF the cheapest reads, so the cut
    // falls on the low-idf tail or on the most expensive lists.
    const bool over_budget = control != nullptr && control->max_terms > 0 &&
                             round >= control->max_terms;
    if (over_budget || DeadlinePassed(control)) {
      (over_budget ? result->work_trimmed : result->deadline_hit) = true;
      for (const Candidate& cand : terms) {
        if (cand.done) continue;
        const index::TermInfo& info = lexicon.info(cand.qt.term);
        result->quality_bound += DocTermWeight(info.fmax, info.idf) *
                                 QueryTermWeight(cand.qt.fq, info.idf);
      }
      break;
    }
    Candidate* next = &terms[round];
    if (options.buffer_aware) {
      uint32_t best_dt = 0;
      double best_idf = 0.0;
      next = nullptr;
      for (Candidate& cand : terms) {
        if (cand.done) continue;
        const index::TermInfo& info = lexicon.info(cand.qt.term);
        // f_add and p_t change only when Smax has changed since they were
        // last computed (the caching optimization of Section 3.2.2).
        if (cand.cached_smax != smax) {
          cand.f_add = ComputeThresholds(options.c_ins, options.c_add, smax,
                                         cand.qt.fq, info.idf)
                           .f_add;
          cand.pt = table.PagesToProcess(cand.qt.term, cand.f_add,
                                         info.pages, info.fmax);
          cand.cached_smax = smax;
        }
        const uint32_t bt = resident_pages(cand.qt.term);
        const uint32_t dt = cand.pt > bt ? cand.pt - bt : 0;
        if (next == nullptr || dt < best_dt ||
            (dt == best_dt &&
             (info.idf > best_idf ||
              (info.idf == best_idf && cand.qt.term < next->qt.term)))) {
          next = &cand;
          best_dt = dt;
          best_idf = info.idf;
        }
      }
    }
    next->done = true;
    Result<bool> live = step(next->qt, &smax);
    if (!live.ok()) return live.status();
    if (!live.value()) break;
  }
  return smax;
}

}  // namespace irbuf::core

#endif  // IRBUF_CORE_TERM_SCHEDULER_H_
