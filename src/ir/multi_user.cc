#include "ir/multi_user.h"

#include <algorithm>

#include "buffer/buffer_manager.h"
#include "core/filtering_evaluator.h"
#include "core/scorer.h"

namespace irbuf::ir {

Result<MultiUserResult> RunMultiUserWorkload(
    const index::InvertedIndex& index,
    const std::vector<workload::RefinementSequence>& sequences,
    const MultiUserOptions& options) {
  core::EvalOptions eval;
  eval.c_ins = options.c_ins;
  eval.c_add = options.c_add;
  eval.top_n = options.top_n;
  eval.buffer_aware = options.buffer_aware;
  eval.record_trace = false;
  core::FilteringEvaluator evaluator(&index, eval);

  buffer::BufferManager buffers(&index.disk(), options.buffer_pages,
                                buffer::MakePolicy(options.policy));

  MultiUserResult result;
  result.users.resize(sequences.size());

  size_t max_steps = 0;
  for (const workload::RefinementSequence& seq : sequences) {
    max_steps = std::max(max_steps, seq.steps.size());
  }

  for (size_t step = 0; step < max_steps; ++step) {
    for (size_t user = 0; user < sequences.size(); ++user) {
      if (step >= sequences[user].steps.size()) continue;

      // The replacement context must keep valuing what *other* active
      // users are working with (max w_{q,t} per shared term): each holds
      // a lease on its current query, or on its last one once its
      // sequence is exhausted. A user with no steps has no query.
      std::vector<buffer::QueryLease> others;
      if (options.shared_context) {
        for (size_t other = 0; other < sequences.size(); ++other) {
          const std::vector<workload::RefinementStep>& other_steps =
              sequences[other].steps;
          if (other == user || other_steps.empty()) continue;
          const size_t other_step = std::min(step, other_steps.size() - 1);
          others.push_back(buffers.BeginQuery(core::BuildQueryContext(
              other_steps[other_step].query, index.lexicon())));
        }
      }

      const uint64_t misses_before = buffers.stats().misses;
      const uint64_t fetches_before = buffers.stats().fetches;
      Result<core::EvalResult> eval_result =
          evaluator.Evaluate(sequences[user].steps[step].query, &buffers);
      if (!eval_result.ok()) return eval_result.status();

      UserResult& ur = result.users[user];
      ur.disk_reads += buffers.stats().misses - misses_before;
      ur.pages_processed += buffers.stats().fetches - fetches_before;
      ++ur.steps_run;
    }
  }

  result.total_fetches = buffers.stats().fetches;
  result.total_hits = buffers.stats().hits;
  for (const UserResult& ur : result.users) {
    result.total_disk_reads += ur.disk_reads;
  }
  return result;
}

}  // namespace irbuf::ir
