// Multi-user refinement workloads (the paper's Section 3.3 future-work
// sketch, implemented): several users run their refinement sequences
// concurrently over one shared buffer pool, interleaved round-robin.
//
// For ranking-aware replacement the paper outlines two options; both are
// supported here:
//  * per-query RAP (shared_context = off): the replacement value uses
//    only the query currently being evaluated, so other users' hot pages
//    look worthless;
//  * shared-context RAP (shared_context = on): the weights of all other
//    active queries are merged in (max w_{q,t} per term), so pages any
//    active user still values are retained.
//
// The paper also conjectures that "users may benefit from pages cached in
// buffers for other users" — measurable here by giving users overlapping
// topics.

#ifndef IRBUF_IR_MULTI_USER_H_
#define IRBUF_IR_MULTI_USER_H_

#include <cstdint>
#include <vector>

#include "buffer/policy_factory.h"
#include "index/inverted_index.h"
#include "util/status.h"
#include "workload/refinement.h"

namespace irbuf::ir {

/// Configuration of a multi-user run.
struct MultiUserOptions {
  size_t buffer_pages = 200;
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  /// false = DF, true = BAF for every user.
  bool buffer_aware = false;
  /// Merge the other users' query weights into the replacement context
  /// (only meaningful for ranking-aware policies).
  bool shared_context = false;
  double c_ins = 0.07;
  double c_add = 0.002;
  uint32_t top_n = 20;
};

/// Per-user measurements.
struct UserResult {
  uint64_t disk_reads = 0;
  uint64_t pages_processed = 0;
  size_t steps_run = 0;
};

/// Whole-run measurements.
struct MultiUserResult {
  std::vector<UserResult> users;
  uint64_t total_disk_reads = 0;
  uint64_t total_fetches = 0;
  uint64_t total_hits = 0;

  double HitRate() const {
    return total_fetches == 0
               ? 0.0
               : static_cast<double>(total_hits) /
                     static_cast<double>(total_fetches);
  }
};

/// Runs one refinement sequence per user over a single cold shared pool,
/// interleaving steps round-robin (user 0 step 0, user 1 step 0, ...,
/// user 0 step 1, ...). Users whose sequences are exhausted drop out;
/// with shared_context on, their last query stays leased on the pool.
Result<MultiUserResult> RunMultiUserWorkload(
    const index::InvertedIndex& index,
    const std::vector<workload::RefinementSequence>& sequences,
    const MultiUserOptions& options);

}  // namespace irbuf::ir

#endif  // IRBUF_IR_MULTI_USER_H_
