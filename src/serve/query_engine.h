// The evaluation-engine seam of QueryServer: the server owns admission,
// sessions, deadlines and metrics; *how* a picked-up query turns into an
// EvalResult is behind this interface. The default engine is the
// server's built-in single-pool path (one ConcurrentBufferPool + one
// FilteringEvaluator); the doc-partitioned scatter-gather engine in
// src/shard/ is the other implementation. The seam points this way —
// serve/ defines the interface, shard/ implements it — because the
// shard engine is built from serve/ parts (one ConcurrentBufferPool per
// shard), so the reverse dependency would be circular.

#ifndef IRBUF_SERVE_QUERY_ENGINE_H_
#define IRBUF_SERVE_QUERY_ENGINE_H_

#include <cstdint>

#include "buffer/buffer_pool.h"
#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "util/status.h"

namespace irbuf::serve {

/// Evaluates one query end to end on behalf of a QueryServer worker.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Evaluates `query`. `control` carries the per-query deadline (may be
  /// null); `query_id` is the server-unique id the engine should tag any
  /// spans it records with (so cross-thread work is attributed to the
  /// query on the trace timeline). Must be safe to call from multiple
  /// worker threads at once. The engine's evaluators lease each
  /// query's weights on the engine's own pools; the server registers
  /// nothing.
  virtual Result<core::EvalResult> Evaluate(
      const core::Query& query, const core::EvalControl* control,
      uint32_t query_id) = 0;

  /// Aggregate buffer statistics over every pool the engine owns.
  virtual buffer::BufferStats PoolStats() const = 0;
};

}  // namespace irbuf::serve

#endif  // IRBUF_SERVE_QUERY_ENGINE_H_
