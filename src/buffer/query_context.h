// The query context handed to ranking-aware buffer replacement: the
// current query's term weights w_{q,t}. RAP's replacement value for a page
// is (highest w_{d,t} on the page) * w_{q,t} (Equation 6); terms absent
// from the current query have w_{q,t} = 0, so their pages are evicted
// first. LiveLeases keeps the contexts of every query leased on one pool
// and merges them.

#ifndef IRBUF_BUFFER_QUERY_CONTEXT_H_
#define IRBUF_BUFFER_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/types.h"

namespace irbuf::buffer {

/// Immutable-per-query mapping term -> w_{q,t}.
class QueryContext {
 public:
  QueryContext() = default;

  void SetWeight(TermId term, double weight) { weights_[term] = weight; }

  /// w_{q,t} of `term`; 0 when the term is not in the current query.
  double WeightOf(TermId term) const {
    auto it = weights_.find(term);
    return it == weights_.end() ? 0.0 : it->second;
  }

  /// Merges another query's weights keeping the maximum per term — the
  /// paper's first sketched multi-user extension ("if a term is shared by
  /// many queries, the highest w_{q,t} could be used", Section 3.3).
  void MergeMax(const QueryContext& other) {
    for (const auto& [term, w] : other.weights_) {
      auto [it, inserted] = weights_.emplace(term, w);
      if (!inserted && w > it->second) it->second = w;
    }
  }

  void Clear() { weights_.clear(); }
  size_t size() const { return weights_.size(); }

  /// Every term -> w_{q,t} entry, in unspecified order.
  const std::unordered_map<TermId, double>& weights() const {
    return weights_;
  }

 private:
  std::unordered_map<TermId, double> weights_;
};

/// The weights of the queries holding a lease on one pool
/// (BufferPool::BeginQuery), oldest first. Not thread-safe; each pool
/// guards its own.
class LiveLeases {
 public:
  /// Adds one query's weights; returns the new lease's id.
  uint64_t Add(std::shared_ptr<const QueryContext> weights) {
    live_.emplace_back(next_id_, std::move(weights));
    return next_id_++;
  }

  void Remove(uint64_t id) {
    std::erase_if(live_, [id](const auto& lease) { return lease.first == id; });
  }

  bool empty() const { return live_.empty(); }

  /// The max-merge (MergeMax) of every live lease's weights; the one
  /// live lease's own weights, uncopied; an empty context when none is
  /// live.
  std::shared_ptr<const QueryContext> Merged() const {
    if (live_.size() == 1) return live_.front().second;
    auto merged = std::make_shared<QueryContext>();
    for (const auto& [id, weights] : live_) merged->MergeMax(*weights);
    return merged;
  }

 private:
  uint64_t next_id_ = 1;
  std::vector<std::pair<uint64_t, std::shared_ptr<const QueryContext>>> live_;
};

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_QUERY_CONTEXT_H_
