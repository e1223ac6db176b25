// The query context handed to ranking-aware buffer replacement: the
// current query's term weights w_{q,t}. RAP's replacement value for a page
// is (highest w_{d,t} on the page) * w_{q,t} (Equation 6); terms absent
// from the current query have w_{q,t} = 0, so their pages are evicted
// first.

#ifndef IRBUF_BUFFER_QUERY_CONTEXT_H_
#define IRBUF_BUFFER_QUERY_CONTEXT_H_

#include <unordered_map>

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

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_QUERY_CONTEXT_H_
