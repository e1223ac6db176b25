#include "core/boolean_evaluator.h"

#include <algorithm>
#include <unordered_map>

#include "core/scorer.h"

namespace irbuf::core {

Result<BooleanResult> BooleanEvaluator::Evaluate(
    const Query& query, BooleanOp op,
    buffer::BufferPool* buffers) const {
  BooleanResult result;
  if (query.empty()) return result;

  const buffer::QueryLease lease =
      buffers->BeginQuery(BuildQueryContext(query, index_->lexicon()));

  // doc -> number of distinct query terms containing it.
  std::unordered_map<DocId, uint32_t> matches;
  for (const QueryTerm& qt : query.terms()) {
    const index::TermInfo& info = index_->lexicon().info(qt.term);
    for (uint32_t page_no = 0; page_no < info.pages; ++page_no) {
      Result<buffer::PinnedPage> page =
          buffers->FetchPinned(PageId{qt.term, page_no});
      if (!page.ok()) return page.status();
      ++result.pages_processed;
      if (page.value().was_miss()) ++result.disk_reads;
      // Boolean matching ignores frequencies entirely, so the block's
      // doc_ids[] array is the whole working set.
      const storage::PostingBlock& block = page.value()->block;
      result.postings_processed += block.size();
      for (const DocId doc : block.doc_ids) ++matches[doc];
    }
  }

  const uint32_t needed =
      op == BooleanOp::kAnd ? static_cast<uint32_t>(query.size()) : 1;
  for (const auto& [doc, count] : matches) {
    if (count >= needed) result.docs.push_back(doc);
  }
  std::sort(result.docs.begin(), result.docs.end());

  return result;
}

}  // namespace irbuf::core
