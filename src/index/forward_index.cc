#include "index/forward_index.h"

#include <algorithm>

namespace irbuf::index {

Result<ForwardIndex> ForwardIndex::FromInvertedIndex(
    const InvertedIndex& index) {
  const uint32_t num_docs = index.num_docs();

  // Pass 1: per-document term counts -> CSR offsets.
  std::vector<size_t> counts(num_docs + 1, 0);
  storage::Page page;
  for (TermId t = 0; t < index.lexicon().size(); ++t) {
    for (uint32_t p = 0; p < index.lexicon().info(t).pages; ++p) {
      IRBUF_RETURN_NOT_OK(index.disk().ReadPage(PageId{t, p}, &page));
      for (const DocId doc : page.block.doc_ids) {
        ++counts[doc + 1];
      }
    }
  }
  std::vector<size_t> offsets(num_docs + 1, 0);
  for (uint32_t d = 0; d < num_docs; ++d) {
    offsets[d + 1] = offsets[d] + counts[d + 1];
  }

  // Pass 2: scatter entries into place.
  std::vector<ForwardPosting> entries(offsets[num_docs]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (TermId t = 0; t < index.lexicon().size(); ++t) {
    for (uint32_t p = 0; p < index.lexicon().info(t).pages; ++p) {
      IRBUF_RETURN_NOT_OK(index.disk().ReadPage(PageId{t, p}, &page));
      const storage::PostingBlock& block = page.block;
      for (const storage::PostingRun& run : block.runs) {
        for (uint32_t i = run.begin; i < run.end; ++i) {
          entries[cursor[block.doc_ids[i]]++] = ForwardPosting{t, run.freq};
        }
      }
    }
  }
  // Term ids arrive in ascending order (lists are scanned t = 0, 1, ...),
  // so each document's slice is already sorted by term.
  return ForwardIndex(std::move(offsets), std::move(entries));
}

}  // namespace irbuf::index
