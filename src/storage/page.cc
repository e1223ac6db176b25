#include "storage/page.h"

namespace irbuf::storage {

bool IsFrequencySorted(const std::vector<Posting>& postings) {
  for (size_t i = 1; i < postings.size(); ++i) {
    const Posting& prev = postings[i - 1];
    const Posting& cur = postings[i];
    if (cur.freq > prev.freq) return false;
    if (cur.freq == prev.freq && cur.doc <= prev.doc) return false;
  }
  return true;
}

bool IsFrequencySorted(const PostingBlock& block) {
  for (size_t r = 0; r < block.runs.size(); ++r) {
    const PostingRun& run = block.runs[r];
    if (r > 0) {
      // Same rule as the AoS overload at the run boundary: an image may
      // split one frequency over adjacent runs if doc ids keep rising.
      const uint32_t prev_freq = block.runs[r - 1].freq;
      if (run.freq > prev_freq) return false;
      if (run.freq == prev_freq &&
          block.doc_ids[run.begin] <= block.doc_ids[run.begin - 1]) {
        return false;
      }
    }
    for (uint32_t i = run.begin + 1; i < run.end; ++i) {
      if (block.doc_ids[i] <= block.doc_ids[i - 1]) return false;
    }
  }
  return true;
}

bool IsDocumentOrdered(const std::vector<Posting>& postings) {
  for (size_t i = 1; i < postings.size(); ++i) {
    if (postings[i].doc <= postings[i - 1].doc) return false;
  }
  return true;
}

bool IsDocumentOrdered(const PostingBlock& block) {
  for (size_t i = 1; i < block.doc_ids.size(); ++i) {
    if (block.doc_ids[i] <= block.doc_ids[i - 1]) return false;
  }
  return true;
}

}  // namespace irbuf::storage
