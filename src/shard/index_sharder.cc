#include "shard/index_sharder.h"

#include <memory>
#include <utility>

#include "storage/codec.h"

namespace irbuf::shard {

Result<ShardedIndex> ShardIndex(const index::InvertedIndex& source,
                                const ShardOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.page_size == 0) {
    return Status::InvalidArgument("shard page_size must be >= 1");
  }
  const uint32_t num_docs = source.num_docs();
  if (num_docs == 0) {
    return Status::InvalidArgument("cannot shard an empty collection");
  }
  const size_t num_shards = options.num_shards;

  ShardedIndex out;
  out.num_docs_ = num_docs;
  out.docs_per_shard_ = static_cast<uint32_t>(
      std::max<uint64_t>(1, (num_docs + num_shards - 1) / num_shards));
  out.global_lexicon_ = source.lexicon();
  out.global_table_ = source.conversion_table();
  out.order_ = source.order();

  // Every shard carries the full global norm vector: postings keep their
  // global doc ids (the merge needs them), and per-shard norms would
  // change the step-5 normalization.
  std::vector<double> norms(num_docs);
  for (DocId d = 0; d < num_docs; ++d) norms[d] = source.doc_norm(d);

  struct ShardBuild {
    index::Lexicon lexicon;
    std::unique_ptr<storage::SimulatedDisk> disk;
  };
  std::vector<ShardBuild> builds(num_shards);
  for (ShardBuild& build : builds) {
    build.lexicon = source.lexicon();
    build.disk = std::make_unique<storage::SimulatedDisk>();
  }

  const index::Lexicon& lexicon = source.lexicon();
  const storage::SimulatedDisk& disk = source.disk();
  storage::PostingBlock block;
  std::vector<std::vector<Posting>> buckets(num_shards);
  std::vector<Posting> page;
  for (TermId t = 0; t < lexicon.size(); ++t) {
    for (std::vector<Posting>& bucket : buckets) bucket.clear();
    const index::TermInfo& info = lexicon.info(t);
    // Doc-range filtering of a list preserves its physical order: the
    // decoded pages are split posting-by-posting, in order, into the
    // owning shard's bucket. PageImage leaves the source's read
    // counters untouched (sharding is not a workload).
    for (uint32_t page_no = 0; page_no < disk.NumPages(t); ++page_no) {
      Result<const std::vector<uint8_t>*> image =
          disk.PageImage(PageId{t, page_no});
      IRBUF_RETURN_NOT_OK(image.status());
      IRBUF_RETURN_NOT_OK(storage::DecodePostingsInto(*image.value(),
                                                      &block));
      for (const storage::PostingRun& run : block.runs) {
        for (uint32_t i = run.begin; i < run.end; ++i) {
          const DocId d = block.doc_ids[i];
          buckets[out.ShardOf(d)].push_back(Posting{d, run.freq});
        }
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<Posting>& postings = buckets[s];
      index::TermInfo& shard_info = builds[s].lexicon.mutable_info(t);
      // pages/fmax become shard-local; text, ft and idf stay global
      // (see the header's global-vs-local table).
      shard_info.pages = 0;
      shard_info.fmax = 0;
      for (const Posting& p : postings) {
        shard_info.fmax = std::max(shard_info.fmax, p.freq);
      }
      for (size_t i = 0; i < postings.size(); i += options.page_size) {
        const size_t end = std::min(postings.size(), i + options.page_size);
        page.assign(postings.begin() + static_cast<ptrdiff_t>(i),
                    postings.begin() + static_cast<ptrdiff_t>(end));
        uint32_t page_fmax = 0;
        for (const Posting& p : page) page_fmax = std::max(page_fmax, p.freq);
        // Same page metadata formula as IndexBuilder::FinalizeTerm, with
        // the same (global) idf — RAP values shard pages exactly as it
        // values the source's.
        const double max_weight = static_cast<double>(page_fmax) * info.idf;
        IRBUF_RETURN_NOT_OK(builds[s].disk->AppendPage(t, page, max_weight));
        ++shard_info.pages;
      }
    }
  }

  out.shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    out.shards_.emplace_back(std::move(builds[s].lexicon),
                             std::move(builds[s].disk), out.global_table_,
                             norms, out.order_);
  }
  return out;
}

}  // namespace irbuf::shard
