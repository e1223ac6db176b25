#include "storage/simulated_disk.h"

#include "storage/crc32c.h"
#include "util/str.h"

namespace irbuf::storage {

Status SimulatedDisk::AppendPage(TermId term,
                                 const std::vector<Posting>& postings,
                                 double max_weight) {
  if (postings.empty()) {
    return Status::InvalidArgument("cannot append an empty page");
  }
  // Pages must follow one of the two supported physical orders.
  if (!IsFrequencySorted(postings) && !IsDocumentOrdered(postings)) {
    return Status::InvalidArgument(
        StrFormat("page for term %u is neither frequency-sorted nor "
                  "document-ordered",
                  term));
  }
  if (term >= files_.size()) files_.resize(term + 1);
  EncodedPage page;
  page.image = EncodePostings(postings);
  page.max_weight = max_weight;
  page.crc = Crc32c(page.image);
  compressed_bytes_ += page.image.size();
  total_postings_ += postings.size();
  ++total_pages_;
  files_[term].push_back(std::move(page));
  return Status::OK();
}

Status SimulatedDisk::AppendEncodedPage(TermId term,
                                        std::vector<uint8_t> image,
                                        double max_weight) {
  // The read path's decoder, into one block reused across the load.
  IRBUF_RETURN_NOT_OK(DecodePostingsInto(image, &load_block_));
  if (load_block_.empty()) {
    return Status::InvalidArgument("encoded page holds no postings");
  }
  if (!IsFrequencySorted(load_block_) && !IsDocumentOrdered(load_block_)) {
    return Status::InvalidArgument(
        StrFormat("encoded page for term %u is neither frequency-sorted "
                  "nor document-ordered",
                  term));
  }
  if (term >= files_.size()) files_.resize(term + 1);
  EncodedPage page;
  compressed_bytes_ += image.size();
  total_postings_ += load_block_.size();
  ++total_pages_;
  page.image = std::move(image);
  page.max_weight = max_weight;
  page.crc = Crc32c(page.image);
  files_[term].push_back(std::move(page));
  return Status::OK();
}

Result<const std::vector<uint8_t>*> SimulatedDisk::PageImage(
    PageId id) const {
  if (id.term >= files_.size() || id.page_no >= files_[id.term].size()) {
    return Status::NotFound(
        StrFormat("no page %u in inverted list of term %u", id.page_no,
                  id.term));
  }
  return &files_[id.term][id.page_no].image;
}

Status SimulatedDisk::BeginRead(PageId id, PageReadOp* op) const {
  op->latency_multiplier = 1.0;
  if (id.term >= files_.size() || id.page_no >= files_[id.term].size()) {
    return Status::NotFound(
        StrFormat("no page %u in inverted list of term %u", id.page_no,
                  id.term));
  }
  const EncodedPage& stored = files_[id.term][id.page_no];
  fault::FaultDecision fate;
  if (injector_ != nullptr) {
    fate = injector_->Consult(id);
    op->latency_multiplier = fate.latency_multiplier;
    if (fate.outcome == fault::FaultDecision::Outcome::kPermanent) {
      return Status::IOError(
          StrFormat("bad page: term %u page %u failed media", id.term,
                    id.page_no));
    }
    if (fate.outcome == fault::FaultDecision::Outcome::kTransient) {
      return Status::Unavailable(
          StrFormat("transient read error on term %u page %u", id.term,
                    id.page_no));
    }
  }
  op->image = &stored.image;
  op->stored_crc = stored.crc;
  op->max_weight = stored.max_weight;
  if (fate.outcome == fault::FaultDecision::Outcome::kBitFlip &&
      !stored.image.empty()) {
    // Corrupt a copy, never the stored image: a bit flipped in flight
    // clears on retry, which is what makes kCorrupted retryable.
    op->flipped = stored.image;
    const uint64_t bit = fate.flip_bit % (op->flipped.size() * 8);
    op->flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    op->image = &op->flipped;
  }
  return Status::OK();
}

Status SimulatedDisk::FinishRead(PageId id, const PageReadOp& op,
                                 Page* out) const {
  const std::vector<uint8_t>& image = *op.image;
  uint32_t crc;
  {
    obs::ScopedSpan crc_span(span_recorder_, obs::SpanStage::kCrcVerify,
                             id.term);
    crc = Crc32c(image);
  }
  if (crc != op.stored_crc) {
    return Status::Corrupted(
        StrFormat("checksum mismatch on term %u page %u: stored %08x, "
                  "computed %08x",
                  id.term, id.page_no, op.stored_crc, crc));
  }
  // Block decode straight into the caller's page: the buffer pool hands
  // us its frame's Page, so the block's buffers are reused across the
  // frame's lifetime and steady-state decode allocates nothing.
  {
    obs::ScopedSpan decode_span(span_recorder_, obs::SpanStage::kBlockDecode,
                                id.term);
    IRBUF_RETURN_NOT_OK(DecodePostingsInto(image, &out->block));
  }
  out->id = id;
  out->max_weight = op.max_weight;
  reads_.fetch_add(1, std::memory_order_relaxed);
  postings_decoded_.fetch_add(out->block.size(),
                              std::memory_order_relaxed);
  bytes_read_.fetch_add(image.size(), std::memory_order_relaxed);
  if (metrics_.reads != nullptr) {
    metrics_.reads->Add(1);
    metrics_.postings_decoded->Add(out->block.size());
    metrics_.bytes_read->Add(image.size());
    metrics_.postings_per_page->Observe(
        static_cast<double>(out->block.size()));
  }
  return Status::OK();
}

Status SimulatedDisk::ReadPage(PageId id, Page* out,
                               double* latency_multiplier) const {
  PageReadOp op;
  const Status begun = BeginRead(id, &op);
  if (latency_multiplier != nullptr) {
    *latency_multiplier = op.latency_multiplier;
  }
  IRBUF_RETURN_NOT_OK(begun);
  return FinishRead(id, op, out);
}

void SimulatedDisk::BindMetrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.reads =
      registry->AddCounter("disk.reads", "pages read (decoded) from disk");
  metrics_.postings_decoded = registry->AddCounter(
      "disk.postings_decoded", "postings decompressed by reads");
  metrics_.bytes_read = registry->AddCounter(
      "disk.bytes_read", "compressed bytes moved by reads");
  metrics_.postings_per_page = registry->AddHistogram(
      "disk.postings_per_page", {32.0, 64.0, 128.0, 256.0, 404.0, 512.0},
      "postings per decoded page");
}

double SimulatedDisk::PageMaxWeight(PageId id) const {
  if (id.term >= files_.size() || id.page_no >= files_[id.term].size()) {
    return 0.0;
  }
  return files_[id.term][id.page_no].max_weight;
}

}  // namespace irbuf::storage
