#include "buffer/buffer_manager.h"

#include <algorithm>

#include "buffer/contracts.h"
#include "util/str.h"

namespace irbuf::buffer {

BufferManager::BufferManager(const storage::SimulatedDisk* disk,
                             size_t capacity,
                             std::unique_ptr<ReplacementPolicy> policy)
    : disk_(disk), policy_(std::move(policy)) {
  if (capacity == 0) capacity = 1;
  frames_.resize(capacity);
  free_frames_.reserve(capacity);
  // Hand out low frame ids first (push high ids so they pop last).
  for (size_t i = capacity; i > 0; --i) {
    free_frames_.push_back(static_cast<FrameId>(i - 1));
  }
  term_resident_.assign(disk_->num_terms(), 0);
  policy_->Attach(this);
}

Result<PinnedPage> BufferManager::FetchPinned(PageId id) {
  bool was_miss = false;
  FrameId frame = kInvalidFrame;
  Result<const storage::Page*> page = FetchInternal(id, &was_miss, &frame);
  if (!page.ok()) return page.status();
  ++frames_[frame].pins;
  return PinnedPage(this, page.value(), frame, was_miss);
}

void BufferManager::Unpin(uint32_t frame) {
  // Tolerates pins == 0 (no DCHECK): Flush() documents that it discards
  // outstanding pins, so a stale guard's release after a flush is a
  // legal no-op here. The concurrent pool has no Flush and checks
  // strictly.
  if (frame < frames_.size() && frames_[frame].pins > 0) {
    --frames_[frame].pins;
  }
}

uint32_t BufferManager::PinCount(PageId id) const {
  auto it = page_table_.find(id.Pack());
  return it == page_table_.end() ? 0 : frames_[it->second].pins;
}

FrameId BufferManager::PickVictim() {
  const FrameId chosen = policy_->ChooseVictim();
  if (chosen < frames_.size() && frames_[chosen].meta.occupied &&
      frames_[chosen].pins == 0) {
    return chosen;
  }
  if (chosen >= frames_.size() || !frames_[chosen].meta.occupied) {
    return kInvalidFrame;  // Policy bug; caller reports it.
  }
  // The policy's choice is pinned. Pins are short (one page per reader),
  // so fall back to the oldest-inserted unpinned frame; exact policy
  // order resumes once the pins drain.
  FrameId fallback = kInvalidFrame;
  for (FrameId f = 0; f < frames_.size(); ++f) {
    if (!frames_[f].meta.occupied || frames_[f].pins > 0) continue;
    if (fallback == kInvalidFrame ||
        frames_[f].insert_tick < frames_[fallback].insert_tick) {
      fallback = f;
    }
  }
  if (fallback != kInvalidFrame && metrics_.victim_fallbacks != nullptr) {
    metrics_.victim_fallbacks->Add(1);
  }
  return fallback;
}

Result<const storage::Page*> BufferManager::FetchInternal(
    PageId id, bool* was_miss, FrameId* frame_out) {
  ++stats_.fetches;
  ++fetch_tick_;
  auto it = page_table_.find(id.Pack());
  if (it != page_table_.end()) {
    ++stats_.hits;
    *was_miss = false;
    *frame_out = it->second;
    if (metrics_.fetches != nullptr) {
      metrics_.fetches->Add(1);
      metrics_.hits->Add(1);
    }
    if (tracer_ != nullptr) tracer_->Fetch(id.term, id.page_no, true);
    policy_->OnHit(it->second);
    return static_cast<const storage::Page*>(&frames_[it->second].page);
  }

  ++stats_.misses;
  *was_miss = true;
  if (metrics_.fetches != nullptr) {
    metrics_.fetches->Add(1);
    metrics_.misses->Add(1);
  }
  if (tracer_ != nullptr) tracer_->Fetch(id.term, id.page_no, false);
  FrameId frame;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    frame = PickVictim();
    if (frame == kInvalidFrame) {
      if (std::all_of(frames_.begin(), frames_.end(),
                      [](const Frame& f) { return f.pins > 0; })) {
        return Status::ResourceExhausted(StrFormat(
            "all %zu frames pinned; pool capacity must exceed the number "
            "of concurrently pinned pages",
            frames_.size()));
      }
      return Status::Internal(
          StrFormat("policy %s chose invalid victim frame", policy_->name()));
    }
    contracts::CheckVictimEvictable(frames_[frame].meta.occupied,
                                    frames_[frame].pins);
    // OnEvict runs while the victim's metadata is still readable.
    policy_->OnEvict(frame);
    const PageId victim_page = frames_[frame].meta.page;
    // Victim metadata is observed before the frame is recycled; the
    // replacement value is RAP's Equation 6 under the effective context.
    if (tracer_ != nullptr) {
      const double max_weight = frames_[frame].meta.max_weight;
      tracer_->Evict(victim_page.term, victim_page.page_no, max_weight,
                     max_weight * context_->WeightOf(victim_page.term),
                     fetch_tick_ - frames_[frame].insert_tick);
    }
    page_table_.erase(victim_page.Pack());
    if (victim_page.term < term_resident_.size()) {
      --term_resident_[victim_page.term];
    }
    frames_[frame].meta.occupied = false;
    ++stats_.evictions;
    if (metrics_.evictions != nullptr) metrics_.evictions->Add(1);
  }

  // The disk decodes straight into the frame's page: the frame caches
  // the decoded PostingBlock (hits hand evaluators the block with zero
  // decode work) and its buffers are recycled across evictions, so a
  // warmed pool's miss path performs no allocation either.
  Frame& f = frames_[frame];
  Status read_status;
  if (resilient_ != nullptr) {
    fault::ReadOutcome outcome;
    read_status = resilient_->Read(
        id, [&] { return disk_->ReadPage(id, &f.page); }, &outcome);
    if (tracer_ != nullptr) {
      if (outcome.rejected_by_breaker) {
        tracer_->Breaker(id.term, id.page_no, "rejected");
      } else if (outcome.attempts > 1) {
        tracer_->Retry(id.term, id.page_no, outcome.attempts,
                       read_status.ok());
      }
    }
  } else {
    read_status = disk_->ReadPage(id, &f.page);
  }
  if (!read_status.ok()) {
    // The frame was reserved (popped or evicted) before the read; give
    // it back so a lost page costs no pool capacity.
    free_frames_.push_back(frame);
    return read_status;
  }
  f.meta.page = id;
  f.meta.max_weight = f.page.max_weight;
  f.meta.occupied = true;
  f.insert_tick = fetch_tick_;
  page_table_.emplace(id.Pack(), frame);
  if (id.term < term_resident_.size()) ++term_resident_[id.term];
  policy_->OnInsert(frame);
  *frame_out = frame;
  contracts::CheckStatsConservation(stats_.fetches, stats_.hits,
                                    stats_.misses);
  return static_cast<const storage::Page*>(&f.page);
}

void BufferManager::SetResilience(const fault::ResilienceOptions& options) {
  resilient_ = std::make_unique<fault::ResilientReader>(options);
  if (registry_ != nullptr) resilient_->BindMetrics(registry_);
}

void BufferManager::BindMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (resilient_ != nullptr) resilient_->BindMetrics(registry);
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.fetches =
      registry->AddCounter("buffer.fetches", "pages requested of the pool");
  metrics_.hits = registry->AddCounter("buffer.hits", "buffer-resident hits");
  metrics_.misses =
      registry->AddCounter("buffer.misses", "fetches that went to disk");
  metrics_.evictions =
      registry->AddCounter("buffer.evictions", "pages pushed out of the pool");
  metrics_.victim_fallbacks = registry->AddCounter(
      "buffer.victim_fallbacks",
      "evictions of the oldest unpinned frame because the policy's victim "
      "was pinned");
}

QueryLease BufferManager::BeginQuery(QueryContext weights) {
  auto context = std::make_shared<const QueryContext>(std::move(weights));
  const uint64_t id = leases_.Add(std::move(context));
  PublishLeases();
  return QueryLease(this, id);
}

void BufferManager::EndQuery(uint64_t id) {
  leases_.Remove(id);
  PublishLeases();
}

void BufferManager::PublishLeases() {
  context_ = leases_.Merged();
  policy_->SetQueryContext(context_.get());
}

void BufferManager::Flush() {
  page_table_.clear();
  free_frames_.clear();
  for (size_t i = frames_.size(); i > 0; --i) {
    frames_[i - 1].meta.occupied = false;
    frames_[i - 1].pins = 0;
    free_frames_.push_back(static_cast<FrameId>(i - 1));
  }
  term_resident_.assign(term_resident_.size(), 0);
  policy_->Reset();
}

std::vector<PageId> BufferManager::ResidentPageIds() const {
  std::vector<PageId> out;
  out.reserve(page_table_.size());
  for (const Frame& f : frames_) {
    if (f.meta.occupied) out.push_back(f.meta.page);
  }
  return out;
}

}  // namespace irbuf::buffer
