#include "buffer/rap_policy.h"

#include <algorithm>
#include <bit>

namespace irbuf::buffer {

void RapPolicy::Attach(const FrameDirectory* directory) {
  ReplacementPolicy::Attach(directory);
  const size_t capacity = directory->capacity();
  frames_.assign(capacity, Frame{});
  // The per-term vectors are not reserved: they grow to the most terms
  // ever resident at once (at most capacity, usually far fewer) and then
  // stop allocating. Reserving capacity up front cost RSS on large pools.
  const size_t buckets = std::bit_ceil(2 * capacity);  // Load <= 1/2.
  table_.assign(buckets, kNone);
  shift_ = 64 - std::countr_zero(buckets);
}

void RapPolicy::OnInsert(FrameId frame) {
  const FrameMeta& meta = directory_->Meta(frame);
  uint32_t slot = table_[Probe(meta.page.term)];
  if (slot == kNone) slot = AddTerm(meta.page.term);
  Frame& f = frames_[frame];
  f.max_weight = meta.max_weight;
  f.page_no = meta.page.page_no;
  f.term = slot;
  Link(frame, terms_[slot]);
  Rekey(slot);
}

void RapPolicy::OnEvict(FrameId frame) {
  const uint32_t slot = frames_[frame].term;
  Term& term = terms_[slot];
  Unlink(frame, term);
  if (term.head == kInvalidFrame) {
    DropTerm(slot);
  } else {
    Rekey(slot);
  }
}

double RapPolicy::ValueOf(FrameId frame) const {
  const FrameMeta& meta = directory_->Meta(frame);
  double wq = context_ == nullptr ? 0.0 : context_->WeightOf(meta.page.term);
  return meta.max_weight * wq;
}

FrameId RapPolicy::ChooseVictim() {
  if (context_stale_) Refresh();
  return heap_.empty() ? kInvalidFrame : terms_[heap_.front()].candidate;
}

void RapPolicy::Reset() {
  terms_.clear();
  free_terms_.clear();
  heap_.clear();
  weighted_.clear();
  std::fill(table_.begin(), table_.end(), kNone);
}

size_t RapPolicy::Home(TermId term) const {
  return (uint64_t{term} * 0x9E3779B97F4A7C15ull) >> shift_;
}

size_t RapPolicy::Probe(TermId term) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = Home(term);; i = (i + 1) & mask) {
    if (table_[i] == kNone || terms_[table_[i]].term == term) return i;
  }
}

uint32_t RapPolicy::AddTerm(TermId term) {
  uint32_t slot;
  if (free_terms_.empty()) {
    slot = static_cast<uint32_t>(terms_.size());
    terms_.emplace_back();
  } else {
    slot = free_terms_.back();
    free_terms_.pop_back();
    terms_[slot] = Term{};
  }
  terms_[slot].term = term;
  table_[Probe(term)] = slot;
  heap_.push_back(slot);
  terms_[slot].heap_pos = static_cast<uint32_t>(heap_.size() - 1);
  SetWeight(slot, context_ == nullptr ? 0.0 : context_->WeightOf(term));
  return slot;
}

void RapPolicy::DropTerm(uint32_t slot) {
  const uint32_t pos = terms_[slot].heap_pos;
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (last != slot) {
    Place(pos, last);
    Fix(pos);
  }
  const uint32_t weighted_pos = terms_[slot].weighted_pos;
  if (weighted_pos != kNone) {
    weighted_[weighted_pos] = weighted_.back();
    terms_[weighted_.back()].weighted_pos = weighted_pos;
    weighted_.pop_back();
  }
  // Backward-shift deletion: pull later entries of the probe run into
  // the hole unless that would move one before its home bucket.
  const size_t mask = table_.size() - 1;
  size_t hole = Probe(terms_[slot].term);
  for (size_t i = (hole + 1) & mask; table_[i] != kNone; i = (i + 1) & mask) {
    const size_t home = Home(terms_[table_[i]].term);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
  }
  table_[hole] = kNone;
  free_terms_.push_back(slot);
}

void RapPolicy::SetWeight(uint32_t slot, double weight) {
  Term& term = terms_[slot];
  term.weight = weight;
  if (weight != 0.0 && term.weighted_pos == kNone) {
    term.weighted_pos = static_cast<uint32_t>(weighted_.size());
    weighted_.push_back(slot);
  }
}

bool RapPolicy::OutOfOrder(FrameId higher, FrameId lower) const {
  return higher != kInvalidFrame && lower != kInvalidFrame &&
         frames_[lower].max_weight < frames_[higher].max_weight;
}

void RapPolicy::Link(FrameId frame, Term& term) {
  // Lists are read head first, so a new page is usually the new head.
  Frame& f = frames_[frame];
  FrameId higher = kInvalidFrame;
  FrameId lower = term.head;
  while (lower != kInvalidFrame && frames_[lower].page_no > f.page_no) {
    higher = lower;
    lower = frames_[lower].lower;
  }
  term.inversions += OutOfOrder(higher, frame) + OutOfOrder(frame, lower);
  term.inversions -= OutOfOrder(higher, lower);
  f.higher = higher;
  f.lower = lower;
  (higher == kInvalidFrame ? term.head : frames_[higher].lower) = frame;
  if (lower != kInvalidFrame) frames_[lower].higher = frame;
}

void RapPolicy::Unlink(FrameId frame, Term& term) {
  const Frame& f = frames_[frame];
  term.inversions += OutOfOrder(f.higher, f.lower);
  term.inversions -= OutOfOrder(f.higher, frame) + OutOfOrder(frame, f.lower);
  (f.higher == kInvalidFrame ? term.head : frames_[f.higher].lower) = f.lower;
  if (f.lower != kInvalidFrame) frames_[f.lower].higher = f.higher;
}

void RapPolicy::Rekey(uint32_t slot) {
  Term& term = terms_[slot];
  FrameId best = term.head;
  double best_value = frames_[best].max_weight * term.weight;
  if (term.weight != 0.0 && !(term.weight > 0.0 && term.inversions == 0)) {
    // Walking down the page numbers, a page wins only on a strictly
    // smaller value: ties go to the higher page_no.
    for (FrameId f = frames_[best].lower; f != kInvalidFrame;
         f = frames_[f].lower) {
      const double value = frames_[f].max_weight * term.weight;
      if (value < best_value) {
        best = f;
        best_value = value;
      }
    }
  }
  term.candidate = best;
  term.candidate_page = frames_[best].page_no;
  term.value = best_value;
  Fix(term.heap_pos);
}

void RapPolicy::Refresh() {
  context_stale_ = false;
  // Only the terms the previous context weighted and the terms the new
  // one names can change weight; every key stays consistent with its
  // term's weight, so an unchanged weight keeps its key.
  previous_.swap(weighted_);
  for (uint32_t slot : previous_) terms_[slot].weighted_pos = kNone;
  if (context_ != nullptr) {
    for (const auto& [term, weight] : context_->weights()) {
      if (weight == 0.0) continue;
      const uint32_t slot = table_[Probe(term)];
      if (slot == kNone) continue;
      const bool changed = terms_[slot].weight != weight;
      SetWeight(slot, weight);
      if (changed) Rekey(slot);
    }
  }
  for (uint32_t slot : previous_) {
    if (terms_[slot].weighted_pos == kNone) {
      terms_[slot].weight = 0.0;
      Rekey(slot);
    }
  }
  previous_.clear();
}

bool RapPolicy::Before(uint32_t a, uint32_t b) const {
  const Term& x = terms_[a];
  const Term& y = terms_[b];
  if (x.value != y.value) return x.value < y.value;
  if (x.candidate_page != y.candidate_page) {
    return x.candidate_page > y.candidate_page;
  }
  return x.term > y.term;
}

void RapPolicy::Place(uint32_t pos, uint32_t slot) {
  heap_[pos] = slot;
  terms_[slot].heap_pos = pos;
}

void RapPolicy::Fix(uint32_t pos) {
  const uint32_t slot = heap_[pos];
  while (pos > 0 && Before(slot, heap_[(pos - 1) / 2])) {
    Place(pos, heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  for (uint32_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], slot)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, slot);
}

}  // namespace irbuf::buffer
