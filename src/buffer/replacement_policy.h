// The replacement-policy strategy interface. The buffer manager owns the
// frames; policies see frame ids plus read-only frame metadata through
// FrameDirectory and decide victims. RAP additionally receives the current
// query context.

#ifndef IRBUF_BUFFER_REPLACEMENT_POLICY_H_
#define IRBUF_BUFFER_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <limits>

#include "buffer/query_context.h"
#include "storage/types.h"

namespace irbuf::buffer {

using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame =
    std::numeric_limits<FrameId>::max();

/// Read-only metadata of one buffer frame.
struct FrameMeta {
  PageId page;
  /// The page's stored max_d w_{d,t} (RAP's data-side value input).
  double max_weight = 0.0;
  bool occupied = false;
};

/// Read-only view over the buffer pool's frame table.
class FrameDirectory {
 public:
  virtual ~FrameDirectory() = default;
  virtual const FrameMeta& Meta(FrameId frame) const = 0;
  virtual size_t capacity() const = 0;
};

/// Strategy deciding which resident page to evict.
///
/// Lifecycle: Attach() once, then any interleaving of OnInsert/OnHit and
/// ChooseVictim/OnEvict. The buffer manager calls ChooseVictim only when
/// the pool is full, then OnEvict on the chosen frame *before* clearing
/// its metadata, so policies may still inspect Meta(victim) in OnEvict.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual const char* name() const = 0;

  /// Binds the policy to a pool. Called once before any other method.
  virtual void Attach(const FrameDirectory* directory) {
    directory_ = directory;
  }

  /// A page was just placed in `frame` (after a miss).
  virtual void OnInsert(FrameId frame) = 0;

  /// The page in `frame` was referenced again (a hit).
  virtual void OnHit(FrameId frame) = 0;

  /// The page in `frame` is being evicted.
  virtual void OnEvict(FrameId frame) = 0;

  /// Picks the frame to evict. The pool is full when this is called.
  virtual FrameId ChooseVictim() = 0;

  /// The pool's replacement context changed (a query lease began or
  /// ended): ranking-aware policies may use its weights. The pointee
  /// stays valid until the next call. Default: ignored.
  virtual void SetQueryContext(const QueryContext* context) {
    (void)context;
  }

  /// Drops all internal state (buffer flush).
  virtual void Reset() = 0;

 protected:
  const FrameDirectory* directory_ = nullptr;
};

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_REPLACEMENT_POLICY_H_
