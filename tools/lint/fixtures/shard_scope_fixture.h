// LINT-PATH: src/shard/shard_scope_fixture.h
// Fixture pinning the scope extension for the sharded-serving
// subsystem: src/shard/ is covered by the unguarded-mutex and
// raw-clock rules exactly like src/serve/ (the coordinator and lane
// threads are as concurrent as the server they feed).

#include <chrono>
#include <mutex>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace irbuf::shard {

class BadLanes {
 private:
  std::mutex raw_mu_;  // LINT-EXPECT: unguarded-mutex
  Mutex lonely_mu_;    // LINT-EXPECT: unguarded-mutex
};

class GoodLanes {
 private:
  mutable Mutex mu_;
  int pending_ IRBUF_GUARDED_BY(mu_) = 0;
  void DrainLocked() IRBUF_REQUIRES(mu_);
};

inline void BadClock() {
  auto t = std::chrono::steady_clock::now();  // LINT-EXPECT: raw-clock
  (void)t;
}

}  // namespace irbuf::shard
