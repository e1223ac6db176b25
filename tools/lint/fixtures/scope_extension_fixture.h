// LINT-PATH: tools/analyze/fixtures/scope_sample.h
// Scope-extension fixture: proves the widened rule scopes fire on the
// tools/ fixture corpora (unguarded-mutex, raw-clock, raw-sleep). Each
// marked line must be flagged by --self-test; in a tree run the
// LINT-EXPECT markers subtract them, so the corpus stays green while
// the scopes stay provably live.

#include <chrono>
#include <mutex>
#include <thread>

namespace irbuf::fixture {

class ScopeSample {
 public:
  void RawClockInToolsScope() {
    last_ns_ = std::chrono::steady_clock::now()  // LINT-EXPECT: raw-clock
                   .time_since_epoch()
                   .count();
  }

  void RawSleepInToolsScope() {
    std::this_thread::sleep_for(  // LINT-EXPECT: raw-sleep
        std::chrono::milliseconds(1));
  }

 private:
  long last_ns_ = 0;
  std::mutex mu_;  // LINT-EXPECT: unguarded-mutex
};

}  // namespace irbuf::fixture
