// LINT-PATH: src/fault/scope_sample.cc
// Scope-extension fixture: src/fault/ is in the raw-clock scope — the
// fault layer sits on the read path, so a clock read that forks the
// retry/backoff timebase is just as wrong there as in serve/.

namespace irbuf::fault_fixture {

class Reader {
 public:
  long ForksTheTimebase() {
    return std::chrono::steady_clock::now()  // LINT-EXPECT: raw-clock
        .time_since_epoch()
        .count();
  }
};

}  // namespace irbuf::fault_fixture
