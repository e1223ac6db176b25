// Fixture: check 5 (hot-alloc-ast). Inside LINT-HOT-LOOP regions no
// statement may allocate: no new-expressions, no allocating-container
// construction, no allocating calls — directly or through a callee.
// Callees annotated `irbuf-analyzer: amortized-alloc` are trusted to
// keep per-call cost O(1) amortized (doubling growth) and stay legal.

#include <vector>

class Accumulators {
 public:
  int FindOrInsert(int doc) {
    if (size_ + 1 > capacity_) Grow();
    ++size_;
    return doc;
  }

 private:
  // Doubling growth — O(1) amortized per insert.
  // irbuf-analyzer: amortized-alloc
  void Grow() {
    table_.resize(capacity_ == 0 ? 16 : capacity_ * 2);
    capacity_ = table_.size();
  }

  std::vector<int> table_;
  int size_ = 0;
  int capacity_ = 0;
};

class Evaluator {
 public:
  long ScanPostings(std::vector<int>& docs, int n) {
    Accumulators acc;
    long total = 0;
    // LINT-HOT-LOOP: fixture posting scan.
    for (int i = 0; i < n; ++i) {
      total += acc.FindOrInsert(i);
      docs.push_back(i);  // ANALYZE-EXPECT: hot-alloc-ast
      int* boxed = new int(i);  // ANALYZE-EXPECT: hot-alloc-ast
      total += *boxed;
      Record(i);  // ANALYZE-EXPECT: hot-alloc-ast
      std::vector<int> scratch;  // ANALYZE-EXPECT: hot-alloc-ast
      total += static_cast<long>(scratch.size());
    }
    // LINT-HOT-LOOP-END
    return total;
  }

  // Negative: the same statements outside the region are fine.
  long ColdPath(std::vector<int>& docs, int n) {
    long total = 0;
    for (int i = 0; i < n; ++i) {
      docs.push_back(i);
      Record(i);
    }
    return total;
  }

  // Negative: arithmetic-only hot loop stays clean.
  long GoodHotLoop(const std::vector<int>& docs) {
    long total = 0;
    // LINT-HOT-LOOP: fixture clean scan.
    for (int i = 0; i < static_cast<int>(docs.size()); ++i) {
      total += docs[i];
    }
    // LINT-HOT-LOOP-END
    return total;
  }

 private:
  void Record(int v) { log_.push_back(v); }

  std::vector<int> log_;
};
