// Shared infrastructure for the reproduction benches: corpus caching,
// experiment headers, and the (algorithm x policy) configuration matrix
// of the paper's Figures 5-8.

#ifndef IRBUF_BENCH_BENCH_UTIL_H_
#define IRBUF_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus_io.h"
#include "corpus/synthetic_corpus.h"
#include "ir/experiment.h"
#include "obs/json.h"

namespace irbuf::bench {

/// The corpus every bench shares: scale from IRBUF_SCALE (default 1.0 =
/// the paper's full WSJ profile), cached under IRBUF_CACHE_DIR (default
/// ./irbuf_cache) so only the first bench binary pays generation cost.
const corpus::SyntheticCorpus& GetCorpus();

/// The with-stop-words corpus of the Section 5.1.1 footnote.
const corpus::SyntheticCorpus& GetStopwordCorpus();

/// The scale the shared corpus was built at.
double CorpusScale();

/// Prints the standard experiment banner.
void PrintHeader(const std::string& experiment, const std::string& claim);

/// One (algorithm, policy) combination of the paper's figures.
struct Combo {
  bool buffer_aware;
  buffer::PolicyKind policy;
  std::string label;  // e.g. "DF/LRU".
};

/// The six combinations of Figures 5-8, in the paper's legend order.
std::vector<Combo> PaperCombos();

/// Sequence-run options for a combo at a buffer size.
ir::SequenceRunOptions ComboOptions(const Combo& combo, size_t pages);

/// Evenly spread buffer sizes from 1 to `max_pages` (inclusive),
/// `points` of them — the x-axis of Figures 5-8.
std::vector<size_t> BufferSizeAxis(size_t max_pages, size_t points);

/// "76.5%" formatting for savings relative to a baseline.
std::string Percent(double fraction);

/// Savings of `value` relative to `baseline` (1 - value/baseline).
double SavingsVs(uint64_t value, uint64_t baseline);

// --- Machine-readable bench output -----------------------------------
//
// Every bench keeps its human-readable tables, but ALSO appends one JSON
// object per run — the same schema as the obs telemetry export — to
// bench_results/<bench>.telemetry.json via TelemetryFile. Downstream
// tooling parses the JSON; the printf tables are presentation only and
// free to drift.

/// Directory machine-readable output lands in (IRBUF_RESULTS_DIR,
/// default ./bench_results), created on demand.
std::string ResultsDir();

/// Version of the telemetry-file envelope, carried in every file as
/// "schema_version" so a reader can reject format drift instead of
/// silently misreading it. History:
///   3 — serve cells gained the async-miss-pipeline fields
///       "prefetch_depth", "prefetch_issued", "prefetch_used",
///       "prefetch_wasted", "coalesced_misses" and "device_reads"
///       (demand misses + readahead reads).
///   2 — schema_version field added; serve runs gained "instrumented",
///       "attribution", "mutex_waits", "latch_wait_share".
///   1 — implicit: {"bench","scale","runs":[...]} without a version.
inline constexpr uint64_t kTelemetrySchemaVersion = 3;

/// One run of one configuration — the shared schema all benches emit.
struct RunRecord {
  std::string label;            // e.g. "DF/LRU" or a scenario name
  std::string policy;           // replacement policy name
  bool buffer_aware = false;    // false = DF, true = BAF
  size_t buffer_pages = 0;
  uint64_t disk_reads = 0;
  uint64_t postings_processed = 0;
  uint64_t accumulators = 0;    // max over the run's steps
  double mean_avg_precision = 0.0;
  /// Optional pre-rendered JSON object spliced in under "detail"
  /// (e.g. ir::SequenceTelemetryJson output). Empty = omitted.
  std::string detail_json;
};

/// Fills a RunRecord from a sequence run under `options`.
RunRecord MakeRunRecord(const std::string& label,
                        const ir::SequenceRunOptions& options,
                        const ir::SequenceRunResult& result);

/// Renders `record` as one JSON object (shared schema).
std::string RunRecordJson(const RunRecord& record);

/// Collects run records for one bench binary and writes
/// `<ResultsDir()>/<bench>.telemetry.json` on Close (or destruction):
/// {"bench":...,"scale":...,"runs":[...]}.
class TelemetryFile {
 public:
  explicit TelemetryFile(std::string bench);
  ~TelemetryFile();

  TelemetryFile(const TelemetryFile&) = delete;
  TelemetryFile& operator=(const TelemetryFile&) = delete;

  void Add(const RunRecord& record);
  /// Appends a pre-rendered JSON object to the run list.
  void AddRaw(std::string json_object);

  /// Writes the file; returns false (and warns on stderr) on I/O error.
  /// Idempotent; the destructor calls it if the caller did not.
  bool Close();

 private:
  std::string bench_;
  std::vector<std::string> runs_;
  bool closed_ = false;
};

}  // namespace irbuf::bench

#endif  // IRBUF_BENCH_BENCH_UTIL_H_
