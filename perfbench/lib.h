#ifndef THETIS_PERFBENCH_LIB_H_
#define THETIS_PERFBENCH_LIB_H_

// Helpers of the repository benchmark (perfbench/main.cc): percentiles with
// a sample-count rule, the open-loop rate ladder and backlog check, the
// replay of a served write log into each epoch's exact content, the
// exactness gate, and the in-memory span recorder of traced runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/search_engine.h"
#include "core/tombstones.h"
#include "table/corpus.h"
#include "table/table.h"

namespace thetis::perfbench {

// ---------------------------------------------------------------- samples

// The p-quantile (0 < p < 1) of `values` by nearest rank, or nullopt when
// fewer than 10 samples lie strictly above the chosen rank: a percentile is
// only reported when the sample supports it.
std::optional<double> Percentile(std::vector<double> values, double p);

// The median, over consecutive slices of `slice` samples of `ordered` (in
// arrival order; a partial last slice is dropped), of each slice's
// p-quantile by Percentile. Robust to a host that runs slow for a part of
// the window: it reads the percentile of a typical slice. nullopt when no
// slice is complete or a slice cannot support the quantile.
std::optional<double> SlicedPercentile(const std::vector<double>& ordered,
                                       double p, size_t slice);

// Median of `values` (0 when empty). Unlike Percentile, no tail rule: used
// for small samples such as repeated set-up times.
double Median(std::vector<double> values);

// --------------------------------------------------------- open-loop load

// One probe of an open-loop rate: what the ladder needs to judge it.
struct RungResult {
  double rate_qps = 0.0;
  double p90_ms = 0.0;
  double ok_share = 0.0;
  bool backlog_grows = true;
};

// A rung passes when p90 meets the SLO, every request completed OK and the
// backlog did not grow.
bool RungPasses(const RungResult& rung, double slo_ms);

// `outstanding[i]` is the number of submitted-but-unanswered requests seen
// at the i-th arrival of a window. The backlog grows when the mean over the
// last quarter of the window exceeds the mean over the first quarter by
// more than `slack` requests (a queue that keeps up only fluctuates).
bool BacklogGrows(const std::vector<size_t>& outstanding, double slack);

// Highest rate of the ascending `ladder` that passes, found by binary
// search with `probe` (pass/fail is assumed monotone in the rate). Returns
// 0 when even the lowest rung fails. `probes`, when non-null, receives the
// number of probes made.
double MaxPassingRate(const std::vector<double>& ladder, double slo_ms,
                      const std::function<RungResult(double)>& probe,
                      size_t* probes = nullptr);

// ---------------------------------------------------------------- epochs

// One write the churn writer applied, in order, with the epoch it
// published.
struct WriteOp {
  enum class Kind { kIngest, kDelete };
  Kind kind = Kind::kIngest;
  std::vector<Table> tables;  // kIngest
  std::string name;           // kDelete
  uint64_t epoch_id = 0;
};

// The exact content a serving epoch answers over, rebuilt from the initial
// corpus and the write log with the runtime's documented semantics: a
// delete tombstones its table; the next ingest compacts (blanks every
// tombstoned table, keeping its name and id) before appending the new
// tables, and starts with no tombstones.
class EpochContent {
 public:
  explicit EpochContent(const Corpus& initial);

  // Applies the next write. Returns false (and changes nothing) when the
  // write cannot apply: an unknown name to delete or a duplicate to ingest.
  bool Apply(const WriteOp& op);

  const Corpus& corpus() const { return corpus_; }
  const TableTombstones& tombstones() const { return tombstones_; }
  uint64_t epoch_id() const { return epoch_id_; }
  // True when the last Apply changed the corpus (an ingest): an offline
  // engine over this content must be rebuilt, not just re-tombstoned.
  bool corpus_changed() const { return corpus_changed_; }

 private:
  Corpus corpus_;
  TableTombstones tombstones_;
  uint64_t epoch_id_ = 0;
  bool corpus_changed_ = false;
};

// ------------------------------------------------------------- exactness

// True when both rankings hold the same tables in the same order with
// bit-identical scores.
bool SameRanking(const std::vector<SearchHit>& a,
                 const std::vector<SearchHit>& b);

// Checks served rankings against references keyed by (epoch, query). A
// response whose (epoch, query) has no reference counts as a mismatch: the
// gate cannot be passed by serving from an epoch nobody checked.
class ExactnessGate {
 public:
  void AddReference(uint64_t epoch, size_t query,
                    std::vector<SearchHit> hits);
  // Compares one served ranking; returns whether it matched.
  bool Check(uint64_t epoch, size_t query, const std::vector<SearchHit>& hits);

  size_t checked() const { return checked_; }
  size_t mismatched() const { return mismatched_; }

 private:
  std::map<std::pair<uint64_t, size_t>, std::vector<SearchHit>> reference_;
  size_t checked_ = 0;
  size_t mismatched_ = 0;
};

// ----------------------------------------------------------------- spans

// In-memory span recorder of the traced run. A span is one call into one
// module's public function, timed from outside: a name, start and end, and
// a request id shared by the spans of one request (or batch, or set-up).
// Spans do not nest, so a span's self time is its duration. Disabled
// recorders record nothing, so untraced runs pay one branch per call site.
// Thread-safe.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    uint64_t id = 0;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Records a finished span (nothing when disabled).
  void Record(const char* name, uint64_t request,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end);

  // Durations in milliseconds of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Writes every span as a JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
};

// Times `fn()` and records it as a span when `recorder` is enabled. Returns
// the elapsed seconds either way, so untraced code paths measure the same
// call the same way.
template <typename Fn>
double Timed(SpanRecorder* recorder, const char* name, uint64_t request,
             Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  if (recorder != nullptr) recorder->Record(name, request, start, end);
  return std::chrono::duration<double>(end - start).count();
}

// Peak resident set size of this process (VmHWM) in MiB, 0 if unreadable.
double PeakRssMib();

}  // namespace thetis::perfbench

#endif  // THETIS_PERFBENCH_LIB_H_
