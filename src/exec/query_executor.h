#ifndef THETIS_EXEC_QUERY_EXECUTOR_H_
#define THETIS_EXEC_QUERY_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "core/search_engine.h"
#include "lsh/lsei.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace thetis {

// One query's outcome within a batch. `status` is OK for a completed exact
// ranking; DeadlineExceeded when the engine aborted on its deadline budget
// (hits empty — never partial); the serving layer additionally produces
// ResourceExhausted for shed queries. Derived from stats by the executor,
// so engine paths stay Status-free.
struct QueryResult {
  std::vector<SearchHit> hits;
  SearchStats stats;
  Status status;
};

// Maps one query's SearchStats to its Status (see QueryResult::status).
Status StatusFromStats(const SearchStats& stats);

// Batched query execution — the serving-side counterpart to the per-query
// SearchEngine API. A production deployment answers many queries against
// one lake, so the natural unit of parallelism is the query, not the table:
// each query runs the serial engine path on one worker with its own
// query-scoped caches (σ table + mapping signature cache), which keeps them
// lock-free and results identical to SearchEngine::Search /
// PrefilteredSearchEngine::Search query by query.
//
// All pointers are borrowed and must outlive the executor.
class QueryExecutor {
 public:
  QueryExecutor(const SearchEngine* engine, ThreadPool* pool);

  // Routes every query through the LSEI prefilter (Section 6) before exact
  // scoring. The index must be built over the engine's lake.
  void EnablePrefilter(const Lsei* lsei, size_t votes);
  void DisablePrefilter() { lsei_ = nullptr; }
  bool prefilter_enabled() const { return lsei_ != nullptr; }

  // Batch-fused execution: ExecuteBatch cuts the input into consecutive
  // groups of `batch_size` queries and runs each group through ONE
  // SearchEngine::SearchBatchFused call (one table-major bound pass + one
  // σ table per group), parallelizing ACROSS groups. 1 (the default)
  // keeps the legacy one-query-per-worker path. Fusion only restructures
  // WHEN bounds are computed — rankings and deterministic stats are
  // bit-identical to batch_size 1 (the parity sweep asserts this).
  void set_batch_size(size_t batch_size) {
    batch_size_ = batch_size == 0 ? 1 : batch_size;
  }
  size_t batch_size() const { return batch_size_; }

  // Escape hatch: with fusion off, any batch_size runs the legacy
  // per-query path (useful to isolate a suspected fusion issue in
  // production without changing batch plumbing).
  void set_batch_fuse(bool fuse) { fuse_ = fuse; }
  bool batch_fuse() const { return fuse_; }

  // The execution mode ExecuteBatch will actually use, for operator-facing
  // prints: "fused(batch=N)" when the fused path is active, "per-query"
  // otherwise. The prefilter forces per-query execution — fused bounds are
  // computed over the full corpus, while prefiltered queries each score a
  // different candidate subset, so there is nothing to fuse.
  const char* resolved_mode() const {
    return batch_size_ > 1 && fuse_ && lsei_ == nullptr ? "fused"
                                                        : "per-query";
  }

  // Executes all queries over the pool; results are index-aligned with the
  // input. Identical to calling Execute on each query in order.
  std::vector<QueryResult> ExecuteBatch(
      const std::vector<Query>& queries) const;

  // Executes one query inline through the same code path as ExecuteBatch.
  QueryResult Execute(const Query& query) const;

 private:
  const SearchEngine* engine_;
  ThreadPool* pool_;
  const Lsei* lsei_ = nullptr;
  size_t votes_ = 1;
  size_t batch_size_ = 1;
  bool fuse_ = true;
};

// Element-wise sums of the per-query stats of a batch (timing fields are
// summed too: total_seconds becomes aggregate worker-seconds, not
// wall-clock; search_space_reduction is averaged).
SearchStats SumBatchStats(const std::vector<QueryResult>& results);

}  // namespace thetis

#endif  // THETIS_EXEC_QUERY_EXECUTOR_H_
