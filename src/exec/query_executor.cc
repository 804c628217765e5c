#include "exec/query_executor.h"

#include <algorithm>

#include "obs/query_metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace thetis {

QueryExecutor::QueryExecutor(const SearchEngine* engine, ThreadPool* pool)
    : engine_(engine), pool_(pool) {
  THETIS_CHECK(engine != nullptr && pool != nullptr);
}

void QueryExecutor::EnablePrefilter(const Lsei* lsei, size_t votes) {
  THETIS_CHECK(lsei != nullptr);
  THETIS_CHECK(votes >= 1);
  lsei_ = lsei;
  votes_ = votes;
}

Status StatusFromStats(const SearchStats& stats) {
  if (stats.shed != 0) {
    return Status::ResourceExhausted("query shed by admission control");
  }
  if (stats.deadline_exceeded != 0) {
    return Status::DeadlineExceeded("query exceeded its deadline budget");
  }
  return Status::Ok();
}

QueryResult QueryExecutor::Execute(const Query& query) const {
  obs::TraceSpan span("exec_query");
  QueryResult result;
  if (lsei_ != nullptr) {
    // Delegate to the prefiltered engine: it defers the metrics flush until
    // total_seconds includes the LSEI lookup, so the registry and the
    // returned stats agree.
    PrefilteredSearchEngine prefiltered(engine_, lsei_, votes_);
    result.hits = prefiltered.Search(query, &result.stats);
  } else {
    result.hits = engine_->Search(query, &result.stats);
  }
  result.status = StatusFromStats(result.stats);
  return result;
}

std::vector<QueryResult> QueryExecutor::ExecuteBatch(
    const std::vector<Query>& queries) const {
  obs::TraceSpan span("exec_batch");
  obs::RecordExecutorBatch(queries.size());
  std::vector<QueryResult> results(queries.size());
  if (batch_size_ > 1 && fuse_ && lsei_ == nullptr) {
    // Fused path: consecutive groups of batch_size_ queries, one
    // SearchBatchFused call per group. A group is strictly serial inside,
    // so the parallelism unit is the group; per-query stats come back
    // exact, with the group's bound cost attributed to the batch rather
    // than double-counted per query.
    const size_t num_groups = (queries.size() + batch_size_ - 1) / batch_size_;
    pool_->ParallelFor(num_groups, [&](size_t g) {
      const size_t begin = g * batch_size_;
      const size_t end = std::min(begin + batch_size_, queries.size());
      std::vector<SearchStats> stats;
      auto hits = engine_->SearchBatchFused(
          std::span<const Query>(queries.data() + begin, end - begin),
          &stats);
      for (size_t i = begin; i < end; ++i) {
        results[i].hits = std::move(hits[i - begin]);
        results[i].stats = stats[i - begin];
        results[i].status = StatusFromStats(results[i].stats);
      }
    });
    return results;
  }
  // One index per query: whole queries never split across workers, so each
  // query's cache stays worker-private and per-query stats are exact.
  pool_->ParallelFor(queries.size(),
                     [&](size_t i) { results[i] = Execute(queries[i]); });
  return results;
}

SearchStats SumBatchStats(const std::vector<QueryResult>& results) {
  SearchStats total;
  for (const QueryResult& r : results) {
    total.tables_scored += r.stats.tables_scored;
    total.tables_nonzero += r.stats.tables_nonzero;
    total.tables_pruned += r.stats.tables_pruned;
    total.total_seconds += r.stats.total_seconds;
    total.mapping_seconds += r.stats.mapping_seconds;
    total.bound_seconds += r.stats.bound_seconds;
    total.candidate_count += r.stats.candidate_count;
    total.search_space_reduction += r.stats.search_space_reduction;
    total.sim_cache_hits += r.stats.sim_cache_hits;
    total.sim_cache_misses += r.stats.sim_cache_misses;
    total.mapping_cache_hits += r.stats.mapping_cache_hits;
    total.mapping_cache_misses += r.stats.mapping_cache_misses;
    total.floor_hits += r.stats.floor_hits;
    total.floor_publishes += r.stats.floor_publishes;
    total.bound_fused_reuses += r.stats.bound_fused_reuses;
    total.tables_tombstoned += r.stats.tables_tombstoned;
    total.deadline_exceeded += r.stats.deadline_exceeded;
    total.shed += r.stats.shed;
    // Engine-wide configuration, not additive: every query in a batch runs
    // on the same engine, so the max is simply "the" shard count.
    total.num_shards = std::max(total.num_shards, r.stats.num_shards);
  }
  if (!results.empty()) {
    total.search_space_reduction /= static_cast<double>(results.size());
  }
  return total;
}

}  // namespace thetis
