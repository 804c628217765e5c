#include "core/search_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "core/column_mapping.h"
#include "core/shard_plan.h"
#include "obs/query_metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/top_k.h"

namespace thetis {

std::vector<EntityId> Query::DistinctEntities() const {
  std::vector<EntityId> out;
  for (const auto& t : tuples) {
    for (EntityId e : t) {
      if (e != kNoEntity) out.push_back(e);
    }
  }
  // Queries are small (tens of entities): sort + unique beats hashing into
  // a set and sorting afterwards, and allocates exactly once.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Query QueryFromTable(const Table& table, size_t max_tuples) {
  Query query;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (max_tuples > 0 && query.tuples.size() >= max_tuples) break;
    std::vector<EntityId> tuple;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (table.link(r, c) != kNoEntity) tuple.push_back(table.link(r, c));
    }
    if (!tuple.empty()) query.tuples.push_back(std::move(tuple));
  }
  return query;
}

SearchEngine::SearchEngine(const SemanticDataLake* lake,
                           const EntitySimilarity* sim, SearchOptions options)
    : lake_(lake), sim_(sim), options_(options) {
  THETIS_CHECK(lake != nullptr && sim != nullptr);
  const Corpus& corpus = lake->corpus();
  // Build-time pool, shared by every construction phase and torn down
  // before the constructor returns; queries use their own pools.
  ThreadPool build_pool(options_.build_threads);
  const size_t requested = std::max<size_t>(1, options_.num_shards);
  if (requested <= 1) {
    // The classic unsharded engine, kept on its exact historical build
    // path (parallel whole-corpus arena + whole-corpus signature index):
    // shard 0 IS the old arena_/signature_index_ pair.
    shards_.resize(1);
    EngineShard& shard = shards_.front();
    shard.begin = 0;
    shard.end = static_cast<TableId>(corpus.size());
    {
      obs::TraceSpan span("engine_build_arena");
      Stopwatch phase_watch;
      shard.arena.Build(corpus, &build_pool);
      obs::RecordEngineBuildPhase("arena", phase_watch.ElapsedSeconds());
    }
    if (options_.enable_cache) {
      obs::TraceSpan span("engine_build_signatures");
      Stopwatch phase_watch;
      shard.signatures = BuildTableSignatureIndex(
          corpus, sim->SigmaEquivalenceClasses(), &shard.arena, &build_pool);
      obs::RecordEngineBuild(corpus.size(), shard.signatures.num_distinct);
      obs::RecordEngineBuildPhase("signatures", phase_watch.ElapsedSeconds());
    }
    shard_bounds_ = {0, shard.end};
  } else {
    // Sharded build: plan contiguous weight-balanced ranges, then build
    // each shard's arena + signature index independently. Shards are the
    // unit of parallelism here (BuildRange/BuildTableSignatureIndexRange
    // are serial within a shard), and each shard's content is a pure
    // function of its table range — bit-identical for every thread count.
    obs::TraceSpan span("engine_build_shards");
    Stopwatch phase_watch;
    ShardPlan plan = PlanShards(corpus, requested);
    if (options_.enable_cache) {
      // One σ-class vector, computed once and viewed by every shard's
      // signature index.
      shard_entity_classes_ =
          FlatArray<uint32_t>(sim->SigmaEquivalenceClasses());
    }
    shards_.resize(plan.NumShards());
    build_pool.ParallelFor(plan.NumShards(), /*min_chunk=*/1, [&](size_t s) {
      EngineShard& shard = shards_[s];
      shard.begin = plan.bounds[s];
      shard.end = plan.bounds[s + 1];
      shard.arena.BuildRange(corpus, shard.begin, shard.end);
      if (options_.enable_cache) {
        shard.signatures = BuildTableSignatureIndexRange(
            shard_entity_classes_.span(), shard.arena, shard.begin, shard.end);
      }
    });
    shard_bounds_ = plan.bounds;
    if (options_.enable_cache) {
      size_t num_distinct = 0;
      for (const EngineShard& shard : shards_) {
        num_distinct += shard.signatures.num_distinct;
      }
      obs::RecordEngineBuild(corpus.size(), num_distinct);
    }
    obs::RecordShardPlan(plan.NumShards(), ShardImbalance(corpus, plan));
    obs::RecordEngineBuildPhase("shards", phase_watch.ElapsedSeconds());
  }
  all_tables_.resize(corpus.size());
  std::iota(all_tables_.begin(), all_tables_.end(), TableId{0});
  vocab_ = SigmaVocabulary(lake->MentionedEntities());
}

SearchEngine::SearchEngine(const SemanticDataLake* lake,
                           const EntitySimilarity* sim, SearchOptions options,
                           Prebuilt prebuilt)
    : lake_(lake),
      sim_(sim),
      options_(options),
      shards_(std::move(prebuilt.shards)) {
  THETIS_CHECK(lake != nullptr && sim != nullptr);
  // No build phases: the shard arenas and σ-class signature indexes arrive
  // ready (typically views over an mmap'd snapshot). Only the shard bounds,
  // the identity candidate list and the σ vocabulary are materialized here
  // — all trivially derivable and not worth snapshot sections.
  THETIS_CHECK(!shards_.empty()) << "prebuilt engine needs at least one shard";
  THETIS_CHECK(shards_.front().begin == 0)
      << "prebuilt shards must start at table 0";
  shard_bounds_.reserve(shards_.size() + 1);
  shard_bounds_.push_back(0);
  for (const EngineShard& shard : shards_) {
    THETIS_CHECK(shard.begin == shard_bounds_.back() &&
                 shard.end >= shard.begin)
        << "prebuilt shards must tile the corpus contiguously";
    shard_bounds_.push_back(shard.end);
  }
  all_tables_.resize(lake->corpus().size());
  std::iota(all_tables_.begin(), all_tables_.end(), TableId{0});
  vocab_ = SigmaVocabulary(lake->MentionedEntities());
}

size_t SearchEngine::ShardOf(TableId id) const {
  if (shards_.size() == 1) return 0;
  // Shard s covers [shard_bounds_[s], shard_bounds_[s + 1]); the number of
  // interior boundaries <= id is its index. Ids at or past the last bound
  // (late-ingested tables) land on the last shard, whose fallback path
  // handles them.
  auto begin = shard_bounds_.begin() + 1;
  auto end = shard_bounds_.end() - 1;
  return static_cast<size_t>(std::upper_bound(begin, end, id) - begin);
}

bool SearchEngine::ArenaViewOf(TableId id, ColumnIndexView* view) const {
  const EngineShard& shard = shards_[ShardOf(id)];
  const TableId local = id - shard.begin;
  if (!shard.arena.Covers(local)) return false;
  *view = shard.arena.ViewOf(local);
  return true;
}

QuerySigmaTable SearchEngine::SigmaTableFor(
    std::vector<EntityId> entities, std::span<const TableId> candidates,
    ThreadPool* pool) const {
  // Pairs the query will serve each entity: at least its candidates'
  // distinct-entity unions (the bound pass scores each once). Counting
  // stops at the vocabulary size, the only threshold that matters. With
  // caching off the count stays 0, so the table gets no rows.
  size_t pairs = 0;
  if (options_.enable_cache) {
    for (TableId id : candidates) {
      if (pairs >= vocab_.size()) break;
      ColumnIndexView view;
      if (ArenaViewOf(id, &view)) pairs += view.DistinctCount();
    }
  }
  return QuerySigmaTable(sim_, &vocab_, std::move(entities), pairs, pool);
}

double SearchEngine::ScoreTable(const Query& query, TableId table_id,
                                double* mapping_seconds) const {
  const QuerySigmaTable sigma = SigmaTableFor(
      query.DistinctEntities(), std::span<const TableId>(&table_id, 1));
  return ScoreTableImpl(query, table_id, mapping_seconds, nullptr,
                        SigmaReader(&sigma), nullptr);
}

Explanation SearchEngine::Explain(const Query& query, TableId table_id) const {
  const QuerySigmaTable sigma = SigmaTableFor(
      query.DistinctEntities(), std::span<const TableId>(&table_id, 1));
  Explanation explanation;
  explanation.table = table_id;
  explanation.score = ScoreTableImpl(query, table_id, nullptr, &explanation,
                                     SigmaReader(&sigma), nullptr);
  return explanation;
}

namespace {

// Lines 7-13 of Algorithm 1: σ of each query entity against its mapped
// column, keeping both the running sum (kAvg) and max (kMax) plus the
// best-matching cell entity. The table's column-entity index (built once
// per table, shared with the mapping fill) already holds each column's
// distinct entities with multiplicities, so each mapped entity costs one
// batched σ call over the distinct slice; the row sum weights each σ by
// its count. The max scan over distinct entities in first-occurrence
// order with a strict > preserves the cell-at-a-time tie rule: among
// equal-scoring entities the one whose first row appears earliest wins.
void AggregateRows(ColumnIndexView index, const std::vector<EntityId>& tq,
                   const ColumnMapping& mapping, const SigmaReader& sigma,
                   QueryScopedCache::RowScratch& scratch) {
  size_t m = tq.size();
  std::vector<double>& agg = scratch.agg;
  std::vector<double>& sums = scratch.sums;
  std::vector<EntityId>& best_match = scratch.best_match;
  std::vector<double>& cell_scores = scratch.cell_scores;
  for (size_t i = 0; i < m; ++i) {
    int c = mapping.column_of_entity[i];
    if (c < 0 || tq[i] == kNoEntity) continue;
    size_t count = index.ColumnSize(static_cast<size_t>(c));
    if (count == 0) continue;
    const EntityId* distinct = index.ColumnDistinct(static_cast<size_t>(c));
    const double* counts = index.ColumnCounts(static_cast<size_t>(c));
    cell_scores.resize(count);
    sigma.ScoreBatch(tq[i], distinct, count, cell_scores.data());
    for (size_t d = 0; d < count; ++d) {
      double s = cell_scores[d];
      sums[i] += counts[d] * s;
      if (s > agg[i]) {
        agg[i] = s;
        best_match[i] = distinct[d];
      }
    }
  }
}

// Scratch for scoring without a mapping cache, reused across calls within
// a thread: this function runs once per (query, table), and with the
// batched kernels the buffer/dedup-table allocations would otherwise rival
// the σ arithmetic itself (especially for the cheap type-intersection σ).
// thread_local keeps pooled search race-free without locks.
struct UncachedScoringScratch {
  MappingScratch mapping;
  QueryScopedCache::RowScratch rows;
};

UncachedScoringScratch& ThreadScratch() {
  thread_local UncachedScoringScratch scratch;
  return scratch;
}

}  // namespace

double SearchEngine::ScoreTableImpl(const Query& query, TableId table_id,
                                    double* mapping_seconds,
                                    Explanation* explanation,
                                    const SigmaReader& sigma,
                                    QueryScopedCache* cache) const {
  const Table& table = lake_->corpus().table(table_id);
  if (query.tuples.empty() || table.num_rows() == 0) return 0.0;

  // Aggregation buffers: query-scoped scratch when a cache is present,
  // thread-local scratch otherwise.
  QueryScopedCache::RowScratch& scratch =
      cache != nullptr ? cache->row_scratch() : ThreadScratch().rows;

  // The table's dedup'd columns: a read-only slice of its shard's arena
  // for tables known at engine build, a freshly gathered per-table index
  // only for late-ingested tables. Every tuple's mapping fill and row
  // aggregation reads the same view.
  ColumnIndexView view;
  if (!ArenaViewOf(table_id, &view)) {
    scratch.index.Build(table, scratch.dedup);
    view = scratch.index.View();
  }

  double tuple_score_sum = 0.0;
  size_t counted_tuples = 0;
  bool any_relevant = false;

  for (size_t tuple_index = 0; tuple_index < query.tuples.size();
       ++tuple_index) {
    const auto& tq = query.tuples[tuple_index];
    if (tq.empty()) continue;
    ++counted_tuples;

    // Line 5: Hungarian column mapping for this query tuple, reused across
    // tables with identical column signatures when a cache is present.
    Stopwatch mapping_watch;
    ColumnMapping local_mapping;
    const ColumnMapping* mapping_ptr;
    if (cache != nullptr) {
      mapping_ptr = &cache->MappingFor(tuple_index, tq, table_id, view, sigma);
    } else {
      local_mapping = MapQueryTupleToColumnsIndexed(tq, view, sigma,
                                                    ThreadScratch().mapping);
      mapping_ptr = &local_mapping;
    }
    const ColumnMapping& mapping = *mapping_ptr;
    if (mapping_seconds != nullptr) {
      *mapping_seconds += mapping_watch.ElapsedSeconds();
    }

    size_t m = tq.size();
    std::vector<double>& agg = scratch.agg;
    std::vector<double>& sums = scratch.sums;
    std::vector<EntityId>& best_match = scratch.best_match;
    agg.assign(m, 0.0);
    sums.assign(m, 0.0);
    best_match.assign(m, kNoEntity);
    AggregateRows(view, tq, mapping, sigma, scratch);
    if (options_.aggregation == RowAggregation::kAvg) {
      for (size_t i = 0; i < m; ++i) {
        agg[i] = sums[i] / static_cast<double>(table.num_rows());
      }
    }
    for (size_t i = 0; i < m; ++i) {
      if (agg[i] > 0.0) any_relevant = true;
    }

    // Line 14: weighted Euclidean distance converted to a similarity.
    std::vector<double>& weights = scratch.weights;
    weights.assign(m, 1.0);
    if (options_.use_informativeness) {
      for (size_t i = 0; i < m; ++i) {
        weights[i] =
            tq[i] == kNoEntity ? 1.0 : lake_->Informativeness(tq[i]);
      }
    }
    double tuple_score = DistanceSimilarity(agg, weights);
    tuple_score_sum += tuple_score;

    if (explanation != nullptr) {
      TupleExplanation te;
      te.score = tuple_score;
      for (size_t i = 0; i < m; ++i) {
        EntityExplanation ee;
        ee.entity = tq[i];
        ee.column = mapping.column_of_entity[i];
        ee.coordinate = agg[i];
        ee.weight = weights[i];
        ee.best_match = best_match[i];
        te.entities.push_back(ee);
      }
      explanation->tuples.push_back(std::move(te));
    }
  }

  if (counted_tuples == 0 || !any_relevant) return 0.0;
  // Line 15: average across query tuples.
  return tuple_score_sum / static_cast<double>(counted_tuples);
}

namespace {

// The single point where per-query counters enter the global metrics
// registry: the SearchStats a caller receives and the registry increments
// come from the same struct, so the two views cannot diverge. Called once
// per query: by the search driver, or by the PrefilteredSearchEngine and
// SearchBatchFused wrappers when they correct its stats first.
void FlushQueryStats(const SearchStats& stats) {
  obs::RecordQuery(stats.tables_scored, stats.tables_nonzero,
                   stats.candidate_count, stats.total_seconds,
                   stats.mapping_seconds, stats.sim_cache_hits,
                   stats.sim_cache_misses, stats.mapping_cache_hits,
                   stats.mapping_cache_misses, stats.tables_pruned,
                   stats.bound_seconds);
  if (stats.num_shards > 1) {
    obs::RecordShardSearch(stats.num_shards, stats.floor_hits,
                           stats.floor_publishes);
  }
  if (stats.deadline_exceeded != 0) obs::RecordQueryDeadline();
}

// Deadline budget of one query (or one fused batch), shared by every
// partition working on it. The first check that observes the clock past
// the deadline latches `expired`; subsequent checks fail fast on the flag
// without touching the clock, so an expiry seen by one partition stops
// the others at their next check. With no budget armed, Expired() is a
// single predictable branch — the pre-deadline engine, unchanged.
//
// Expiry is always all-or-nothing for the caller: the search driver
// abandons the partitions' heaps and returns NO hits, never a partial
// ranking (see SearchOptions::deadline_seconds).
struct DeadlineState {
  std::chrono::steady_clock::time_point deadline{};
  std::atomic<bool> expired{false};
  bool enabled = false;

  void Arm(double budget_seconds) {
    enabled = budget_seconds > 0.0;
    if (enabled) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(budget_seconds));
    }
  }

  // Checks the clock (or the latched flag); called per scored candidate
  // and every kDeadlineStride-th bound probe.
  bool Expired() {
    if (!enabled) return false;
    if (expired.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= deadline) {
      expired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Whether a check already latched expiry. Deliberately does NOT consult
  // the clock: a query whose loops ran to completion returns its (full,
  // exact) ranking even if the final bookkeeping drifts past the deadline.
  bool Hit() const {
    return enabled && expired.load(std::memory_order_relaxed);
  }
};

// Bound probes are ~100x cheaper than exact scoring, so the deadline is
// checked once per stride of them rather than per probe.
constexpr size_t kDeadlineStride = 64;

// Candidate filter of the tombstone path: drops deleted tables before the
// bound pass. Returns the list to search (the original when nothing is
// tombstoned — the common case costs one null check) and counts the drops.
const std::vector<TableId>& FilterTombstoned(
    const std::vector<TableId>& candidates, const TableTombstones* tombs,
    std::vector<TableId>* storage, size_t* dropped) {
  *dropped = 0;
  if (tombs == nullptr || tombs->empty()) return candidates;
  storage->clear();
  storage->reserve(candidates.size());
  for (TableId id : candidates) {
    if (tombs->Contains(id)) {
      ++*dropped;
    } else {
      storage->push_back(id);
    }
  }
  return *storage;
}

// --- Admissible upper bound (bound-and-prune pass) -------------------------
//
// Algorithm 1 maps a tuple's query entities to DISTINCT columns (Hungarian,
// Sec. 5.1) and aggregates each entity's σ over its mapped column. The
// bound follows both steps.
//
// 1. Per-(entity, column) maxima. For each distinct query entity e_i, one
//    batched σ over the table's distinct-entity union — the column slices
//    laid end to end — and a segmented max give
//    M[i][c] = max(0, max over column c's entities of σ(e_i, ·)). Under
//    kMax the exact coordinate of a position mapped to column c is exactly
//    M[i][c] (the same σ doubles; max is exact); an unmapped position's is
//    0. Under kAvg it is (Σ_d count_d · σ_d) / num_rows over the mapped
//    column, and Σ_d count_d <= num_rows, so mathematically it is
//    <= M[i][c]; a 1e-9 multiplicative slack (clamped to 1.0, admissible
//    because the distance term vanishes there) absorbs the summation's
//    rounding.
// 2. Best injective partial assignment. The exact mapping is one injective
//    partial position → column assignment, so the minimum over all of them
//    of Σ_i w_i (1 − x_i)², with x_i the (slacked) M[i][τ(i)] and an
//    unmapped position costing w_i, is at most the exact tuple distance.
//    The search sums the terms exactly as DistanceSimilarity does — same
//    expression, same order — and rounded +, − and × are monotone, so the
//    minimum over the rounded sums is at most the rounded sum the scorer
//    computes: under kMax the exact mapping evaluates to the scorer's
//    distance bit for bit, and no slack beyond kAvg's is needed.
//
// DistanceSimilarity decreases monotonically in the distance, so the
// per-tuple bound dominates the exact tuple score and the tuple average
// dominates the table score. A final 1e-12 multiplicative slack keeps a
// positive bound strictly above its exact score, so a candidate tied with
// the current threshold is never skipped on bound alone. When every
// M[i][c] is zero the exact score is exactly 0 (no σ > 0 anywhere means no
// relevant mapping), so 0 is returned and the caller may skip the table.

// Limits of one tuple's assignment search. A tuple of width <= 4 needs at
// most 1 + 5 + 25 + 125 + 625 = 781 nodes. A wider tuple whose search runs
// out, and any tuple wider than kMaxSearchWidth, keeps each entity at its
// own best column (the assignment-free bound), which is still admissible;
// the limits only keep adversarially wide queries from costing more than
// their exact scoring.
constexpr size_t kAssignmentNodeBudget = 1024;
constexpr size_t kMaxSearchWidth = 16;

// Query-side constants of the bound, built once per query.
struct BoundContext {
  // Sorted distinct query entities (the σ batch is run once per entry).
  std::vector<EntityId> entities;
  // Per non-empty tuple, per position: index into `entities`, or
  // SIZE_MAX for kNoEntity positions (coordinate 0, weight 1).
  std::vector<std::vector<size_t>> slots;
  // Per non-empty tuple: the exact informativeness weights the scorer uses.
  std::vector<std::vector<double>> weights;
  size_t counted_tuples = 0;
  // Columns the assignment search may need per entity: the widest
  // non-empty tuple, capped at kMaxSearchWidth.
  size_t search_width = 0;
};

constexpr size_t kNoSlot = static_cast<size_t>(-1);

void BuildBoundContext(const Query& query, const SemanticDataLake& lake,
                       const SearchOptions& options, BoundContext* ctx) {
  ctx->entities = query.DistinctEntities();
  ctx->slots.clear();
  ctx->weights.clear();
  ctx->counted_tuples = 0;
  ctx->search_width = 0;
  for (const auto& tq : query.tuples) {
    if (tq.empty()) continue;
    ++ctx->counted_tuples;
    ctx->search_width = std::max(ctx->search_width,
                                 std::min(tq.size(), kMaxSearchWidth));
    std::vector<size_t> slots(tq.size(), kNoSlot);
    std::vector<double> weights(tq.size(), 1.0);
    for (size_t i = 0; i < tq.size(); ++i) {
      if (tq[i] == kNoEntity) continue;
      slots[i] = static_cast<size_t>(
          std::lower_bound(ctx->entities.begin(), ctx->entities.end(),
                           tq[i]) -
          ctx->entities.begin());
      if (options.use_informativeness) {
        weights[i] = lake.Informativeness(tq[i]);
      }
    }
    ctx->slots.push_back(std::move(slots));
    ctx->weights.push_back(std::move(weights));
  }
}

// Depth-first branch and bound over one tuple's injective partial
// assignments. Positions are assigned in tuple order, so a node's partial
// sum is the rounded prefix sum of every assignment below it, and adding a
// completion's terms can only raise it.
struct AssignmentSearch {
  // Options of position i: slots [i * stride, i * stride + count[i]),
  // cheapest first, the last one "unmapped" (column -1, coordinate 0).
  size_t stride = 0;
  std::vector<size_t> count;
  std::vector<int> column;
  std::vector<double> coord;
  std::vector<double> term;
  std::vector<int> chosen;     // column of each assigned position
  std::vector<size_t> choice;  // option slot of each assigned position
  std::vector<size_t> best;
  double best_sum = 0.0;
  size_t nodes = 0;

  void Descend(size_t i, double partial) {
    if (nodes == 0) return;
    --nodes;
    const size_t m = count.size();
    if (i == m) {
      if (partial < best_sum) {
        best_sum = partial;
        std::copy(choice.begin(), choice.end(), best.begin());
      }
      return;
    }
    // Every completion costs at least each remaining position's cheapest
    // option, added in the same order.
    double floor = partial;
    for (size_t j = i; j < m; ++j) floor += term[j * stride];
    if (floor >= best_sum) return;
    for (size_t o = i * stride, end = o + count[i]; o < end; ++o) {
      const int c = column[o];
      bool taken = false;
      for (size_t j = 0; j < i; ++j) taken |= chosen[j] == c;
      if (taken && c >= 0) continue;
      chosen[i] = c;
      choice[i] = o;
      Descend(i + 1, partial + term[o]);
    }
  }
};

// Per-worker buffers of the bound pass.
struct BoundScratch {
  std::vector<double> sigma;   // batched σ over one table's distinct union
  std::vector<double> colmax;  // M: num_columns maxima per query entity
  // Per context entity: its row of M (into `colmax`, or into the fused
  // pass's union-wide maxima).
  std::vector<const double*> rows;
  // Per context entity: the columns of its largest positive maxima,
  // largest first (ties to the lower column), at most search_width of
  // them, at top[entity * search_width]; top_count[entity] says how many.
  std::vector<int> top;
  std::vector<size_t> top_count;
  std::vector<double> coords;  // per tuple position, fed to the distance
  AssignmentSearch search;
};

// Segmented max of `count` σ rows (one per query entity, each over a
// table's whole distinct union) into `count` rows of num_columns maxima:
// column c's slice is [offsets[c], offsets[c + 1]) of the union. Starts at
// 0 like the scorer's running max, so an empty column gets 0. A column
// slice holds only a few entities, so one row's max chain is
// latency-bound; four rows run interleaved.
void ColumnMaxima(ColumnIndexView view, const double* sigma, size_t count,
                  double* out) {
  const size_t stride = view.DistinctCount();
  const size_t num_columns = view.num_columns;
  const uint32_t* offsets = view.offsets;
  size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const double* s0 = sigma + q * stride - offsets[0];
    const double* s1 = s0 + stride;
    const double* s2 = s1 + stride;
    const double* s3 = s2 + stride;
    double* o = out + q * num_columns;
    for (size_t c = 0; c < num_columns; ++c) {
      double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
      for (uint32_t d = offsets[c]; d < offsets[c + 1]; ++d) {
        m0 = std::max(m0, s0[d]);
        m1 = std::max(m1, s1[d]);
        m2 = std::max(m2, s2[d]);
        m3 = std::max(m3, s3[d]);
      }
      o[c] = m0;
      o[num_columns + c] = m1;
      o[2 * num_columns + c] = m2;
      o[3 * num_columns + c] = m3;
    }
  }
  for (; q < count; ++q) {
    const double* s0 = sigma + q * stride - offsets[0];
    for (size_t c = 0; c < num_columns; ++c) {
      double m0 = 0.0;
      for (uint32_t d = offsets[c]; d < offsets[c + 1]; ++d) {
        m0 = std::max(m0, s0[d]);
      }
      out[q * num_columns + c] = m0;
    }
  }
}

// A maximum as the bound's coordinate: kAvg's rounding slack, see above.
double BoundCoordinate(double m, RowAggregation aggregation) {
  if (aggregation == RowAggregation::kAvg) {
    return std::min(1.0, m * (1.0 + 1e-9));
  }
  return m;
}

// DistanceSimilarity's term, the same expression.
double DistanceTerm(double weight, double x) {
  double miss = 1.0 - x;
  return weight * miss * miss;
}

// Overwrites `coords` with the coordinates of the injective partial
// assignment minimizing the tuple distance. Only positions with a positive
// maximum ("active") are assigned; the others cost w_i whatever column they
// take. Each active position considers its `active` best columns: the
// other active positions hold at most active − 1 columns, so one of them is
// free and no worse than any column outside the list. Leaves `coords`
// untouched when the node budget runs out.
void MinimizeTupleDistance(const BoundContext& ctx, size_t t,
                           RowAggregation aggregation,
                           BoundScratch& scratch) {
  const std::vector<size_t>& slots = ctx.slots[t];
  const std::vector<double>& weights = ctx.weights[t];
  AssignmentSearch& search = scratch.search;
  const size_t m = slots.size();
  size_t active = 0;
  for (size_t s : slots) {
    if (s != kNoSlot && scratch.top_count[s] > 0) ++active;
  }
  const size_t stride = active + 1;
  search.stride = stride;
  search.count.resize(m);
  search.column.resize(m * stride);
  search.coord.resize(m * stride);
  search.term.resize(m * stride);
  for (size_t i = 0; i < m; ++i) {
    const size_t s = slots[i];
    int* column = search.column.data() + i * stride;
    double* coord = search.coord.data() + i * stride;
    double* term = search.term.data() + i * stride;
    size_t n = 0;
    if (s != kNoSlot) {
      const int* top = scratch.top.data() + s * ctx.search_width;
      n = std::min(active, scratch.top_count[s]);
      for (size_t o = 0; o < n; ++o) {
        column[o] = top[o];
        coord[o] = BoundCoordinate(scratch.rows[s][top[o]], aggregation);
        term[o] = DistanceTerm(weights[i], coord[o]);
      }
    }
    column[n] = -1;
    coord[n] = 0.0;
    term[n] = DistanceTerm(weights[i], 0.0);
    search.count[i] = n + 1;
  }
  search.chosen.resize(m);
  search.choice.resize(m);
  search.best.resize(m);
  search.best_sum = std::numeric_limits<double>::infinity();
  search.nodes = kAssignmentNodeBudget;
  search.Descend(0, 0.0);
  if (search.nodes == 0) return;
  for (size_t i = 0; i < m; ++i) {
    scratch.coords[i] = search.coord[search.best[i]];
  }
}

// Assembly step of the bound, from the per-(entity, column) maxima in
// scratch.rows to the final scalar. The per-query pass and the batch-fused
// table-major pass (which computes the maxima of a whole batch's entity
// UNION against a slice and points each query's rows into them) both end
// here, so a fused bound and a per-query bound of the same (query, table)
// pair run the same arithmetic on the same doubles: bit-identical by
// construction.
double AssembleMappingBound(const BoundContext& ctx, size_t num_rows,
                            size_t num_columns, RowAggregation aggregation,
                            BoundScratch& scratch) {
  if (ctx.counted_tuples == 0 || num_rows == 0) return 0.0;
  const size_t num_entities = ctx.entities.size();
  const size_t width = ctx.search_width;
  scratch.top.resize(num_entities * width);
  scratch.top_count.resize(num_entities);
  bool any_positive = false;
  for (size_t q = 0; q < num_entities; ++q) {
    // Insertion-select the `width` largest positive maxima: no searched
    // tuple has more active positions than that.
    const double* row = scratch.rows[q];
    int* top = scratch.top.data() + q * width;
    size_t n = 0;
    for (size_t c = 0; c < num_columns; ++c) {
      const double v = row[c];
      if (v <= 0.0 || (n == width && v <= row[top[n - 1]])) continue;
      size_t k = n < width ? n++ : n - 1;
      for (; k > 0 && row[top[k - 1]] < v; --k) top[k] = top[k - 1];
      top[k] = static_cast<int>(c);
    }
    scratch.top_count[q] = n;
    any_positive = any_positive || n > 0;
  }
  // No σ > 0 anywhere in the table ⇒ no relevant mapping ⇒ the exact
  // score is exactly 0, not merely bounded by it.
  if (!any_positive) return 0.0;

  double sum = 0.0;
  for (size_t t = 0; t < ctx.slots.size(); ++t) {
    const std::vector<size_t>& slots = ctx.slots[t];
    std::vector<double>& coords = scratch.coords;
    coords.resize(slots.size());
    // Each position at its own best column. When those columns are
    // distinct this assignment is injective and every term is minimal, so
    // it is the optimum and the search is skipped.
    bool distinct = true;
    for (size_t i = 0; i < slots.size(); ++i) {
      const size_t s = slots[i];
      coords[i] = 0.0;
      if (s == kNoSlot || scratch.top_count[s] == 0) continue;
      const int best = scratch.top[s * width];
      coords[i] = BoundCoordinate(scratch.rows[s][best], aggregation);
      for (size_t j = 0; j < i && distinct; ++j) {
        distinct = slots[j] == kNoSlot || scratch.top_count[slots[j]] == 0 ||
                   scratch.top[slots[j] * width] != best;
      }
    }
    if (!distinct && slots.size() <= kMaxSearchWidth) {
      MinimizeTupleDistance(ctx, t, aggregation, scratch);
    }
    sum += DistanceSimilarity(coords, ctx.weights[t]);
  }
  return (sum / static_cast<double>(ctx.counted_tuples)) * (1.0 + 1e-12);
}

template <typename Sim>
double UpperBoundWithView(const BoundContext& ctx, size_t num_rows,
                          ColumnIndexView view, const Sim& sim,
                          RowAggregation aggregation, BoundScratch& scratch) {
  const size_t union_count = view.DistinctCount();
  if (ctx.counted_tuples == 0 || num_rows == 0 || union_count == 0) {
    return 0.0;
  }
  const size_t num_columns = view.num_columns;
  const size_t num_entities = ctx.entities.size();
  scratch.sigma.resize(num_entities * union_count);
  scratch.colmax.resize(num_entities * num_columns);
  scratch.rows.resize(num_entities);
  const EntityId* distinct = view.distinct + view.DistinctBegin();
  // One multi-query σ batch covers every entity and column at once.
  sim.ScoreBatchMulti(ctx.entities.data(), num_entities, distinct,
                      union_count, scratch.sigma.data());
  for (size_t q = 0; q < num_entities; ++q) {
    scratch.rows[q] = scratch.colmax.data() + q * num_columns;
  }
  ColumnMaxima(view, scratch.sigma.data(), num_entities,
               scratch.colmax.data());
  return AssembleMappingBound(ctx, num_rows, num_columns, aggregation,
                              scratch);
}

// Adapter presenting a similarity's UpperBoundBatchMulti as
// ScoreBatchMulti, so the templated bound helpers below run the compressed
// backend through the same code path as the exact σ.
struct CompressedBoundSim {
  const EntitySimilarity* sim;
  void ScoreBatchMulti(const EntityId* qs, size_t nq, const EntityId* targets,
                       size_t count, double* out) const {
    sim->UpperBoundBatchMulti(qs, nq, targets, count, out);
  }
};

// Resolves SearchOptions::bound_backend against the similarity's
// compressed backend. kAuto is cache-aware: with the cache ON, fp32 bound
// probes are gathers from the query's σ table, which measures faster
// end-to-end than any compressed bound (see EXPERIMENTS.md); with the
// cache OFF there is nothing to amortize, so the cheaper compressed probe
// wins and kAuto takes it. An explicit request the similarity cannot serve
// falls back to fp32.
const char* ResolveBoundBackend(const SearchOptions& options,
                                const EntitySimilarity& sim) {
  const char* compressed = sim.CompressedBoundBackend();
  switch (options.bound_backend) {
    case SearchOptions::BoundBackend::kFp32:
      return "fp32";
    case SearchOptions::BoundBackend::kAuto:
      return (!options.enable_cache && compressed[0] != '\0') ? compressed
                                                              : "fp32";
    case SearchOptions::BoundBackend::kInt8:
      return std::strcmp(compressed, "int8") == 0 ? "int8" : "fp32";
    case SearchOptions::BoundBackend::kBitset:
      return std::strcmp(compressed, "bitset") == 0 ? "bitset" : "fp32";
  }
  return "fp32";
}

// Whether a candidate with this upper bound provably cannot enter `top`
// (score-descending, id-ascending total order). On a bound exactly equal
// to the threshold the id decides: TopK only admits an equal score when
// the id is smaller than the current worst's.
template <typename Top>
bool ProvablyOutside(const Top& top, double bound, TableId id) {
  if (!top.Full()) return false;
  double threshold = top.MinScore();
  return bound < threshold || (bound == threshold && id > top.MinId());
}

}  // namespace

// Per-query state every partition of the prune kernel reads.
struct PruneQuery {
  bool prune = false;
  // Query-side bound constants (unused when the bounds are fused).
  BoundContext ctx;
  bool compressed = false;
  // The batch-fused pass's dense per-TableId bounds, or null when the
  // partitions compute their own. The prune kernel keeps its sort, walk,
  // floors and stats either way; only the bound source changes.
  const std::vector<double>* fused_bounds = nullptr;
  DeadlineState dl;
};

// One partition of a query's candidates and everything the kernel keeps
// for it. The candidates are a strided view, ids[i * stride] for i <
// count: the whole tombstone-filtered list or one of W round-robin slices
// of it (both without a copy), or one shard's bucket.
struct PartitionLocal {
  const TableId* ids;
  size_t count;
  size_t stride;
  TopK<TableId> top;
  // This partition's reader of the query's σ table.
  SigmaReader sigma;
  // Partition-private mapping cache (null when caching is disabled or the
  // partition is empty), keyed by one shard's signature index (signature
  // id spaces are per shard).
  std::unique_ptr<QueryScopedCache> cache;
  BoundScratch bound_scratch;
  std::vector<double> bounds;
  std::vector<uint32_t> order;
  double mapping_seconds = 0.0;
  double bound_seconds = 0.0;
  size_t nonzero = 0;
  size_t pruned = 0;
  size_t floor_hits = 0;

  PartitionLocal(const TableId* ids, size_t count, size_t stride, size_t k,
                 const QuerySigmaTable* sigma)
      : ids(ids), count(count), stride(stride), top(k), sigma(sigma) {}
  TableId id(size_t i) const { return ids[i * stride]; }
};

double SearchEngine::UpperBoundTable(const Query& query,
                                     TableId table_id) const {
  if (options_.tombstones != nullptr &&
      options_.tombstones->Contains(table_id)) {
    return 0.0;
  }
  BoundContext ctx;
  BuildBoundContext(query, *lake_, options_, &ctx);
  BoundScratch scratch;
  const Table& table = lake_->corpus().table(table_id);
  const bool compressed = ResolveBoundBackend(options_, *sim_)[0] != 'f';
  ColumnIndexView view;
  ColumnEntityIndex index;
  DedupScratch dedup;
  if (!ArenaViewOf(table_id, &view)) {
    index.Build(table, dedup);
    view = index.View();
  }
  auto bound = [&](const auto& sim) {
    return UpperBoundWithView(ctx, table.num_rows(), view, sim,
                              options_.aggregation, scratch);
  };
  return compressed ? bound(CompressedBoundSim{sim_}) : bound(*sim_);
}

std::vector<SearchHit> SearchEngine::SearchCandidates(
    const Query& query, const std::vector<TableId>& candidates,
    SearchStats* stats) const {
  return SearchCandidatesImpl(query, candidates, /*pool=*/nullptr, stats,
                              /*flush_stats=*/true);
}

std::vector<SearchHit> SearchEngine::SearchCandidatesParallel(
    const Query& query, const std::vector<TableId>& candidates,
    ThreadPool* pool, SearchStats* stats) const {
  THETIS_CHECK(pool != nullptr);
  return SearchCandidatesImpl(query, candidates, pool, stats,
                              /*flush_stats=*/true);
}

void SearchEngine::PrunePartition(const Query& query, PruneQuery& q,
                                  SharedScoreFloor* floor,
                                  PartitionLocal* local) const {
  PartitionLocal& part = *local;
  if (q.prune && part.count > 0) {
    obs::TraceSpan bound_span("bound");
    Stopwatch bound_watch;
    part.bounds.resize(part.count);
    auto fill = [&](auto&& bound_of) {
      for (size_t i = 0; i < part.count; ++i) {
        if ((i % kDeadlineStride) == 0 && q.dl.Expired()) break;
        part.bounds[i] = bound_of(part.id(i));
      }
    };
    auto probe = [&](const auto& sim) {
      fill([&](TableId id) {
        // Tables ingested after engine construction have no arena view:
        // +inf, always scored, never pruned.
        ColumnIndexView view;
        if (!ArenaViewOf(id, &view)) {
          return std::numeric_limits<double>::infinity();
        }
        return UpperBoundWithView(q.ctx, lake_->corpus().table(id).num_rows(),
                                  view, sim, options_.aggregation,
                                  part.bound_scratch);
      });
    };
    if (q.fused_bounds != nullptr) {
      // Tables the fused pass did not cover (late ingests) get +inf, as on
      // the per-query path.
      const std::vector<double>& fb = *q.fused_bounds;
      fill([&](TableId id) {
        return id < fb.size() ? fb[id]
                              : std::numeric_limits<double>::infinity();
      });
    } else if (q.compressed) {
      probe(CompressedBoundSim{sim_});
    } else {
      probe(part.sigma);
    }
    // Bound descending, table id ascending on ties. With the id-ascending
    // tie rule, once one candidate is prunable against the current
    // threshold every later one is too, so the walk may stop instead of
    // skipping one-by-one.
    part.order.resize(part.count);
    std::iota(part.order.begin(), part.order.end(), 0u);
    std::sort(part.order.begin(), part.order.end(),
              [&](uint32_t a, uint32_t b) {
                if (part.bounds[a] != part.bounds[b]) {
                  return part.bounds[a] > part.bounds[b];
                }
                return part.id(a) < part.id(b);
              });
    // A fused batch owns its bound cost (SearchStats::bound_fused_reuses).
    if (q.fused_bounds == nullptr) {
      part.bound_seconds = bound_watch.ElapsedSeconds();
    }
  }
  if (q.dl.Hit()) return;
  obs::TraceSpan scoring_span("scoring");
  for (size_t pos = 0; pos < part.count; ++pos) {
    if (q.dl.Expired()) break;
    const size_t i = q.prune ? part.order[pos] : pos;
    const TableId id = part.id(i);
    if (q.prune) {
      // Bound 0 means the exact score is exactly 0 (see the bound
      // derivation), and in bound-descending order everything after is 0
      // too. A bound provably outside the full top-k, or strictly below
      // the shared floor, stops the walk the same way: later candidates
      // have smaller bounds (or equal bounds and larger ids) against
      // thresholds that can only rise.
      const double bound = part.bounds[i];
      const bool zero = bound <= 0.0;
      const bool local_out = ProvablyOutside(part.top, bound, id);
      const bool floor_out = floor != nullptr && bound < floor->Load();
      if (zero || local_out || floor_out) {
        const size_t remaining = part.count - pos;
        part.pruned += remaining;
        // floor_hits counts stops only the cross-partition floor caused.
        if (floor_out && !zero && !local_out) part.floor_hits += remaining;
        break;
      }
    }
    const double score = ScoreTableImpl(query, id, &part.mapping_seconds,
                                        nullptr, part.sigma, part.cache.get());
    if (score > 0.0) {
      ++part.nonzero;
      part.top.Push(id, score);
      // Publish on every admission into a full heap, not just on heap
      // turnover: MinScore is non-decreasing from here on, and each raise
      // lets the other partitions stop earlier.
      if (floor != nullptr && part.top.Full()) {
        floor->Update(part.top.MinScore());
      }
    }
  }
  // The Hungarian mapping runs interleaved inside the walk; per-table spans
  // would swamp the trace, so its accumulated time is emitted as one
  // aggregated span instead.
  obs::TraceAggregate("mapping", part.mapping_seconds);
}

std::vector<SearchHit> SearchEngine::SearchCandidatesImpl(
    const Query& query, const std::vector<TableId>& candidates,
    ThreadPool* pool, SearchStats* stats, bool flush_stats,
    const std::vector<double>* fused_bounds,
    const QuerySigmaTable* batch_sigma) const {
  obs::TraceSpan query_span("query");
  Stopwatch watch;
  std::vector<TableId> live_storage;
  size_t tombstoned = 0;
  const std::vector<TableId>& cands = FilterTombstoned(
      candidates, options_.tombstones.get(), &live_storage, &tombstoned);
  PruneQuery q;
  q.dl.Arm(options_.deadline_seconds);
  q.prune = options_.enable_prune && !cands.empty();
  q.fused_bounds = fused_bounds;
  const char* bound_backend = "fp32";
  if (q.prune) {
    // The fused pass resolved the same backend for its bounds.
    bound_backend = ResolveBoundBackend(options_, *sim_);
    if (fused_bounds == nullptr) {
      BuildBoundContext(query, *lake_, options_, &q.ctx);
    }
  }
  q.compressed = bound_backend[0] != 'f';

  const size_t num_shards = shards_.size();
  const size_t top_k = std::max<size_t>(1, options_.top_k);
  const bool parallel = pool != nullptr && pool->num_threads() > 1;
  // Every partition reads one σ table: the batch's when fused, else one
  // built here, across the pool when the partitions will run on it. The
  // Hungarian mapping cache is per partition.
  std::optional<QuerySigmaTable> query_sigma;
  const QuerySigmaTable* sigma = batch_sigma;
  if (sigma == nullptr) {
    sigma = &query_sigma.emplace(SigmaTableFor(
        query.DistinctEntities(), cands, parallel ? pool : nullptr));
  }
  std::vector<PartitionLocal> parts;
  auto add_partition = [&](const TableId* ids, size_t count, size_t stride,
                           const EngineShard& shard) {
    PartitionLocal& part =
        parts.emplace_back(ids, count, stride, top_k, sigma);
    if (!options_.enable_cache || count == 0) return;
    part.cache = std::make_unique<QueryScopedCache>(&shard.signatures);
  };

  // Split the candidates: one partition per shard for a sharded engine;
  // otherwise one round-robin slice per pool worker (the caller counts —
  // it runs chunks too), or a single partition over the whole list.
  std::vector<std::vector<TableId>> buckets;
  if (num_shards > 1) {
    // Bucket order keeps the caller's order within a shard; the bound sort
    // (or, unpruned, the order-independent TopK admission) makes results
    // independent of it.
    buckets.resize(num_shards);
    for (TableId id : cands) buckets[ShardOf(id)].push_back(id);
    parts.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      add_partition(buckets[s].data(), buckets[s].size(), 1, shards_[s]);
    }
  } else {
    const size_t slices = parallel ? pool->num_threads() + 1 : 1;
    parts.reserve(slices);
    for (size_t p = 0; p < slices; ++p) {
      const size_t count =
          p < cands.size() ? (cands.size() - p + slices - 1) / slices : 0;
      add_partition(cands.data() + std::min(p, cands.size()), count, slices,
                    shards_.front());
    }
  }

  // Several partitions prune against one shared score floor (see
  // SharedScoreFloor for the exactness contract) and fold their heaps into
  // `merged` as soon as each finishes. The TopK admission set is
  // order-independent under the (score desc, id asc) total order, so the
  // merged ranking is identical whichever partition finishes first, and
  // the merged threshold — at least as tight as any one partition's — is
  // republished at once for the partitions still running.
  SharedScoreFloor floor(options_.floor_observer, options_.floor_observer_ctx);
  SharedScoreFloor* shared_floor =
      q.prune && parts.size() > 1 ? &floor : nullptr;
  TopK<TableId> merged(top_k);
  std::mutex merge_mu;
  auto run = [&](size_t p) {
    PrunePartition(query, q, shared_floor, &parts[p]);
    if (parts.size() == 1) return;
    std::lock_guard<std::mutex> lock(merge_mu);
    for (const auto& [id, score] : parts[p].top.Extract()) {
      merged.Push(id, score);
    }
    if (shared_floor != nullptr && merged.Full()) {
      shared_floor->Update(merged.MinScore());
    }
  };
  if (parallel) {
    pool->ParallelFor(parts.size(), /*min_chunk=*/1, run);
  } else {
    // In index order, so floor publications form one monotone sequence
    // (the shard tests assert exactly this).
    for (size_t p = 0; p < parts.size(); ++p) run(p);
  }
  if (q.prune) obs::RecordBoundBackend(bound_backend);

  std::vector<SearchHit> hits;
  SearchStats local_stats;
  {
    obs::TraceSpan topk_span("topk");
    for (size_t p = 0; p < parts.size(); ++p) {
      const PartitionLocal& part = parts[p];
      local_stats.mapping_seconds += part.mapping_seconds;
      local_stats.bound_seconds += part.bound_seconds;
      local_stats.tables_nonzero += part.nonzero;
      local_stats.tables_pruned += part.pruned;
      local_stats.floor_hits += part.floor_hits;
      if (num_shards > 1) {
        const double shard_prune_rate =
            part.count == 0 ? 0.0
                            : static_cast<double>(part.pruned) /
                                  static_cast<double>(part.count);
        obs::RecordShardLoop(p, shard_prune_rate, part.bound_seconds);
      }
      local_stats.sim_cache_hits += part.sigma.hits();
      local_stats.sim_cache_misses += part.sigma.misses();
      if (part.cache != nullptr) {
        local_stats.mapping_cache_hits += part.cache->mapping_hits();
        local_stats.mapping_cache_misses += part.cache->mapping_misses();
      }
    }
    if (!q.dl.Hit()) {
      TopK<TableId>& top = parts.size() == 1 ? parts.front().top : merged;
      for (const auto& [id, score] : top.Extract()) {
        hits.push_back(SearchHit{id, score});
      }
    }
  }
  // A batch's table fills belong to the batch, not to one of its queries.
  if (query_sigma.has_value()) local_stats.sim_cache_misses += sigma->fills();
  const size_t corpus_size = lake_->corpus().size();
  local_stats.candidate_count = cands.size();
  local_stats.tables_scored = cands.size() - local_stats.tables_pruned;
  local_stats.search_space_reduction =
      corpus_size == 0 ? 0.0
                       : 1.0 - static_cast<double>(cands.size()) /
                                   static_cast<double>(corpus_size);
  local_stats.total_seconds = watch.ElapsedSeconds();
  local_stats.bound_backend = bound_backend;
  local_stats.tables_tombstoned = tombstoned;
  if (q.dl.Hit()) local_stats.deadline_exceeded = 1;
  local_stats.num_shards = num_shards;
  local_stats.floor_publishes = floor.publishes();
  if (flush_stats) FlushQueryStats(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return hits;
}

const std::vector<TableId>& SearchEngine::AllTables(
    std::vector<TableId>* storage) const {
  if (all_tables_.size() == lake_->corpus().size()) return all_tables_;
  // Tables were ingested after construction: fall back to a fresh list.
  storage->resize(lake_->corpus().size());
  std::iota(storage->begin(), storage->end(), TableId{0});
  return *storage;
}

std::vector<SearchHit> SearchEngine::SearchParallel(const Query& query,
                                                    ThreadPool* pool,
                                                    SearchStats* stats) const {
  std::vector<TableId> storage;
  auto hits = SearchCandidatesParallel(query, AllTables(&storage), pool, stats);
  if (stats != nullptr) stats->search_space_reduction = 0.0;
  return hits;
}

std::vector<SearchHit> SearchEngine::Search(const Query& query,
                                            SearchStats* stats) const {
  std::vector<TableId> storage;
  auto hits = SearchCandidates(query, AllTables(&storage), stats);
  if (stats != nullptr) stats->search_space_reduction = 0.0;
  return hits;
}

namespace {

// Sorted distinct entities of every query of a batch.
std::vector<EntityId> BatchEntities(std::span<const Query> queries) {
  std::vector<EntityId> out;
  for (const Query& query : queries) {
    const std::vector<EntityId> entities = query.DistinctEntities();
    out.insert(out.end(), entities.begin(), entities.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

// Output of the batch-fused bound pass (phases A and B of
// SearchBatchFused).
struct FusedBounds {
  // Per query: dense per-TableId admissible bounds, +inf for tables no
  // shard covers (late ingests: always scored, never pruned).
  std::vector<std::vector<double>> by_table;
  // Per query: distinct entities an earlier query of the batch owns.
  std::vector<size_t> shared_entities;
  size_t probed_tables = 0;
  double seconds = 0.0;
  const char* backend = "fp32";
  // The batch budget expired inside the pass; the bounds are incomplete.
  bool deadline_hit = false;
};

void SearchEngine::FusedBoundPass(std::span<const Query> queries,
                                  const QuerySigmaTable& sigma,
                                  FusedBounds* out) const {
  const Corpus& corpus = lake_->corpus();
  // Batch budget for the fused bound pass: it serves the whole batch at
  // once, so its expiry fails every query of the batch cleanly. The
  // per-query reranks arm their own budgets.
  DeadlineState batch_dl;
  batch_dl.Arm(options_.deadline_seconds);

  // Phase A: per-query bound contexts and per-query maps from context slot
  // to a slot of the batch's sorted distinct entity UNION (the σ table's
  // entities). The first query referencing an entity "owns" it; later
  // queries count it as shared — the σ work the fusion saves them.
  const std::vector<EntityId>& union_entities = sigma.entities();
  std::vector<BoundContext> ctxs(queries.size());
  std::vector<std::vector<size_t>> slot_of(queries.size());
  out->shared_entities.assign(queries.size(), 0);
  out->by_table.assign(queries.size(), {});
  out->backend = ResolveBoundBackend(options_, *sim_);
  for (size_t q = 0; q < queries.size(); ++q) {
    BuildBoundContext(queries[q], *lake_, options_, &ctxs[q]);
  }
  std::vector<uint32_t> owner(union_entities.size(),
                              std::numeric_limits<uint32_t>::max());
  for (size_t q = 0; q < queries.size(); ++q) {
    slot_of[q].resize(ctxs[q].entities.size());
    for (size_t i = 0; i < ctxs[q].entities.size(); ++i) {
      size_t u = static_cast<size_t>(
          std::lower_bound(union_entities.begin(), union_entities.end(),
                           ctxs[q].entities[i]) -
          union_entities.begin());
      slot_of[q][i] = u;
      if (owner[u] == std::numeric_limits<uint32_t>::max()) {
        owner[u] = static_cast<uint32_t>(q);
      } else {
        ++out->shared_entities[q];
      }
    }
  }

  // Phase B: the fused table-major bound pass. One walk over each
  // shard's arena; every table's distinct-entity slice is gathered ONCE
  // and scored against the whole union, segmented into per-(entity,
  // column) maxima, then each query's bound is assembled from its rows of
  // those maxima. Tables no shard covers (late ingests) keep +inf —
  // always scored, never pruned, exactly like the per-query path.
  obs::TraceSpan bound_span("fused_bound");
  Stopwatch bound_watch;
  for (size_t q = 0; q < queries.size(); ++q) {
    out->by_table[q].assign(corpus.size(),
                            std::numeric_limits<double>::infinity());
  }
  size_t& probed_tables = out->probed_tables;
  probed_tables = 0;
  const size_t nu = union_entities.size();
  const bool compressed = out->backend[0] != 'f';
  SigmaReader reader(&sigma);
  std::vector<double> union_sigma;
  std::vector<double> union_colmax;
  BoundScratch scratch;
  const TableTombstones* tombs =
      options_.tombstones != nullptr && !options_.tombstones->empty()
          ? options_.tombstones.get()
          : nullptr;
  for (const EngineShard& shard : shards_) {
    if (batch_dl.Hit()) break;
    for (TableId id = shard.begin;
         id < shard.end && id < corpus.size(); ++id) {
      if ((probed_tables % kDeadlineStride) == 0 && batch_dl.Expired()) {
        break;
      }
      if (tombs != nullptr && tombs->Contains(id)) {
        // Deleted: bound 0 for every query (the terminal reranks filter
        // the id out anyway; skipping here saves the σ pass).
        for (size_t q = 0; q < queries.size(); ++q) {
          out->by_table[q][id] = 0.0;
        }
        continue;
      }
      const TableId local = id - shard.begin;
      if (!shard.arena.Covers(local)) continue;
      ColumnIndexView view = shard.arena.ViewOf(local);
      const size_t num_rows = corpus.table(id).num_rows();
      const size_t union_count = view.DistinctCount();
      const size_t num_columns = view.num_columns;
      union_colmax.assign(nu * num_columns, 0.0);
      if (union_count > 0 && nu > 0) {
        const EntityId* distinct = view.distinct + view.DistinctBegin();
        union_sigma.resize(nu * union_count);
        // One multi-query pass covers the whole union.
        if (compressed) {
          sim_->UpperBoundBatchMulti(union_entities.data(), nu, distinct,
                                     union_count, union_sigma.data());
        } else {
          reader.ScoreBatchMulti(union_entities.data(), nu, distinct,
                                 union_count, union_sigma.data());
        }
        ColumnMaxima(view, union_sigma.data(), nu, union_colmax.data());
      }
      // Per-query assembly from the shared maxima: a column maximum
      // depends only on (entity, slice), so pointing q's rows into the
      // union's reproduces the per-query pass's doubles bit for bit.
      for (size_t q = 0; q < queries.size(); ++q) {
        scratch.rows.resize(slot_of[q].size());
        for (size_t i = 0; i < slot_of[q].size(); ++i) {
          scratch.rows[i] =
              union_colmax.data() + slot_of[q][i] * num_columns;
        }
        out->by_table[q][id] = AssembleMappingBound(
            ctxs[q], num_rows, num_columns, options_.aggregation, scratch);
      }
      ++probed_tables;
    }
  }
  out->seconds = bound_watch.ElapsedSeconds();
  out->deadline_hit = batch_dl.Hit();
}

std::vector<std::vector<double>> SearchEngine::UpperBoundBatch(
    std::span<const Query> queries) const {
  std::vector<TableId> storage;
  const QuerySigmaTable sigma =
      SigmaTableFor(BatchEntities(queries), AllTables(&storage));
  FusedBounds fused;
  FusedBoundPass(queries, sigma, &fused);
  return std::move(fused.by_table);
}

std::vector<std::vector<SearchHit>> SearchEngine::SearchBatchFused(
    std::span<const Query> queries, std::vector<SearchStats>* stats) const {
  std::vector<std::vector<SearchHit>> all_hits(queries.size());
  if (stats != nullptr) stats->assign(queries.size(), SearchStats{});
  if (queries.empty()) return all_hits;
  obs::TraceSpan batch_span("fused_batch");

  std::vector<TableId> storage;
  const std::vector<TableId>& candidates = AllTables(&storage);
  const bool prune = options_.enable_prune && !candidates.empty();

  // One σ table over the batch's entity union serves the fused bound pass
  // and every query's rerank.
  const QuerySigmaTable sigma =
      SigmaTableFor(BatchEntities(queries), candidates);
  FusedBounds fused;
  fused.shared_entities.assign(queries.size(), 0);
  if (prune) FusedBoundPass(queries, sigma, &fused);
  const char* bound_backend = fused.backend;

  size_t total_reuses = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    total_reuses += fused.shared_entities[q] * fused.probed_tables;
  }
  obs::RecordFusedBatch(queries.size(), fused.probed_tables, fused.seconds,
                        total_reuses);

  if (fused.deadline_hit) {
    // The batch budget expired inside the fused bound pass: every query of
    // the batch fails all-or-nothing (there are no partial rankings to
    // hand out, and the bounds computed so far are discarded).
    for (size_t q = 0; q < queries.size(); ++q) {
      SearchStats local;
      local.candidate_count = candidates.size();
      local.bound_backend = bound_backend;
      local.deadline_exceeded = 1;
      FlushQueryStats(local);
      if (stats != nullptr) (*stats)[q] = local;
    }
    return all_hits;
  }

  // Phase C: per-query exact rerank over the precomputed bounds. The
  // flush is deferred so the stats the registry sees carry the fused
  // corrections.
  for (size_t q = 0; q < queries.size(); ++q) {
    SearchStats local;
    all_hits[q] = SearchCandidatesImpl(queries[q], candidates,
                                       /*pool=*/nullptr, &local,
                                       /*flush_stats=*/false,
                                       prune ? &fused.by_table[q] : nullptr,
                                       &sigma);
    local.search_space_reduction = 0.0;
    local.bound_fused_reuses = fused.shared_entities[q] * fused.probed_tables;
    FlushQueryStats(local);
    if (stats != nullptr) (*stats)[q] = local;
  }
  return all_hits;
}

PrefilteredSearchEngine::PrefilteredSearchEngine(const SearchEngine* engine,
                                                 const Lsei* lsei,
                                                 size_t votes)
    : engine_(engine), lsei_(lsei), votes_(votes) {
  THETIS_CHECK(engine != nullptr && lsei != nullptr);
  THETIS_CHECK(votes >= 1);
}

std::vector<SearchHit> PrefilteredSearchEngine::Search(
    const Query& query, SearchStats* stats) const {
  obs::TraceSpan query_span("prefiltered_query");
  Stopwatch watch;
  std::vector<TableId> candidates =
      lsei_->CandidateTablesForQuery(query.tuples, votes_);
  // Score with the flush deferred, correct total_seconds to include the
  // LSEI lookup, then flush exactly once — the registry and the caller see
  // the same (corrected) totals.
  SearchStats local;
  auto hits = engine_->SearchCandidatesImpl(query, candidates,
                                            /*pool=*/nullptr, &local,
                                            /*flush_stats=*/false);
  local.total_seconds = watch.ElapsedSeconds();
  FlushQueryStats(local);
  if (stats != nullptr) *stats = local;
  return hits;
}

}  // namespace thetis
