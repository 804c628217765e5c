#ifndef THETIS_CORE_SEARCH_ENGINE_H_
#define THETIS_CORE_SEARCH_ENGINE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include <memory>

#include "core/corpus_index.h"
#include "core/query_cache.h"
#include "core/score_floor.h"
#include "core/semrel.h"
#include "core/sigma_table.h"
#include "core/similarity.h"
#include "core/tombstones.h"
#include "lsh/lsei.h"
#include "semantic/semantic_data_lake.h"
#include "util/thread_pool.h"

namespace thetis {

// A semantic table search query: a set of entity tuples
// Q = {t_1, ..., t_k}, each tuple a list of KG entities (Section 2.4).
// kNoEntity elements (query values absent from the KG) are ignored.
struct Query {
  std::vector<std::vector<EntityId>> tuples;

  // Flat distinct entities across all tuples (kNoEntity skipped).
  std::vector<EntityId> DistinctEntities() const;
};

// Builds a query from an (entity-linked) table: each row's linked entities
// become one query tuple; rows without any link are skipped, and at most
// `max_tuples` rows are taken (0 = all). This is the query-by-example-table
// entry point: a user drops in a small table instead of naming entities.
Query QueryFromTable(const Table& table, size_t max_tuples = 0);

struct SearchOptions {
  size_t top_k = 10;
  RowAggregation aggregation = RowAggregation::kMax;
  // Weight query entities by corpus informativeness I(e) (Eq. 2); when
  // false all weights are 1.
  bool use_informativeness = true;
  // Score each query entity against the lake vocabulary once per query
  // (one QuerySigmaTable shared by every partition) and cache Hungarian
  // mappings (one QueryScopedCache per partition). Caching is exact —
  // rankings are bit-identical with it on or off — so this is on by
  // default; turn it off to measure raw σ.
  bool enable_cache = true;
  // Bound-and-prune: before exact scoring, compute an admissible upper
  // bound per candidate (one batched σ over the table's distinct-entity
  // union, per-column maxima and a best injective entity → column
  // assignment per tuple; see UpperBoundTable), score in bound-descending
  // order, and stop once the bound falls below the running top-k
  // threshold. Pruning is exact — the returned hits and scores are
  // bit-identical with it on or off — so it is on by default; turn it off
  // to measure the unpruned baseline.
  bool enable_prune = true;
  // Which backend computes the admissible upper bound of the prune pass.
  // kAuto (the default) is cache-aware: when the cache is enabled, fp32
  // bound probes are gathers from the query's σ table, which beats any
  // compressed bound end-to-end, so kAuto keeps fp32; with the cache off
  // it takes the
  // similarity's compressed backend when it has one — int8 quantized
  // embeddings for cosine, packed type bitsets for small-vocabulary
  // Jaccard. An explicit request the similarity cannot serve falls back
  // to fp32. Every backend is admissible, so the returned hits and scores
  // are bit-identical for every setting; only the bound pass's cost
  // changes. The resolved choice is reported in SearchStats::bound_backend.
  enum class BoundBackend { kAuto, kFp32, kInt8, kBitset };
  BoundBackend bound_backend = BoundBackend::kAuto;
  // Threads for engine construction (1 = serial, 0 = hardware concurrency):
  // the corpus column arena and the σ-class signature index are built by
  // parallel per-table passes with deterministic merges, so the constructed
  // engine is bit-identical for every value — this only changes build time.
  size_t build_threads = 1;
  // Number of contiguous table-range shards the corpus column arena and
  // signature index are partitioned into (0 or 1 = the classic unsharded
  // engine). Shards are planned by per-table weight (see PlanShards), built
  // independently (in parallel when build_threads > 1), and searched
  // scatter-gather: per-shard bound-and-prune against a globally shared
  // score floor, shard-local top-k heaps merged under the deterministic
  // id tie rule. Rankings are bit-identical for every shard count — see
  // DESIGN.md "Sharded scatter-gather" for the exactness argument.
  size_t num_shards = 1;
  // Per-query execution deadline in seconds, measured from query entry
  // (Search/SearchCandidates/SearchBatchFused). The default 0.0 means
  // "none": no clock is consulted and behavior is exactly the pre-deadline
  // engine. With a positive budget the bound pass and the scoring loop
  // of every partition check one shared expiry flag; on expiry the query
  // aborts all-or-nothing — it returns NO hits and sets
  // SearchStats::deadline_exceeded — so a ranking, when returned, is
  // always the complete exact top-k, never a partial one.
  double deadline_seconds = 0.0;
  // Deleted tables (null or empty = none). Tombstoned tables are removed
  // from the candidate list before the bound pass and their upper bound is
  // pinned to 0, so deletes take effect immediately without rebuilding the
  // engine's arenas; the serving runtime folds tombstones into the next
  // ingest epoch (compaction). Shared so that re-skinning an epoch with an
  // extended set is a pointer swap.
  std::shared_ptr<const TableTombstones> tombstones;
  // Test hook: observes every successful raise of the shared score floor
  // (possibly concurrently — see SharedScoreFloor::Observer). Null in
  // production.
  SharedScoreFloor::Observer floor_observer = nullptr;
  void* floor_observer_ctx = nullptr;
};

// One ranked result.
struct SearchHit {
  TableId table;
  double score;
};

// Output of the batch-fused bound pass (defined in the .cc; see
// SearchEngine::SearchBatchFused).
struct FusedBounds;
// Per-query and per-partition state of the prune kernel (defined in the
// .cc; see SearchEngine::PrunePartition).
struct PruneQuery;
struct PartitionLocal;

// Why one query entity contributed what it did to a table's score.
struct EntityExplanation {
  EntityId entity = kNoEntity;
  // Table column the entity was assigned to by τ, or -1 if unmappable.
  int column = -1;
  // Aggregated similarity coordinate x_i in [0, 1].
  double coordinate = 0.0;
  // Informativeness weight I(e) applied in the distance (1 when weighting
  // is disabled).
  double weight = 1.0;
  // The table entity realizing the best per-row similarity (kNoEntity when
  // the coordinate is 0).
  EntityId best_match = kNoEntity;
};

// Per-tuple breakdown of a table's SemRel score.
struct TupleExplanation {
  std::vector<EntityExplanation> entities;
  // SemRel(t_q, T) for this tuple (Eq. 3 over the coordinates above).
  double score = 0.0;
};

// Full explanation of SemRel(Q, T).
struct Explanation {
  TableId table = kNoTable;
  double score = 0.0;  // == ScoreTable(query, table)
  std::vector<TupleExplanation> tuples;
};

// Per-query execution statistics, feeding Tables 3-4 and the §7.3
// table-scoring analysis.
struct SearchStats {
  // Candidates actually scored exactly; tables_scored + tables_pruned ==
  // candidate_count.
  size_t tables_scored = 0;
  size_t tables_nonzero = 0;
  // Candidates skipped by the bound-and-prune pass (their upper bound
  // proved they cannot enter the top-k). 0 when pruning is disabled.
  size_t tables_pruned = 0;
  double total_seconds = 0.0;
  // Time spent inside the Hungarian column mapping μ/τ.
  double mapping_seconds = 0.0;
  // Time spent computing the admissible upper bounds (0 when pruning is
  // disabled).
  double bound_seconds = 0.0;
  // Size of the candidate set when a prefilter ran (== corpus size
  // otherwise).
  size_t candidate_count = 0;
  // 1 - candidates/corpus when a prefilter ran, else 0.
  double search_space_reduction = 0.0;
  // Query-scoped cache effectiveness (all zero when caching is disabled).
  // σ pairs served from the query's σ table / computed by the base σ for
  // it (the table's fills, plus pairs whose target is outside the
  // vocabulary). Both stay zero when the query's candidates are too few
  // for the table to fill rows; a fused batch's fills count for no query.
  size_t sim_cache_hits = 0;
  size_t sim_cache_misses = 0;
  // Hungarian mappings reused via the column-signature cache / solved fresh:
  size_t mapping_cache_hits = 0;
  size_t mapping_cache_misses = 0;
  // Resolved bound backend of this query ("fp32", "int8", "bitset"); the
  // kAuto/fallback resolution happens per query against the similarity's
  // compressed backend, so this is the authoritative record of which code
  // path computed the bounds.
  const char* bound_backend = "fp32";
  // Shards the engine searched (1 for the classic unsharded engine).
  size_t num_shards = 1;
  // Candidates pruned specifically because their bound fell below the
  // globally shared score floor — i.e. another partition's (shard's or
  // pool slice's) admissions killed them before their own local top-k
  // could. A subset of tables_pruned; 0 for serial unsharded and
  // prefiltered search (one partition, no shared floor).
  size_t floor_hits = 0;
  // Successful raises of the shared score floor this query.
  size_t floor_publishes = 0;
  // Batch-fused execution only: bound computations this query did NOT pay
  // for because the fused table-major pass had already scored the entity
  // against the table slice for an earlier query of the batch (shared
  // entities × probed tables). 0 for per-query execution. The batch's
  // actual bound cost is attributed once, to the batch (bound_seconds is 0
  // for every query of a fused batch); this counter records the reuse that
  // made that attribution fair.
  size_t bound_fused_reuses = 0;
  // Candidates dropped up front because SearchOptions::tombstones marks
  // them deleted (they are neither scored nor pruned and never appear in
  // the ranking).
  size_t tables_tombstoned = 0;
  // 1 when the query hit its SearchOptions::deadline_seconds budget and
  // aborted (hits are empty in that case; the serving layer maps this to
  // Status::DeadlineExceeded). 0 otherwise.
  size_t deadline_exceeded = 0;
  // 1 when the serving layer shed this query before execution (admission
  // queue full or budget already expired at dequeue). Always 0 for stats
  // produced by the engine itself; the field lives here so serve-side
  // accounting flows through SumBatchStats like every other counter.
  size_t shed = 0;
};

// One contiguous table-range shard of the engine's search structures: a
// shard-local corpus column arena over [begin, end) plus its σ-class
// signature index (empty when caching is disabled). Shard 0 of a 1-shard
// engine is exactly the classic whole-corpus arena/index.
struct EngineShard {
  TableId begin = 0;
  TableId end = 0;
  // Shard-local ids: arena table t is corpus table begin + t.
  CorpusColumnArena arena;
  // signatures.table_base == begin; signature ids are interned per shard.
  TableSignatureIndex signatures;
};

// The exact semantic table search engine of Algorithm 1. Scores every
// table (or every candidate table) against the query and returns the top-k
// by SemRel. Borrowed pointers must outlive the engine.
class SearchEngine {
 public:
  SearchEngine(const SemanticDataLake* lake, const EntitySimilarity* sim,
               SearchOptions options = {});

  // Prebuilt construction artifacts, restored from an engine snapshot
  // (src/io) instead of being rebuilt from the corpus. One shard for a
  // classic snapshot, several for a sharded one; shard ranges must tile
  // [0, corpus) contiguously.
  struct Prebuilt {
    std::vector<EngineShard> shards;
  };

  // Adopts snapshot-restored artifacts, skipping the offline build
  // entirely. The arena/signature index typically view mmap'd memory; the
  // mapping must outlive the engine (the snapshot loader guarantees it).
  SearchEngine(const SemanticDataLake* lake, const EntitySimilarity* sim,
               SearchOptions options, Prebuilt prebuilt);

  const SearchOptions& options() const { return options_; }
  void set_options(const SearchOptions& options) { options_ = options; }

  // Construction artifacts and borrowed collaborators, exposed for the
  // snapshot writer and for tests.
  const std::vector<EngineShard>& shards() const { return shards_; }
  const EntitySimilarity* similarity() const { return sim_; }
  const SemanticDataLake* lake() const { return lake_; }

  // Locates `id`'s prebuilt column view across shards: false when no shard
  // covers it (late-ingested table — callers fall back to a per-query
  // ColumnEntityIndex). O(1) for a single shard, O(log shards) otherwise.
  bool ArenaViewOf(TableId id, ColumnIndexView* view) const;

  // The shard whose range contains `id` (tables past the last shard's end
  // map to the last shard — they are late ingests handled by its fallback
  // path). Index into shards().
  size_t ShardOf(TableId id) const;

  // Brute-force search over the whole corpus.
  std::vector<SearchHit> Search(const Query& query,
                                SearchStats* stats = nullptr) const;

  // Search restricted to `candidates` (e.g. an LSEI prefilter output).
  std::vector<SearchHit> SearchCandidates(const Query& query,
                                          const std::vector<TableId>& candidates,
                                          SearchStats* stats = nullptr) const;

  // Parallel variants: per-table scoring is embarrassingly parallel (the
  // paper evaluates on a 64-core server); each worker keeps a local top-k
  // that is merged deterministically at the end, so results are identical
  // to the serial engine. The pool is borrowed.
  std::vector<SearchHit> SearchParallel(const Query& query, ThreadPool* pool,
                                        SearchStats* stats = nullptr) const;
  std::vector<SearchHit> SearchCandidatesParallel(
      const Query& query, const std::vector<TableId>& candidates,
      ThreadPool* pool, SearchStats* stats = nullptr) const;

  // Batch-fused full-corpus search: one table-major pass over each shard's
  // arena gathers every table's distinct-entity slice ONCE and computes
  // admissible upper bounds for ALL queries of the batch against it (the σ
  // work of entities shared by several queries is paid once — see
  // SearchStats::bound_fused_reuses), then each query runs the existing
  // exact bound-descending rerank against its own top-k and the shared
  // score floor, with one σ table over the batch's entity union shared by
  // the bound pass and every rerank when caching is enabled. Rankings and every deterministic stats field are
  // bit-identical to calling Search(queries[q]) per query, for every shard
  // count, bound backend, and cache setting — the fused pass only changes
  // WHEN bounds are computed, never their values (per-(entity, slice)
  // maxima are independent of the rest of the batch, and the multi-query
  // kernels are bit-identical per pair to the one-query kernels). Exactly
  // this contract is what the batch-fusion parity sweep asserts.
  //
  // Serial within the batch; QueryExecutor parallelizes ACROSS batches. Per-query bound_seconds is
  // 0 in fused mode: the batch's bound cost is recorded once, against the
  // batch (obs fused_bound span / RecordFusedBatch).
  std::vector<std::vector<SearchHit>> SearchBatchFused(
      std::span<const Query> queries,
      std::vector<SearchStats>* stats = nullptr) const;

  // SemRel(Q, T) for a single table: per-tuple Hungarian column mapping,
  // per-row σ scores, row aggregation, weighted distance similarity,
  // averaged over query tuples (Algorithm 1 lines 3-15). Returns 0 when no
  // query entity has any relevant mapping into the table. When
  // `mapping_seconds` is non-null it accumulates the time spent computing
  // the column mapping.
  double ScoreTable(const Query& query, TableId table,
                    double* mapping_seconds = nullptr) const;

  // Scores one table and explains the result: per query tuple, the column
  // each query entity mapped to, its aggregated similarity coordinate, its
  // informativeness weight, and the best-matching row entity. Useful for
  // search UIs and debugging relevance ("why is this table ranked here?").
  Explanation Explain(const Query& query, TableId table) const;

  // Admissible upper bound on ScoreTable(query, table). For each query
  // entity and table column, max σ over the column's entities bounds the
  // entity's aggregated coordinate if it maps there, under both kMax and
  // kAvg (kAvg adds a small multiplicative slack for its rounded sums).
  // Each tuple is then bounded by the injective entity → column assignment
  // (unmapped entities allowed, at coordinate 0) with the smallest
  // weighted distance — Algorithm 1's mapping is one of those assignments.
  // Costs one batched σ pass per distinct query entity over the table's
  // distinct-entity union plus a tiny per-tuple assignment search — no
  // Hungarian mapping, no per-row work. UpperBoundTable(q, t) >=
  // ScoreTable(q, t) always; the bound-and-prune search path relies on
  // exactly this inequality (see DESIGN.md "Bound-and-prune exact top-k").
  double UpperBoundTable(const Query& query, TableId table) const;

  // The batch-fused pass's bounds: result[q][t] bounds ScoreTable(
  // queries[q], t) for every table t of the corpus, computed table-major
  // exactly as SearchBatchFused computes them. Bit-identical to
  // UpperBoundTable(queries[q], t) for every table known at engine build;
  // +inf for tables ingested later, and for tables the pass had not
  // reached when the engine's deadline expired.
  std::vector<std::vector<double>> UpperBoundBatch(
      std::span<const Query> queries) const;

 private:
  // Shared implementation of ScoreTable/Explain and the rerank;
  // `explanation` and `cache` may be null. σ comes from `sigma`; with a
  // cache, Hungarian mappings are reused query-wide. The results are
  // bit-identical either way.
  double ScoreTableImpl(const Query& query, TableId table,
                        double* mapping_seconds, Explanation* explanation,
                        const SigmaReader& sigma,
                        QueryScopedCache* cache) const;

  // The σ table of a query (or a fused batch) with distinct `entities`
  // over `candidates`: rows when caching is enabled and the candidates'
  // distinct-entity unions add up to at least the vocabulary size (the
  // pass then serves each entity at least as many pairs as a row costs),
  // else none. Rows are filled on `pool` when it is non-null.
  QuerySigmaTable SigmaTableFor(std::vector<EntityId> entities,
                                std::span<const TableId> candidates,
                                ThreadPool* pool = nullptr) const;

  // The driver behind every search entry point: drops tombstoned
  // candidates, splits the rest into partitions (one for serial search,
  // one round-robin slice per pool worker, or one per shard of a sharded
  // engine), runs PrunePartition on each — on `pool` when it has more than
  // one thread, else in index order — merges their top-k heaps and folds
  // their stats. SearchCandidates flushes the stats to the metrics
  // registry itself; PrefilteredSearchEngine (a friend) disables the
  // flush, corrects total_seconds to include the LSEI lookup, and flushes
  // once from there, so the registry never sees a total that excludes
  // prefilter time. SearchBatchFused injects its fused bound pass: the
  // query's dense per-TableId bounds in `fused_bounds` (its partitions
  // then compute none) and the batch's σ table in `batch_sigma`; both are
  // null for per-query execution, which builds its own table before the
  // partitions fork.
  std::vector<SearchHit> SearchCandidatesImpl(
      const Query& query, const std::vector<TableId>& candidates,
      ThreadPool* pool, SearchStats* stats, bool flush_stats,
      const std::vector<double>* fused_bounds = nullptr,
      const QuerySigmaTable* batch_sigma = nullptr) const;

  // The one bound-and-prune kernel: bounds one partition's candidates,
  // sorts them bound descending and scores them until a bound proves the
  // rest outside the partition's top-k or strictly below `floor` (null
  // when the query has one partition), publishing each admission into a
  // full heap to `floor`. See DESIGN.md "Bound-and-prune exact top-k".
  void PrunePartition(const Query& query, PruneQuery& q,
                      SharedScoreFloor* floor, PartitionLocal* local) const;

  // Phases A and B of SearchBatchFused: per-query bound contexts over the
  // batch's entity union (the entities of `sigma`), then one table-major
  // walk of every shard's arena that bounds every query of the batch, σ
  // read from `sigma`.
  void FusedBoundPass(std::span<const Query> queries,
                      const QuerySigmaTable& sigma, FusedBounds* out) const;

  // The immutable 0..corpus-1 identity list backing Search/SearchParallel
  // (no per-query O(corpus) allocation). Falls back to materializing a
  // fresh list only when tables were ingested after construction.
  const std::vector<TableId>& AllTables(std::vector<TableId>* storage) const;

  const SemanticDataLake* lake_;
  const EntitySimilarity* sim_;
  SearchOptions options_;
  // The engine's search structures, partitioned into contiguous
  // table-range shards (exactly one for the classic engine): per shard a
  // flat column index (distinct entities + multiplicities per column, per
  // table) and a σ-class signature index (empty when caching is disabled),
  // built once here and shared read-only by every query and worker;
  // query-time ColumnEntityIndex builds only remain for tables ingested
  // after construction. Never empty.
  std::vector<EngineShard> shards_;
  // shards_.size() + 1 cumulative table bounds (shards_[s] covers
  // [shard_bounds_[s], shard_bounds_[s + 1])); ShardOf binary-searches it.
  std::vector<TableId> shard_bounds_;
  // One σ-class vector shared by every shard's signature index (computed
  // once; each shard's TableSignatureIndex views it). Empty for a 1-shard
  // engine (whose index owns its own copy, as before) and for snapshot
  // restores (which view the mapping).
  FlatArray<uint32_t> shard_entity_classes_;
  // Identity candidate list for full-corpus searches, sized at build time.
  std::vector<TableId> all_tables_;
  // The lake vocabulary at construction, over which query σ tables hold
  // their rows.
  SigmaVocabulary vocab_;

  friend class PrefilteredSearchEngine;
};

// Thetis with LSEI prefiltering (Section 6): runs the LSH lookup to shrink
// the search space, then the exact engine over the candidates.
class PrefilteredSearchEngine {
 public:
  // All borrowed; the Lsei must be built over the same lake.
  PrefilteredSearchEngine(const SearchEngine* engine, const Lsei* lsei,
                          size_t votes);

  std::vector<SearchHit> Search(const Query& query,
                                SearchStats* stats = nullptr) const;

 private:
  const SearchEngine* engine_;
  const Lsei* lsei_;
  size_t votes_;
};

}  // namespace thetis

#endif  // THETIS_CORE_SEARCH_ENGINE_H_
