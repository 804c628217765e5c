// Ranking-parity suite for the query-scoped caches and the batched
// QueryExecutor: Search, SearchParallel (1, 2, 8 threads), and the
// cache-enabled/disabled paths must all return identical hit lists —
// table ids AND score bits — over several synthetic-lake seeds, plus
// hand-built score-tie corpora that exercise the TopK id tie-break.
#include "exec/query_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/semrel.h"
#include "core/similarity.h"
#include "embedding/embedding_store.h"
#include "obs/trace.h"
#include "semantic/semantic_data_lake.h"
#include "util/thread_pool.h"

namespace thetis {
namespace {

using benchgen::Benchmark;
using benchgen::MakeBenchmark;
using benchgen::PresetKind;

// Exact comparison: parity means bit-identical, not approximately equal.
void ExpectSameHits(const std::vector<SearchHit>& expected,
                    const std::vector<SearchHit>& actual,
                    const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table, actual[i].table)
        << label << " position " << i;
    EXPECT_EQ(expected[i].score, actual[i].score)
        << label << " position " << i;
  }
}

// --- Generated-lake parity across seeds ------------------------------------------

class RankingParitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankingParitySweep, SerialParallelCachedAllIdentical) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.05, GetParam());
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity sim(&bench.kg.kg);

  SearchOptions cached_opts;
  cached_opts.enable_cache = true;
  SearchOptions uncached_opts;
  uncached_opts.enable_cache = false;
  SearchEngine cached(&lake, &sim, cached_opts);
  SearchEngine uncached(&lake, &sim, uncached_opts);

  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::vector<ThreadPool*> pools = {&pool1, &pool2, &pool8};

  auto queries = benchgen::MakeQueries(bench.kg, 6, GetParam() * 7 + 1);
  for (const auto& gq : queries) {
    auto reference = uncached.Search(gq.query);
    ASSERT_FALSE(reference.empty());
    ExpectSameHits(reference, cached.Search(gq.query), "cached serial");
    for (ThreadPool* pool : pools) {
      std::string threads = std::to_string(pool->num_threads());
      ExpectSameHits(reference, uncached.SearchParallel(gq.query, pool),
                     "uncached parallel x" + threads);
      ExpectSameHits(reference, cached.SearchParallel(gq.query, pool),
                     "cached parallel x" + threads);
    }
  }
}

TEST_P(RankingParitySweep, ScoreTableBitIdenticalCachedVsUncached) {
  // Table-level check, stronger than top-k parity: every single table's
  // score must agree between a fresh uncached call and a cached sweep.
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.03, GetParam());
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity sim(&bench.kg.kg);
  SearchOptions opts;
  opts.top_k = bench.lake.corpus.size();  // keep every nonzero table
  opts.enable_cache = true;
  SearchEngine cached(&lake, &sim, opts);
  auto queries = benchgen::MakeQueries(bench.kg, 3, GetParam() * 13 + 5);
  for (const auto& gq : queries) {
    auto hits = cached.Search(gq.query);
    for (const SearchHit& hit : hits) {
      EXPECT_EQ(hit.score, cached.ScoreTable(gq.query, hit.table))
          << "table " << hit.table;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingParitySweep,
                         ::testing::Values(7, 21, 99, 1234));

// --- Score-tie corpus: the TopK id tie-break under every execution mode -----------

// A lake whose corpus is dominated by identical copies of one table: all
// copies score exactly the same, so any ranking discrepancy between
// serial/parallel/cached paths shows up as a permutation of the tie group.
struct TieFixture {
  KnowledgeGraph kg;
  Corpus corpus;
  EntityId player, team, other_player, other_team;
  static constexpr size_t kCopies = 7;

  TieFixture() {
    Taxonomy* tax = kg.mutable_taxonomy();
    TypeId thing = tax->AddType("Thing").value();
    TypeId person = tax->AddType("Person", thing).value();
    TypeId club = tax->AddType("Club", thing).value();
    player = kg.AddEntity("player").value();
    other_player = kg.AddEntity("other player").value();
    team = kg.AddEntity("team").value();
    other_team = kg.AddEntity("other team").value();
    EXPECT_TRUE(kg.AddEntityType(player, person).ok());
    EXPECT_TRUE(kg.AddEntityType(other_player, person).ok());
    EXPECT_TRUE(kg.AddEntityType(team, club).ok());
    EXPECT_TRUE(kg.AddEntityType(other_team, club).ok());

    // Identical copies interleaved with distinct tables, so tie-group ids
    // are not contiguous.
    for (size_t i = 0; i < kCopies; ++i) {
      Table copy("copy" + std::to_string(i), {"Player", "Team"});
      EXPECT_TRUE(copy.AppendRow({Value::String("other player"),
                                  Value::String("other team")},
                                 {other_player, other_team})
                      .ok());
      EXPECT_TRUE(corpus.AddTable(std::move(copy)).ok());
      Table exact("exact" + std::to_string(i), {"Player", "Team"});
      EXPECT_TRUE(exact
                      .AppendRow({Value::String("player"),
                                  Value::String("team")},
                                 {player, team})
                      .ok());
      EXPECT_TRUE(corpus.AddTable(std::move(exact)).ok());
    }
  }
};

class TieBreakSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TieBreakSweep, TopKCutsTieGroupsByAscendingId) {
  size_t top_k = GetParam();
  TieFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchOptions opts;
  opts.top_k = top_k;
  opts.use_informativeness = false;
  ThreadPool pool2(2);
  ThreadPool pool8(8);

  Query q{{{f.player, f.team}}};
  for (bool cache : {false, true}) {
    opts.enable_cache = cache;
    SearchEngine engine(&lake, &sim, opts);
    auto hits = engine.Search(q);
    ASSERT_EQ(hits.size(), std::min<size_t>(top_k, 2 * TieFixture::kCopies));
    // The exact copies (odd ids 1, 3, 5, ...) all score 1.0 and must fill
    // the prefix in ascending id order; the related copies (even ids)
    // follow, again ascending.
    for (size_t i = 0; i < hits.size(); ++i) {
      if (i < TieFixture::kCopies) {
        EXPECT_EQ(hits[i].table, 2 * i + 1) << "tie prefix position " << i;
        EXPECT_EQ(hits[i].score, 1.0);
      } else {
        EXPECT_EQ(hits[i].table, 2 * (i - TieFixture::kCopies))
            << "tie suffix position " << i;
        EXPECT_LT(hits[i].score, 1.0);
      }
    }
    ExpectSameHits(hits, engine.SearchParallel(q, &pool2), "parallel x2");
    ExpectSameHits(hits, engine.SearchParallel(q, &pool8), "parallel x8");
  }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, TieBreakSweep,
                         ::testing::Values(1, 3, 7, 10, 14, 20));

TEST(TieBreakTest, MappingCacheCollapsesClassEquivalentTables) {
  // The σ-class signature regression test: tables whose columns hold
  // DISTINCT entities with identical type sets must still share one mapping
  // cache entry — for TypeJaccard, σ only depends on the type sets, so the
  // Hungarian problems are bit-identical. (Entity-level signatures, the old
  // scheme, never collapse these and score ~0% hits on realistic lakes.)
  constexpr size_t kTables = 6;
  KnowledgeGraph kg;
  Taxonomy* tax = kg.mutable_taxonomy();
  TypeId thing = tax->AddType("Thing").value();
  TypeId person = tax->AddType("Person", thing).value();
  TypeId club = tax->AddType("Club", thing).value();
  Corpus corpus;
  for (size_t i = 0; i < kTables; ++i) {
    // Every table gets its own fresh entities; only the types repeat.
    EntityId p = kg.AddEntity("player " + std::to_string(i)).value();
    EntityId c = kg.AddEntity("club " + std::to_string(i)).value();
    EXPECT_TRUE(kg.AddEntityType(p, person).ok());
    EXPECT_TRUE(kg.AddEntityType(c, club).ok());
    Table t("team sheet " + std::to_string(i), {"Player", "Team"});
    EXPECT_TRUE(
        t.AppendRow({Value::String("player " + std::to_string(i)),
                     Value::String("club " + std::to_string(i))},
                    {p, c})
            .ok());
    EXPECT_TRUE(corpus.AddTable(std::move(t)).ok());
  }
  // Query entities appear in no table, so the identity-pair fingerprint is
  // empty everywhere and all kTables mapping keys coincide.
  EntityId qp = kg.AddEntity("query player").value();
  EntityId qc = kg.AddEntity("query club").value();
  EXPECT_TRUE(kg.AddEntityType(qp, person).ok());
  EXPECT_TRUE(kg.AddEntityType(qc, club).ok());

  SemanticDataLake lake(&corpus, &kg);
  TypeJaccardSimilarity sim(&kg);
  SearchOptions opts;
  opts.use_informativeness = false;
  SearchEngine cached(&lake, &sim, opts);
  SearchStats stats;
  auto hits = cached.Search(Query{{{qp, qc}}}, &stats);
  EXPECT_EQ(stats.mapping_cache_misses, 1u);
  EXPECT_EQ(stats.mapping_cache_hits, kTables - 1);
  // Reuse must not change a single score bit.
  opts.enable_cache = false;
  SearchEngine uncached(&lake, &sim, opts);
  ExpectSameHits(uncached.Search(Query{{{qp, qc}}}), hits,
                 "class-collapsed cached vs uncached");
}

TEST(TieBreakTest, MappingCacheCollapsesDuplicateTables) {
  // All kCopies exact tables share one column signature (and the related
  // copies another), so per tuple the Hungarian mapping is solved once per
  // signature, not once per table.
  TieFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  SearchStats stats;
  engine.Search(Query{{{f.player, f.team}}}, &stats);
  EXPECT_EQ(stats.mapping_cache_misses, 2u);
  EXPECT_EQ(stats.mapping_cache_hits, 2 * TieFixture::kCopies - 2);
  EXPECT_GT(stats.sim_cache_hits, 0u);
}

// --- QueryExecutor ---------------------------------------------------------------

struct ExecutorFixture {
  Benchmark bench;
  SemanticDataLake lake;
  TypeJaccardSimilarity sim;
  std::vector<Query> queries;

  explicit ExecutorFixture(uint64_t seed = 42, size_t num_queries = 8)
      : bench(MakeBenchmark(PresetKind::kWt2015Like, 0.05, seed)),
        lake(&bench.lake.corpus, &bench.kg.kg),
        sim(&bench.kg.kg) {
    for (const auto& gq :
         benchgen::MakeQueries(bench.kg, num_queries, seed + 1)) {
      queries.push_back(gq.query);
    }
  }
};

class ExecutorThreadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ExecutorThreadSweep, BatchMatchesPerQuerySearch) {
  ExecutorFixture f;
  SearchEngine engine(&f.lake, &f.sim);
  ThreadPool pool(GetParam());
  QueryExecutor executor(&engine, &pool);
  auto results = executor.ExecuteBatch(f.queries);
  ASSERT_EQ(results.size(), f.queries.size());
  for (size_t i = 0; i < f.queries.size(); ++i) {
    SearchStats want_stats;
    auto want = engine.Search(f.queries[i], &want_stats);
    ExpectSameHits(want, results[i].hits,
                   "batch query " + std::to_string(i));
    EXPECT_EQ(results[i].stats.tables_scored, want_stats.tables_scored);
    EXPECT_EQ(results[i].stats.tables_nonzero, want_stats.tables_nonzero);
  }
}

TEST_P(ExecutorThreadSweep, PrefilteredBatchMatchesPrefilteredEngine) {
  ExecutorFixture f;
  SearchEngine engine(&f.lake, &f.sim);
  LseiOptions lsh;
  Lsei lsei(&f.lake, nullptr, lsh);
  PrefilteredSearchEngine reference(&engine, &lsei, /*votes=*/1);
  ThreadPool pool(GetParam());
  QueryExecutor executor(&engine, &pool);
  executor.EnablePrefilter(&lsei, /*votes=*/1);
  auto results = executor.ExecuteBatch(f.queries);
  ASSERT_EQ(results.size(), f.queries.size());
  for (size_t i = 0; i < f.queries.size(); ++i) {
    SearchStats want_stats;
    auto want = reference.Search(f.queries[i], &want_stats);
    ExpectSameHits(want, results[i].hits,
                   "prefiltered query " + std::to_string(i));
    EXPECT_EQ(results[i].stats.candidate_count, want_stats.candidate_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecutorThreadSweep,
                         ::testing::Values(1, 2, 8));

TEST(QueryExecutorTest, CachedAndUncachedEnginesAgree) {
  ExecutorFixture f;
  SearchOptions cached_opts;
  cached_opts.enable_cache = true;
  SearchOptions uncached_opts;
  uncached_opts.enable_cache = false;
  SearchEngine cached(&f.lake, &f.sim, cached_opts);
  SearchEngine uncached(&f.lake, &f.sim, uncached_opts);
  ThreadPool pool(4);
  QueryExecutor cached_exec(&cached, &pool);
  QueryExecutor uncached_exec(&uncached, &pool);
  auto a = cached_exec.ExecuteBatch(f.queries);
  auto b = uncached_exec.ExecuteBatch(f.queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectSameHits(b[i].hits, a[i].hits, "query " + std::to_string(i));
  }
}

TEST(QueryExecutorTest, CacheCountersPopulatedOnlyWhenEnabled) {
  ExecutorFixture f(42, 3);
  SearchOptions cached_opts;
  cached_opts.enable_cache = true;
  SearchOptions uncached_opts;
  uncached_opts.enable_cache = false;
  SearchEngine cached(&f.lake, &f.sim, cached_opts);
  SearchEngine uncached(&f.lake, &f.sim, uncached_opts);
  ThreadPool pool(2);

  auto cached_results = QueryExecutor(&cached, &pool).ExecuteBatch(f.queries);
  SearchStats total = SumBatchStats(cached_results);
  EXPECT_GT(total.sim_cache_hits, 0u);
  EXPECT_GT(total.sim_cache_misses, 0u);
  EXPECT_GT(total.mapping_cache_misses, 0u);

  // Entities repeat across a lake's rows, so when every table is reranked
  // hits dominate misses. (With pruning on, the bound pass's first probe
  // of each pair is a miss and few tables are reranked, so the memo's
  // hit/miss balance there says nothing about row repetition.)
  SearchOptions unpruned_opts;
  unpruned_opts.enable_prune = false;
  SearchEngine unpruned(&f.lake, &f.sim, unpruned_opts);
  SearchStats rerank_all =
      SumBatchStats(QueryExecutor(&unpruned, &pool).ExecuteBatch(f.queries));
  EXPECT_GT(rerank_all.sim_cache_hits, rerank_all.sim_cache_misses);

  auto uncached_results =
      QueryExecutor(&uncached, &pool).ExecuteBatch(f.queries);
  SearchStats none = SumBatchStats(uncached_results);
  EXPECT_EQ(none.sim_cache_hits, 0u);
  EXPECT_EQ(none.sim_cache_misses, 0u);
  EXPECT_EQ(none.mapping_cache_hits, 0u);
  EXPECT_EQ(none.mapping_cache_misses, 0u);
}

TEST(QueryExecutorTest, ExecuteSingleMatchesBatch) {
  ExecutorFixture f(42, 3);
  SearchEngine engine(&f.lake, &f.sim);
  ThreadPool pool(2);
  QueryExecutor executor(&engine, &pool);
  auto batch = executor.ExecuteBatch(f.queries);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    QueryResult single = executor.Execute(f.queries[i]);
    ExpectSameHits(batch[i].hits, single.hits,
                   "single vs batch " + std::to_string(i));
  }
}

TEST(QueryExecutorTest, EmptyBatchAndEmptyQuery) {
  ExecutorFixture f(42, 1);
  SearchEngine engine(&f.lake, &f.sim);
  ThreadPool pool(2);
  QueryExecutor executor(&engine, &pool);
  EXPECT_TRUE(executor.ExecuteBatch({}).empty());
  auto results = executor.ExecuteBatch({Query{}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].hits.empty());
}

// --- Instrumentation parity --------------------------------------------------------

TEST(ObsParityTest, TracingOnAndOffBitIdenticalEverywhere) {
  // Observability must be a pure observer: enabling span tracing cannot
  // perturb a single ranking or score bit, in any executor configuration.
  // (The compiled-out leg of the same contract runs in the CI job that
  // builds with -DTHETIS_DISABLE_OBS and re-runs this whole suite.)
  ExecutorFixture f(57, 4);
  SearchOptions cached_opts;
  cached_opts.enable_cache = true;
  SearchOptions uncached_opts;
  uncached_opts.enable_cache = false;
  SearchEngine cached(&f.lake, &f.sim, cached_opts);
  SearchEngine uncached(&f.lake, &f.sim, uncached_opts);
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  auto run_all = [&] {
    std::vector<std::vector<SearchHit>> out;
    for (const Query& q : f.queries) {
      out.push_back(cached.Search(q));
      out.push_back(uncached.Search(q));
      out.push_back(cached.SearchParallel(q, &pool1));
      out.push_back(cached.SearchParallel(q, &pool8));
      out.push_back(uncached.SearchParallel(q, &pool8));
    }
    return out;
  };

  obs::SetTracingEnabled(false);
  auto baseline = run_all();
  obs::TraceCollector::Global().Clear();
  obs::SetTracingEnabled(true);
  auto traced = run_all();
  obs::SetTracingEnabled(false);
  obs::TraceCollector::Global().Clear();

  ASSERT_EQ(baseline.size(), traced.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    ExpectSameHits(baseline[i], traced[i],
                   "tracing parity run " + std::to_string(i));
  }
}

TEST(QueryExecutorTest, SumBatchStatsAddsUp) {
  ExecutorFixture f(42, 4);
  SearchEngine engine(&f.lake, &f.sim);
  ThreadPool pool(1);
  QueryExecutor executor(&engine, &pool);
  auto results = executor.ExecuteBatch(f.queries);
  SearchStats total = SumBatchStats(results);
  size_t scored = 0;
  size_t pruned = 0;
  size_t sim_hits = 0;
  for (const QueryResult& r : results) {
    scored += r.stats.tables_scored;
    pruned += r.stats.tables_pruned;
    sim_hits += r.stats.sim_cache_hits;
  }
  EXPECT_EQ(total.tables_scored, scored);
  EXPECT_EQ(total.tables_pruned, pruned);
  EXPECT_EQ(total.sim_cache_hits, sim_hits);
  // Bound-and-prune partitions every query's candidates into scored +
  // pruned; summed over the batch that must cover the full cross product.
  EXPECT_EQ(total.tables_scored + total.tables_pruned,
            f.queries.size() * f.bench.lake.corpus.size());
}

// --- Bound-and-prune parity: pruning must be invisible in the results -------------

// Pruning is claimed exact: hits (ids AND score bits) must match the
// unpruned engine on every execution path — serial, parallel, cached,
// uncached, and LSEI-prefiltered — while the stats still account for every
// candidate as either scored or pruned.
class PruneParitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PruneParitySweep, PrunedMatchesUnprunedEverywhere) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.05, GetParam());
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity sim(&bench.kg.kg);

  // prune × cache grid; the prune-off/cache-off engine is the reference.
  SearchOptions opts[4];
  for (int i = 0; i < 4; ++i) {
    opts[i].enable_prune = (i & 1) != 0;
    opts[i].enable_cache = (i & 2) != 0;
  }
  SearchEngine baseline(&lake, &sim, opts[0]);
  SearchEngine pruned(&lake, &sim, opts[1]);
  SearchEngine cached(&lake, &sim, opts[2]);
  SearchEngine pruned_cached(&lake, &sim, opts[3]);

  LseiOptions lsh;
  Lsei lsei(&lake, nullptr, lsh);
  PrefilteredSearchEngine pre_baseline(&baseline, &lsei, /*votes=*/1);
  PrefilteredSearchEngine pre_pruned(&pruned_cached, &lsei, /*votes=*/1);

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  size_t total_pruned = 0;
  auto queries = benchgen::MakeQueries(bench.kg, 6, GetParam() * 11 + 3);
  for (const auto& gq : queries) {
    auto reference = baseline.Search(gq.query);
    ASSERT_FALSE(reference.empty());

    SearchStats stats;
    ExpectSameHits(reference, pruned.Search(gq.query, &stats),
                   "pruned serial");
    EXPECT_EQ(stats.tables_scored + stats.tables_pruned,
              stats.candidate_count);
    total_pruned += stats.tables_pruned;
    ExpectSameHits(reference, pruned_cached.Search(gq.query),
                   "pruned cached serial");
    for (ThreadPool* pool : {&pool1, &pool8}) {
      std::string threads = std::to_string(pool->num_threads());
      SearchStats pstats;
      ExpectSameHits(reference,
                     pruned.SearchParallel(gq.query, pool, &pstats),
                     "pruned parallel x" + threads);
      EXPECT_EQ(pstats.tables_scored + pstats.tables_pruned,
                pstats.candidate_count);
      ExpectSameHits(reference,
                     pruned_cached.SearchParallel(gq.query, pool),
                     "pruned cached parallel x" + threads);
    }

    auto pre_reference = pre_baseline.Search(gq.query);
    ExpectSameHits(pre_reference, pre_pruned.Search(gq.query),
                   "pruned prefiltered");
  }
  // The sweep must actually exercise the prune path, not just tolerate it.
  EXPECT_GT(total_pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneParitySweep,
                         ::testing::Values(3, 57, 311));

// --- Upper-bound admissibility ----------------------------------------------------

// The inequality the whole prune pass rests on: UpperBoundTable >=
// ScoreTable for every (query, table) pair, under both row aggregations and
// both similarity backends.
TEST(UpperBoundTest, BoundDominatesExactScoreEverywhere) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.03, 91);
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity type_sim(&bench.kg.kg);
  EmbeddingStore store = benchgen::TrainBenchmarkEmbeddings(bench.kg);
  EmbeddingCosineSimilarity emb_sim(&store);
  const EntitySimilarity* sims[] = {&type_sim, &emb_sim};

  auto queries = benchgen::MakeQueries(bench.kg, 4, 92);
  for (const EntitySimilarity* sim : sims) {
    for (RowAggregation agg : {RowAggregation::kMax, RowAggregation::kAvg}) {
      SearchOptions options;
      options.aggregation = agg;
      SearchEngine engine(&lake, sim, options);
      for (const auto& gq : queries) {
        for (TableId t = 0; t < bench.lake.corpus.size(); ++t) {
          double bound = engine.UpperBoundTable(gq.query, t);
          double exact = engine.ScoreTable(gq.query, t);
          EXPECT_GE(bound, exact)
              << "table " << t << " agg "
              << (agg == RowAggregation::kMax ? "max" : "avg");
          // A zero bound is an exactness claim, not just a bound.
          if (bound == 0.0) EXPECT_EQ(exact, 0.0);
        }
      }
    }
  }
}

// --- Compressed bound backends ----------------------------------------------------

// Same admissibility contract as above, but swept across every
// bound-backend setting and informativeness on and off: the int8 quantized
// bound (code dot + analytic slack) and the packed-bitset bound must
// dominate the exact score on every pair, under both aggregations, and a
// zero bound must still be a proof of a zero score (the slack term gamma >
// 0 guarantees the quantized bound never produces a false zero). The
// batch-fused pass must produce the very same bounds, bit for bit, with
// the memo on and off and on a sharded engine.
TEST(UpperBoundTest, CompressedBoundsDominateExactScoreEverywhere) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.03, 93);
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity type_sim(&bench.kg.kg);
  EmbeddingStore store = benchgen::TrainBenchmarkEmbeddings(bench.kg);
  EmbeddingCosineSimilarity emb_sim(&store);
  const EntitySimilarity* sims[] = {&type_sim, &emb_sim};

  std::vector<Query> queries;
  for (const auto& gq : benchgen::MakeQueries(bench.kg, 3, 94)) {
    queries.push_back(gq.query);
  }
  const size_t num_tables = bench.lake.corpus.size();
  for (const EntitySimilarity* sim : sims) {
    for (RowAggregation agg : {RowAggregation::kMax, RowAggregation::kAvg}) {
      for (SearchOptions::BoundBackend backend :
           {SearchOptions::BoundBackend::kFp32,
            SearchOptions::BoundBackend::kAuto,
            SearchOptions::BoundBackend::kInt8,
            SearchOptions::BoundBackend::kBitset}) {
        for (bool informativeness : {false, true}) {
          SearchOptions options;
          options.aggregation = agg;
          options.bound_backend = backend;
          options.use_informativeness = informativeness;
          const std::string label =
              sim->name() + " backend " +
              std::to_string(static_cast<int>(backend)) +
              (agg == RowAggregation::kMax ? " max" : " avg") +
              (informativeness ? " weighted" : " unweighted");
          SearchEngine engine(&lake, sim, options);
          for (const Query& query : queries) {
            for (TableId t = 0; t < num_tables; ++t) {
              double bound = engine.UpperBoundTable(query, t);
              double exact = engine.ScoreTable(query, t);
              EXPECT_GE(bound, exact) << label << " table " << t;
              if (bound == 0.0) {
                EXPECT_EQ(exact, 0.0) << label << " table " << t;
              }
            }
          }
          // (kAuto resolves differently with the memo off, so each
          // variant is compared with its own per-query bound.)
          SearchOptions nocache = options;
          nocache.enable_cache = false;
          SearchOptions sharded = options;
          sharded.num_shards = 4;
          for (const SearchOptions& variant : {options, nocache, sharded}) {
            SearchEngine variant_engine(&lake, sim, variant);
            auto fused = variant_engine.UpperBoundBatch(queries);
            ASSERT_EQ(fused.size(), queries.size()) << label;
            for (size_t q = 0; q < queries.size(); ++q) {
              ASSERT_EQ(fused[q].size(), num_tables) << label;
              for (TableId t = 0; t < num_tables; ++t) {
                EXPECT_EQ(fused[q][t],
                          variant_engine.UpperBoundTable(queries[q], t))
                    << label << " fused, table " << t;
              }
            }
          }
        }
      }
    }
  }
}

// σ from an explicit symmetric pair table: 1 on the diagonal, 0 for
// unlisted pairs. Lets a micro-lake put its similarity mass exactly where
// an adversarial bound case needs it.
class PairSimilarity : public EntitySimilarity {
 public:
  void Set(EntityId a, EntityId b, double s) {
    pairs_[Key(a, b)] = s;
    pairs_[Key(b, a)] = s;
  }
  double Score(EntityId a, EntityId b) const override {
    if (a == b) return 1.0;
    auto it = pairs_.find(Key(a, b));
    return it == pairs_.end() ? 0.0 : it->second;
  }
  std::string name() const override { return "pairs"; }

 private:
  static uint64_t Key(EntityId a, EntityId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  std::unordered_map<uint64_t, double> pairs_;
};

// A hand-built lake of tiny tables over a handful of entities, each table
// given as rows of cell links (kNoEntity for an unlinked cell).
struct MicroLake {
  KnowledgeGraph kg;
  Corpus corpus;
  PairSimilarity sim;
  std::vector<EntityId> entities;

  explicit MicroLake(size_t num_entities) {
    for (size_t i = 0; i < num_entities; ++i) {
      entities.push_back(kg.AddEntity("e" + std::to_string(i)).value());
    }
  }

  TableId AddTable(const std::vector<std::vector<EntityId>>& rows) {
    std::vector<std::string> names;
    for (size_t c = 0; c < rows.front().size(); ++c) {
      names.push_back("c" + std::to_string(c));
    }
    Table table("t" + std::to_string(corpus.size()), names);
    for (const auto& links : rows) {
      std::vector<Value> values;
      for (EntityId e : links) {
        values.push_back(Value::String(
            e == kNoEntity ? "-" : "e" + std::to_string(e)));
      }
      EXPECT_TRUE(table.AppendRow(std::move(values), links).ok());
    }
    const TableId id = static_cast<TableId>(corpus.size());
    EXPECT_TRUE(corpus.AddTable(std::move(table)).ok());
    return id;
  }
};

// The assignment-free bound the engine used before the mapping-aware one:
// each entity at its maximum σ over the whole table, kMax, unit weights.
double PerEntityMaxBound(const Query& query, const Table& table,
                         const EntitySimilarity& sim) {
  double sum = 0.0;
  size_t counted = 0;
  for (const auto& tq : query.tuples) {
    if (tq.empty()) continue;
    ++counted;
    std::vector<double> coords(tq.size(), 0.0);
    for (size_t i = 0; i < tq.size(); ++i) {
      if (tq[i] == kNoEntity) continue;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        for (size_t c = 0; c < table.num_columns(); ++c) {
          if (table.link(r, c) == kNoEntity) continue;
          coords[i] = std::max(coords[i], sim.Score(tq[i], table.link(r, c)));
        }
      }
    }
    sum += DistanceSimilarity(coords, std::vector<double>(tq.size(), 1.0));
  }
  return sum / static_cast<double>(counted) * (1.0 + 1e-12);
}

// Where the per-column maxima and the injectivity of the mapping matter: a
// table whose σ mass sits in one column. Both query entities peak in
// column 0, but only one of them may map there, so the bound must fall
// strictly below the per-entity maxima and — under kMax, with the exact
// mapping the optimal assignment — land on the exact score plus the final
// 1e-12 slack, bit for bit.
TEST(UpperBoundTest, MappingBoundTightWhenSigmaMassSitsInOneColumn) {
  MicroLake micro(4);
  const EntityId a = micro.entities[0], b = micro.entities[1];
  const EntityId x = micro.entities[2], y = micro.entities[3];
  micro.sim.Set(a, x, 0.875);
  micro.sim.Set(b, x, 0.75);
  micro.sim.Set(a, y, 0.125);
  micro.sim.Set(b, y, 0.125);
  const TableId mass = micro.AddTable({{x, y}, {x, y}});
  const TableId one_column = micro.AddTable({{x}});
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  SearchOptions options;
  options.use_informativeness = false;
  SearchEngine engine(&lake, &micro.sim, options);

  struct Case {
    Query query;
    TableId table;
  };
  const Case cases[] = {
      {Query{{{a, b}}}, mass},
      // One entity twice: only one copy may take column 0.
      {Query{{{a, a}}}, one_column},
      // Wider than the table: two of the three positions stay unmapped.
      {Query{{{a, b, a}}}, one_column},
      // kNoEntity positions cost their weight whatever the table holds.
      {Query{{{a, kNoEntity, b}}}, mass},
  };
  for (const Case& c : cases) {
    const double bound = engine.UpperBoundTable(c.query, c.table);
    const double exact = engine.ScoreTable(c.query, c.table);
    const double loose = PerEntityMaxBound(
        c.query, micro.corpus.table(c.table), micro.sim);
    EXPECT_GT(exact, 0.0);
    EXPECT_LT(bound, loose) << "table " << c.table;
    EXPECT_EQ(bound, exact * (1.0 + 1e-12)) << "table " << c.table;
  }
}

// Randomized adversarial micro-lakes: coarse σ levels (so maxima tie across
// columns), one-row and one-column tables, unlinked cells and columns, a
// very wide table, tuples repeating entities, tuples wider than the table,
// kNoEntity positions, and tuples wide enough to exhaust the assignment
// search's node budget or to skip the search altogether. The bound must dominate the exact score under
// every aggregation and weighting, a zero bound must mean a zero score, the
// fused pass must match bit for bit, and pruned rankings must match
// unpruned ones.
TEST(UpperBoundTest, MicroTableAdversarialSweep) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    auto uniform = [&](size_t n) {
      return static_cast<size_t>(rng() % n);
    };
    MicroLake micro(10);
    const std::vector<EntityId>& ents = micro.entities;
    for (size_t i = 0; i < ents.size(); ++i) {
      for (size_t j = i + 1; j < ents.size(); ++j) {
        const size_t level = uniform(8);  // 0 leaves the pair at σ = 0
        if (level > 0) {
          micro.sim.Set(ents[i], ents[j], static_cast<double>(level) / 8.0);
        }
      }
    }
    auto random_cell = [&] {
      return uniform(5) == 0 ? kNoEntity : ents[uniform(ents.size())];
    };
    for (size_t t = 0; t < 40; ++t) {
      const size_t rows = t % 5 == 0 ? 1 : 1 + uniform(5);
      const size_t cols = t % 7 == 0 ? 1 : 1 + uniform(6);
      std::vector<std::vector<EntityId>> cells(
          rows, std::vector<EntityId>(cols));
      for (auto& row : cells) {
        for (EntityId& cell : row) cell = random_cell();
      }
      if (t % 9 == 0) {
        for (auto& row : cells) row[0] = kNoEntity;  // an unlinked column
      }
      micro.AddTable(cells);
    }
    {
      std::vector<std::vector<EntityId>> wide(2, std::vector<EntityId>(70));
      for (auto& row : wide) {
        for (EntityId& cell : row) cell = random_cell();
      }
      micro.AddTable(wide);
    }
    std::vector<Query> queries;
    for (size_t q = 0; q < 24; ++q) {
      Query query;
      const size_t tuples = 1 + uniform(3);
      for (size_t k = 0; k < tuples; ++k) {
        // Now and then wider than the assignment search's width cap, or
        // wide enough to exhaust its node budget.
        const size_t width =
            q % 8 == 7 ? 20 : (q % 8 == 6 ? 9 : 1 + uniform(5));
        std::vector<EntityId> tuple;
        for (size_t i = 0; i < width; ++i) {
          tuple.push_back(uniform(10) == 0 ? kNoEntity
                                           : ents[uniform(ents.size())]);
        }
        query.tuples.push_back(tuple);
      }
      queries.push_back(query);
    }
    queries.push_back(Query{{{ents[0], ents[0], ents[0]}}});

    SemanticDataLake lake(&micro.corpus, &micro.kg);
    for (RowAggregation agg : {RowAggregation::kMax, RowAggregation::kAvg}) {
      for (bool informativeness : {false, true}) {
        SearchOptions options;
        options.aggregation = agg;
        options.use_informativeness = informativeness;
        options.top_k = 5;
        SearchEngine engine(&lake, &micro.sim, options);
        SearchOptions unpruned_opts = options;
        unpruned_opts.enable_prune = false;
        SearchEngine unpruned(&lake, &micro.sim, unpruned_opts);
        const std::string label =
            "seed " + std::to_string(seed) +
            (agg == RowAggregation::kMax ? " max" : " avg") +
            (informativeness ? " weighted" : " unweighted");
        auto fused = engine.UpperBoundBatch(queries);
        for (size_t q = 0; q < queries.size(); ++q) {
          for (TableId t = 0; t < micro.corpus.size(); ++t) {
            const double bound = engine.UpperBoundTable(queries[q], t);
            const double exact = engine.ScoreTable(queries[q], t);
            EXPECT_GE(bound, exact) << label << " query " << q << " table "
                                    << t;
            if (bound == 0.0) {
              EXPECT_EQ(exact, 0.0) << label << " query " << q << " table "
                                    << t;
            }
            EXPECT_EQ(fused[q][t], bound) << label << " query " << q
                                          << " table " << t;
          }
          ExpectSameHits(unpruned.Search(queries[q]),
                         engine.Search(queries[q]),
                         label + " pruned query " + std::to_string(q));
        }
      }
    }
  }
}

// --- Stats invariants ---------------------------------------------------------------

// Every candidate is either scored exactly or pruned, and a floor hit is a
// kind of prune, in every execution mode: serial, pools, shards,
// fused batches and the LSEI prefilter. The single-partition modes (serial
// and prefiltered on one shard) have no shared score floor at all: no
// floor hit, no publish, and the floor observer never fires.
TEST(SearchStatsInvariantTest, ScoredPlusPrunedIsCandidatesInEveryMode) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.05, 406);
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity sim(&bench.kg.kg);
  std::vector<Query> queries;
  for (const auto& gq : benchgen::MakeQueries(bench.kg, 8, 407)) {
    queries.push_back(gq.query);
  }
  auto expect_invariants = [](const SearchStats& stats,
                              const std::string& label) {
    EXPECT_EQ(stats.tables_scored + stats.tables_pruned,
              stats.candidate_count)
        << label;
    EXPECT_LE(stats.floor_hits, stats.tables_pruned) << label;
  };
  // Counts every floor raise; pooled modes may fire it concurrently.
  std::atomic<size_t> observed{0};
  auto expect_no_floor = [&observed](const SearchStats& stats,
                                     size_t observed_before,
                                     const std::string& label) {
    EXPECT_EQ(stats.floor_hits, 0u) << label;
    EXPECT_EQ(stats.floor_publishes, 0u) << label;
    EXPECT_EQ(observed.load(), observed_before) << label;
  };

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  size_t total_pruned = 0;
  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    SearchOptions options;
    options.num_shards = shards;
    options.floor_observer = [](double, void* ctx) {
      static_cast<std::atomic<size_t>*>(ctx)->fetch_add(1);
    };
    options.floor_observer_ctx = &observed;
    SearchEngine engine(&lake, &sim, options);
    const std::string mode = "shards" + std::to_string(shards);
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string label = mode + " query " + std::to_string(q);
      SearchStats stats;
      const size_t observed_before = observed.load();
      engine.Search(queries[q], &stats);
      expect_invariants(stats, label + " serial");
      if (shards == 1) expect_no_floor(stats, observed_before, label);
      total_pruned += stats.tables_pruned;
      for (ThreadPool* pool : {&pool1, &pool8}) {
        engine.SearchParallel(queries[q], pool, &stats);
        expect_invariants(stats, label + " pool" +
                                     std::to_string(pool->num_threads()));
      }
    }
    QueryExecutor executor(&engine, &pool8);
    executor.set_batch_size(8);
    for (const QueryResult& result : executor.ExecuteBatch(queries)) {
      expect_invariants(result.stats, mode + " fused batch 8");
    }
    LseiOptions lsh;
    Lsei lsei(&lake, nullptr, lsh);
    PrefilteredSearchEngine prefiltered(&engine, &lsei, /*votes=*/1);
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string label =
          mode + " prefiltered query " + std::to_string(q);
      SearchStats stats;
      const size_t observed_before = observed.load();
      prefiltered.Search(queries[q], &stats);
      expect_invariants(stats, label);
      if (shards == 1) expect_no_floor(stats, observed_before, label);
    }
  }
  EXPECT_GT(total_pruned, 0u);
}

// --- The query σ table -------------------------------------------------------------

// The σ table is built once per query, before the partitions fork: a
// 4-shard search on a 3-thread pool fills each distinct query entity's row
// exactly once (|entities| × V base σ evaluations, V the lake
// vocabulary), not once per partition, and ranks exactly like the serial
// and the uncached engine. Every cell entity is in the vocabulary, so
// nothing else reaches the base σ.
TEST(SigmaTableTest, PooledShardsFillEachRowOnce) {
  ExecutorFixture f(406, 8);
  const size_t vocab = f.lake.MentionedEntities().size();
  SearchOptions options;
  options.num_shards = 4;
  SearchEngine engine(&f.lake, &f.sim, options);
  SearchOptions uncached_options = options;
  uncached_options.enable_cache = false;
  SearchEngine uncached(&f.lake, &f.sim, uncached_options);
  ThreadPool pool(3);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    const std::string label = "query " + std::to_string(q);
    const size_t entities = f.queries[q].DistinctEntities().size();
    SearchStats stats;
    auto pooled = engine.SearchParallel(f.queries[q], &pool, &stats);
    EXPECT_EQ(stats.sim_cache_misses, entities * vocab) << label;
    EXPECT_GT(stats.sim_cache_hits, 0u) << label;
    SearchStats serial_stats;
    ExpectSameHits(engine.Search(f.queries[q], &serial_stats), pooled,
                   label + " serial");
    EXPECT_EQ(serial_stats.sim_cache_misses, entities * vocab) << label;
    ExpectSameHits(uncached.SearchParallel(f.queries[q], &pool), pooled,
                   label + " uncached");
  }
}

// The rows are filled exactly when the candidates' distinct-entity unions
// add up to at least the vocabulary size. Each entity of this lake sits in
// one column of one table, so all tables add up to exactly V (rows) and
// any proper subset to less (no rows, σ straight from the base); the
// rankings are the uncached engine's either way.
TEST(SigmaTableTest, RowsFilledExactlyWhenCandidatesCoverVocabulary) {
  KnowledgeGraph kg;
  Taxonomy* tax = kg.mutable_taxonomy();
  const TypeId thing = tax->AddType("Thing").value();
  const TypeId person = tax->AddType("Person", thing).value();
  const TypeId club = tax->AddType("Club", thing).value();
  std::vector<EntityId> e;
  for (int i = 0; i < 6; ++i) {
    e.push_back(kg.AddEntity("e" + std::to_string(i)).value());
    EXPECT_TRUE(kg.AddEntityType(e.back(), i % 2 == 0 ? person : club).ok());
  }
  auto add_row = [](Table& table, EntityId a, EntityId b) {
    EXPECT_TRUE(
        table.AppendRow({Value::String("a"), Value::String("b")}, {a, b})
            .ok());
  };
  Table t0("t0", {"P", "C"});
  add_row(t0, e[0], e[1]);
  add_row(t0, e[0], e[1]);
  Table t1("t1", {"P", "C"});
  add_row(t1, e[2], e[3]);
  Table t2("t2", {"P", "C"});
  add_row(t2, e[4], e[5]);
  Corpus corpus;
  for (Table* t : {&t0, &t1, &t2}) {
    EXPECT_TRUE(corpus.AddTable(std::move(*t)).ok());
  }
  SemanticDataLake lake(&corpus, &kg);
  ASSERT_EQ(lake.MentionedEntities().size(), 6u);
  TypeJaccardSimilarity sim(&kg);
  SearchEngine engine(&lake, &sim);
  SearchOptions uncached_options;
  uncached_options.enable_cache = false;
  SearchEngine uncached(&lake, &sim, uncached_options);
  const Query query{{{e[0], e[3]}, {e[4]}}};

  SearchStats stats;
  const std::vector<TableId> all = {0, 1, 2};
  auto hits = engine.SearchCandidates(query, all, &stats);
  ExpectSameHits(uncached.SearchCandidates(query, all), hits, "all tables");
  EXPECT_EQ(stats.sim_cache_misses, 3u * 6u);
  EXPECT_GT(stats.sim_cache_hits, 0u);
  for (const std::vector<TableId>& subset :
       {std::vector<TableId>{0, 1}, std::vector<TableId>{1, 2},
        std::vector<TableId>{0}}) {
    const std::string label = "subset of " + std::to_string(subset.size());
    hits = engine.SearchCandidates(query, subset, &stats);
    ExpectSameHits(uncached.SearchCandidates(query, subset), hits, label);
    EXPECT_EQ(stats.sim_cache_misses, 0u) << label;
    EXPECT_EQ(stats.sim_cache_hits, 0u) << label;
  }
  for (TableId id : all) {
    EXPECT_EQ(engine.ScoreTable(query, id), uncached.ScoreTable(query, id))
        << "table " << id;
  }
}

// Every execution mode honours SearchOptions::deadline_seconds all or
// nothing: an already-expired budget returns no hits and flags the query,
// and a budget that cannot expire returns exactly the unbudgeted ranking.
TEST(SearchDeadlineTest, AllOrNothingInEveryMode) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.05, 406);
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity sim(&bench.kg.kg);
  std::vector<Query> queries;
  for (const auto& gq : benchgen::MakeQueries(bench.kg, 8, 407)) {
    queries.push_back(gq.query);
  }
  LseiOptions lsh;
  Lsei lsei(&lake, nullptr, lsh);
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  // A mode runs every query on an engine and returns each query's result.
  using Mode = std::function<std::vector<QueryResult>(const SearchEngine&)>;
  auto per_query = [&](auto&& search) {
    std::vector<QueryResult> results(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      results[q].hits = search(queries[q], &results[q].stats);
    }
    return results;
  };
  const std::pair<std::string, Mode> modes[] = {
      {"serial",
       [&](const SearchEngine& engine) {
         return per_query([&](const Query& query, SearchStats* stats) {
           return engine.Search(query, stats);
         });
       }},
      {"pool1",
       [&](const SearchEngine& engine) {
         return per_query([&](const Query& query, SearchStats* stats) {
           return engine.SearchParallel(query, &pool1, stats);
         });
       }},
      {"pool8",
       [&](const SearchEngine& engine) {
         return per_query([&](const Query& query, SearchStats* stats) {
           return engine.SearchParallel(query, &pool8, stats);
         });
       }},
      {"fused batch 8",
       [&](const SearchEngine& engine) {
         QueryExecutor executor(&engine, &pool8);
         executor.set_batch_size(8);
         return executor.ExecuteBatch(queries);
       }},
      {"prefiltered",
       [&](const SearchEngine& engine) {
         PrefilteredSearchEngine prefiltered(&engine, &lsei, /*votes=*/1);
         return per_query([&](const Query& query, SearchStats* stats) {
           return prefiltered.Search(query, stats);
         });
       }},
  };

  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    SearchOptions options;
    options.num_shards = shards;
    SearchEngine engine(&lake, &sim, options);
    for (const auto& [name, mode] : modes) {
      const std::string label = "shards" + std::to_string(shards) + " " + name;
      engine.set_options(options);
      const std::vector<QueryResult> want = mode(engine);

      SearchOptions generous = options;
      generous.deadline_seconds = 1e9;
      engine.set_options(generous);
      const std::vector<QueryResult> got = mode(engine);
      ASSERT_EQ(got.size(), queries.size()) << label;
      size_t ranked = 0;
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string qlabel = label + " query " + std::to_string(q);
        ExpectSameHits(want[q].hits, got[q].hits, qlabel + " generous");
        EXPECT_EQ(got[q].stats.deadline_exceeded, 0u) << qlabel;
        ranked += want[q].hits.empty() ? 0 : 1;
      }
      EXPECT_GT(ranked, 0u) << label;

      SearchOptions instant = options;
      instant.deadline_seconds = 1e-12;
      engine.set_options(instant);
      const std::vector<QueryResult> expired = mode(engine);
      ASSERT_EQ(expired.size(), queries.size()) << label;
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string qlabel = label + " query " + std::to_string(q);
        EXPECT_TRUE(expired[q].hits.empty()) << qlabel << " instant";
        EXPECT_EQ(expired[q].stats.deadline_exceeded, 1u) << qlabel;
      }
    }
  }
}

// Ranking parity of the compressed bound backends: every backend setting —
// including explicit requests the similarity cannot serve, which fall back
// to fp32 — must return hit lists bit-identical to the fp32-bound engine,
// across cache on/off and serial/parallel execution, and the stats must
// report the backend that actually ran.
class BoundBackendParitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundBackendParitySweep, CompressedBoundRankingsMatchFp32Everywhere) {
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.05, GetParam());
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity type_sim(&bench.kg.kg);
  EmbeddingStore store = benchgen::TrainBenchmarkEmbeddings(bench.kg);
  EmbeddingCosineSimilarity emb_sim(&store);
  // Small synthetic vocabularies pack into bitsets; if this lake's did
  // not, kAuto/kBitset legs resolve (correctly) to fp32.
  const char* type_compressed = type_sim.has_bitset() ? "bitset" : "fp32";

  struct Leg {
    const EntitySimilarity* sim;
    SearchOptions::BoundBackend backend;
    const char* resolved;
    // kAuto only takes the compressed backend when the memo is off (with
    // it on, fp32 probes amortize across tables and pre-warm the rerank),
    // so its expected resolution is cache-dependent.
    const char* resolved_cached;
  };
  const Leg legs[] = {
      {&type_sim, SearchOptions::BoundBackend::kBitset, type_compressed,
       type_compressed},
      {&type_sim, SearchOptions::BoundBackend::kAuto, type_compressed,
       "fp32"},
      {&type_sim, SearchOptions::BoundBackend::kInt8, "fp32", "fp32"},
      {&emb_sim, SearchOptions::BoundBackend::kInt8, "int8", "int8"},
      {&emb_sim, SearchOptions::BoundBackend::kAuto, "int8", "fp32"},
      {&emb_sim, SearchOptions::BoundBackend::kBitset, "fp32", "fp32"},
  };

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  auto queries = benchgen::MakeQueries(bench.kg, 4, GetParam() * 5 + 2);
  for (const Leg& leg : legs) {
    SearchOptions ref_opts;
    ref_opts.bound_backend = SearchOptions::BoundBackend::kFp32;
    SearchEngine reference(&lake, leg.sim, ref_opts);
    for (bool cache : {false, true}) {
      SearchOptions opts;
      opts.bound_backend = leg.backend;
      opts.enable_cache = cache;
      SearchEngine engine(&lake, leg.sim, opts);
      const char* resolved = cache ? leg.resolved_cached : leg.resolved;
      const std::string label = leg.sim->name() + "/" + resolved +
                                (cache ? "/cache" : "/nocache");
      for (const auto& gq : queries) {
        auto want = reference.Search(gq.query);
        ASSERT_FALSE(want.empty());
        SearchStats stats;
        ExpectSameHits(want, engine.Search(gq.query, &stats),
                       label + " serial");
        EXPECT_STREQ(stats.bound_backend, resolved) << label;
        EXPECT_EQ(stats.tables_scored + stats.tables_pruned,
                  stats.candidate_count)
            << label;
        for (ThreadPool* pool : {&pool1, &pool8}) {
          SearchStats pstats;
          ExpectSameHits(
              want, engine.SearchParallel(gq.query, pool, &pstats),
              label + " parallel x" + std::to_string(pool->num_threads()));
          EXPECT_STREQ(pstats.bound_backend, resolved) << label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundBackendParitySweep,
                         ::testing::Values(5, 77, 402));

// --- Batch-fused execution parity --------------------------------------------------

// The batch-fusion contract: restructuring the bound pass from query-major
// to table-major (one arena walk per shard, each table's distinct-entity
// slice gathered once and scored against the batch's entity union via the
// multi-query kernels, one shared σ memo per group) must be invisible in
// the results. Rankings AND every deterministic stat field must be
// bit-identical to per-query execution, for every batch size × shard count
// × bound backend × cache setting × pool width.
class BatchFusionParitySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchFusionParitySweep, FusedMatchesPerQueryEverywhere) {
  const size_t num_shards = GetParam();
  Benchmark bench = MakeBenchmark(PresetKind::kWt2015Like, 0.05, 404);
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  TypeJaccardSimilarity type_sim(&bench.kg.kg);
  EmbeddingStore store = benchgen::TrainBenchmarkEmbeddings(bench.kg);
  EmbeddingCosineSimilarity emb_sim(&store);

  std::vector<Query> queries;
  for (const auto& gq : benchgen::MakeQueries(bench.kg, 8, 405)) {
    queries.push_back(gq.query);
  }
  // A repeated query guarantees cross-query entity overlap: any fused
  // group containing both copies must report σ reuse.
  queries.push_back(queries.front());

  struct Leg {
    const EntitySimilarity* sim;
    SearchOptions::BoundBackend backend;
  };
  const Leg legs[] = {
      {&type_sim, SearchOptions::BoundBackend::kFp32},
      {&type_sim, SearchOptions::BoundBackend::kBitset},
      {&emb_sim, SearchOptions::BoundBackend::kInt8},
  };

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (const Leg& leg : legs) {
    for (bool cache : {false, true}) {
      SearchOptions opts;
      opts.num_shards = num_shards;
      opts.bound_backend = leg.backend;
      opts.enable_cache = cache;
      SearchEngine engine(&lake, leg.sim, opts);
      std::vector<std::vector<SearchHit>> want(queries.size());
      std::vector<SearchStats> want_stats(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        want[i] = engine.Search(queries[i], &want_stats[i]);
        ASSERT_FALSE(want[i].empty());
      }
      for (size_t batch : {size_t{1}, size_t{2}, size_t{8}, size_t{32}}) {
        for (ThreadPool* pool : {&pool1, &pool8}) {
          const std::string label =
              leg.sim->name() + (cache ? "/cache" : "/nocache") + "/batch" +
              std::to_string(batch) + "/x" +
              std::to_string(pool->num_threads());
          QueryExecutor executor(&engine, pool);
          executor.set_batch_size(batch);
          EXPECT_STREQ(executor.resolved_mode(),
                       batch > 1 ? "fused" : "per-query")
              << label;
          auto results = executor.ExecuteBatch(queries);
          ASSERT_EQ(results.size(), queries.size()) << label;
          size_t total_reuses = 0;
          for (size_t i = 0; i < queries.size(); ++i) {
            const std::string qlabel = label + " query " + std::to_string(i);
            ExpectSameHits(want[i], results[i].hits, qlabel);
            const SearchStats& got = results[i].stats;
            const SearchStats& ref = want_stats[i];
            EXPECT_EQ(got.tables_scored, ref.tables_scored) << qlabel;
            EXPECT_EQ(got.tables_nonzero, ref.tables_nonzero) << qlabel;
            EXPECT_EQ(got.tables_pruned, ref.tables_pruned) << qlabel;
            EXPECT_EQ(got.candidate_count, ref.candidate_count) << qlabel;
            EXPECT_EQ(got.num_shards, ref.num_shards) << qlabel;
            EXPECT_STREQ(got.bound_backend, ref.bound_backend) << qlabel;
            EXPECT_EQ(got.mapping_cache_hits, ref.mapping_cache_hits)
                << qlabel;
            EXPECT_EQ(got.mapping_cache_misses, ref.mapping_cache_misses)
                << qlabel;
            EXPECT_EQ(got.floor_hits, ref.floor_hits) << qlabel;
            EXPECT_EQ(got.floor_publishes, ref.floor_publishes) << qlabel;
            // The group owns the bound pass's cost: fused queries must not
            // double-count it per query.
            if (batch > 1) EXPECT_EQ(got.bound_seconds, 0.0) << qlabel;
            total_reuses += got.bound_fused_reuses;
          }
          if (batch >= queries.size()) {
            // One group holds the repeated query and its original.
            EXPECT_GT(total_reuses, 0u) << label;
          } else if (batch == 1) {
            EXPECT_EQ(total_reuses, 0u) << label;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, BatchFusionParitySweep,
                         ::testing::Values(1, 4, 16));

TEST(QueryExecutorTest, BatchFuseEscapeHatchRunsPerQuery) {
  ExecutorFixture f(42, 4);
  SearchEngine engine(&f.lake, &f.sim);
  ThreadPool pool(2);
  QueryExecutor executor(&engine, &pool);
  executor.set_batch_size(8);
  EXPECT_STREQ(executor.resolved_mode(), "fused");
  executor.set_batch_fuse(false);
  EXPECT_STREQ(executor.resolved_mode(), "per-query");
  auto results = executor.ExecuteBatch(f.queries);
  ASSERT_EQ(results.size(), f.queries.size());
  for (size_t i = 0; i < f.queries.size(); ++i) {
    ExpectSameHits(engine.Search(f.queries[i]), results[i].hits,
                   "unfused query " + std::to_string(i));
    EXPECT_EQ(results[i].stats.bound_fused_reuses, 0u);
  }
}

TEST(QueryExecutorTest, PrefilterForcesPerQueryMode) {
  // Fused bounds are computed over the full corpus; prefiltered queries
  // each score a different candidate subset, so there is nothing to fuse —
  // the executor must silently fall back and still match the prefiltered
  // reference.
  ExecutorFixture f(42, 4);
  SearchEngine engine(&f.lake, &f.sim);
  LseiOptions lsh;
  Lsei lsei(&f.lake, nullptr, lsh);
  PrefilteredSearchEngine reference(&engine, &lsei, /*votes=*/1);
  ThreadPool pool(2);
  QueryExecutor executor(&engine, &pool);
  executor.set_batch_size(8);
  executor.EnablePrefilter(&lsei, /*votes=*/1);
  EXPECT_STREQ(executor.resolved_mode(), "per-query");
  auto results = executor.ExecuteBatch(f.queries);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    ExpectSameHits(reference.Search(f.queries[i]), results[i].hits,
                   "prefiltered fallback query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace thetis
