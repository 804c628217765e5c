#include <gtest/gtest.h>

#include <cmath>

#include "core/column_mapping.h"
#include "core/query_cache.h"
#include "core/search_engine.h"
#include "core/semrel.h"
#include "core/similarity.h"
#include "linking/entity_linker.h"
#include "semantic/semantic_data_lake.h"

namespace thetis {
namespace {

// A small baseball/volleyball KG mirroring the paper's running example.
struct Fixture {
  KnowledgeGraph kg;
  EntityId santo, cubs, stetter, brewers, volley_a, volley_team, milwaukee;

  Fixture() {
    Taxonomy* tax = kg.mutable_taxonomy();
    TypeId thing = tax->AddType("Thing").value();
    TypeId person = tax->AddType("Person", thing).value();
    TypeId athlete = tax->AddType("Athlete", person).value();
    TypeId bb_player = tax->AddType("BaseballPlayer", athlete).value();
    TypeId vb_player = tax->AddType("VolleyballPlayer", athlete).value();
    TypeId org = tax->AddType("Organisation", thing).value();
    TypeId team = tax->AddType("SportsTeam", org).value();
    TypeId bb_team = tax->AddType("BaseballTeam", team).value();
    TypeId vb_team = tax->AddType("VolleyballTeam", team).value();
    TypeId place = tax->AddType("Place", thing).value();
    TypeId city = tax->AddType("City", place).value();

    santo = kg.AddEntity("Ron Santo").value();
    cubs = kg.AddEntity("Chicago Cubs").value();
    stetter = kg.AddEntity("Mitch Stetter").value();
    brewers = kg.AddEntity("Milwaukee Brewers").value();
    volley_a = kg.AddEntity("Volley Player A").value();
    volley_team = kg.AddEntity("Volley Team X").value();
    milwaukee = kg.AddEntity("Milwaukee").value();

    EXPECT_TRUE(kg.AddEntityType(santo, bb_player).ok());
    EXPECT_TRUE(kg.AddEntityType(stetter, bb_player).ok());
    EXPECT_TRUE(kg.AddEntityType(volley_a, vb_player).ok());
    EXPECT_TRUE(kg.AddEntityType(cubs, bb_team).ok());
    EXPECT_TRUE(kg.AddEntityType(brewers, bb_team).ok());
    EXPECT_TRUE(kg.AddEntityType(volley_team, vb_team).ok());
    EXPECT_TRUE(kg.AddEntityType(milwaukee, city).ok());
  }
};

// --- TypeJaccardSimilarity (Eq. 4) ---------------------------------------------

TEST(TypeJaccardTest, IdenticalEntityIsOne) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  EXPECT_DOUBLE_EQ(sim.Score(f.santo, f.santo), 1.0);
}

TEST(TypeJaccardTest, SameTypesCappedAt095) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  // Santo and Stetter share the exact same type set but are distinct.
  EXPECT_DOUBLE_EQ(sim.Score(f.santo, f.stetter), 0.95);
}

TEST(TypeJaccardTest, RelatedTypesScoreBetweenZeroAndCap) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  // Baseball player vs volleyball player share Athlete/Person/Thing.
  double s = sim.Score(f.santo, f.volley_a);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 0.95);
  // Baseball player vs city share only Thing: lower still.
  double weak = sim.Score(f.santo, f.milwaukee);
  EXPECT_GT(s, weak);
}

TEST(TypeJaccardTest, Symmetric) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  EXPECT_DOUBLE_EQ(sim.Score(f.santo, f.cubs), sim.Score(f.cubs, f.santo));
}

TEST(TypeJaccardTest, SemanticOrderingMatchesIntuition) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  // Same-sport team more similar than cross-sport team, more than a city.
  double same_sport = sim.Score(f.cubs, f.brewers);
  double cross_sport = sim.Score(f.cubs, f.volley_team);
  double vs_city = sim.Score(f.cubs, f.milwaukee);
  EXPECT_GT(same_sport, cross_sport);
  EXPECT_GT(cross_sport, vs_city);
}

TEST(TypeJaccardTest, NoAncestorsVariantIsStricter) {
  Fixture f;
  TypeJaccardSimilarity with(&f.kg, /*include_ancestors=*/true);
  TypeJaccardSimilarity without(&f.kg, /*include_ancestors=*/false);
  // Without ancestor expansion, baseball vs volleyball players share nothing.
  EXPECT_DOUBLE_EQ(without.Score(f.santo, f.volley_a), 0.0);
  EXPECT_GT(with.Score(f.santo, f.volley_a), 0.0);
}

TEST(JaccardOfSortedTest, Basics) {
  EXPECT_DOUBLE_EQ(JaccardOfSorted({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardOfSorted({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardOfSorted({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOfSorted({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardOfSorted({}, {1}), 0.0);
}

// --- EmbeddingCosineSimilarity ---------------------------------------------------

TEST(EmbeddingCosineTest, ClampsToUnitInterval) {
  EmbeddingStore store(3, 2);
  store.mutable_vector(0)[0] = 1.0f;
  store.mutable_vector(1)[0] = -1.0f;  // opposite
  store.mutable_vector(2)[1] = 1.0f;   // orthogonal
  EmbeddingCosineSimilarity sim(&store);
  EXPECT_DOUBLE_EQ(sim.Score(0, 1), 0.0);  // cosine -1 clamped
  EXPECT_DOUBLE_EQ(sim.Score(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(sim.Score(0, 0), 1.0);  // identity even without norm
}

// --- DistanceSimilarity (Eqs. 2-3) -----------------------------------------------

TEST(DistanceSimilarityTest, PerfectMatchIsOne) {
  EXPECT_DOUBLE_EQ(DistanceSimilarity({1.0, 1.0}, {1.0, 1.0}), 1.0);
}

TEST(DistanceSimilarityTest, TotalMissScoresByWeightMass) {
  // All x = 0: D = sqrt(Σ w), SemRel = 1/(D+1).
  EXPECT_DOUBLE_EQ(DistanceSimilarity({0.0}, {1.0}), 0.5);
  EXPECT_NEAR(DistanceSimilarity({0.0, 0.0}, {1.0, 1.0}),
              1.0 / (std::sqrt(2.0) + 1.0), 1e-12);
}

TEST(DistanceSimilarityTest, MonotoneInCoordinates) {
  double low = DistanceSimilarity({0.2, 0.5}, {1.0, 1.0});
  double high = DistanceSimilarity({0.4, 0.5}, {1.0, 1.0});
  EXPECT_GT(high, low);
}

TEST(DistanceSimilarityTest, LowerWeightReducesPenalty) {
  double heavy = DistanceSimilarity({0.0, 1.0}, {1.0, 1.0});
  double light = DistanceSimilarity({0.0, 1.0}, {0.25, 1.0});
  EXPECT_GT(light, heavy);
}

// --- TupleSemRel & the relevance axioms -------------------------------------------

TEST(TupleSemRelTest, Axiom1TotalExactBeatsNonExact) {
  // t_Q ≈TE t_T1 (exact copy) must beat any non-total-exact target.
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  std::vector<EntityId> tq = {f.stetter, f.brewers};
  std::vector<EntityId> exact = {f.stetter, f.brewers};
  std::vector<EntityId> related = {f.santo, f.cubs};
  std::vector<EntityId> partial = {f.stetter, f.milwaukee};
  double s_exact = TupleSemRel(tq, exact, sim);
  EXPECT_DOUBLE_EQ(s_exact, 1.0);
  EXPECT_GT(s_exact, TupleSemRel(tq, related, sim));
  EXPECT_GT(s_exact, TupleSemRel(tq, partial, sim));
}

TEST(TupleSemRelTest, Axiom2LargerPartialExactMappingWins) {
  // T1 exactly contains both query entities' matches; T2 only one.
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  std::vector<EntityId> tq = {f.stetter, f.brewers};
  std::vector<EntityId> t1 = {f.stetter, f.brewers, f.milwaukee};
  std::vector<EntityId> t2 = {f.stetter, f.volley_team};
  EXPECT_GE(TupleSemRel(tq, t1, sim), TupleSemRel(tq, t2, sim));
}

TEST(TupleSemRelTest, Axiom3HigherSigmaPerEntityWins) {
  // Every mapped entity in T1 is more similar than its T2 counterpart.
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  std::vector<EntityId> tq = {f.stetter, f.brewers};
  // T1: same-type player + same-type team; T2: cross-sport player + city.
  std::vector<EntityId> t1 = {f.santo, f.cubs};
  std::vector<EntityId> t2 = {f.volley_a, f.milwaukee};
  EXPECT_GT(TupleSemRel(tq, t1, sim), TupleSemRel(tq, t2, sim));
}

TEST(TupleSemRelTest, SubsetAsymmetry) {
  // Section 4.1: for t2 ⊂ t1, SemRel(t1, t2) <= SemRel(t2, t1).
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  std::vector<EntityId> t1 = {f.stetter, f.brewers};
  std::vector<EntityId> t2 = {f.brewers};
  EXPECT_LE(TupleSemRel(t1, t2, sim), TupleSemRel(t2, t1, sim));
  EXPECT_DOUBLE_EQ(TupleSemRel(t2, t1, sim), 1.0);
}

TEST(TupleSemRelTest, IrrelevantTargetScoresBaseline) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg, /*include_ancestors=*/false);
  std::vector<EntityId> tq = {f.stetter};
  std::vector<EntityId> tt = {f.milwaukee};  // no shared direct types
  // σ = 0 -> coordinate 0 -> SemRel = 1/(1+1).
  EXPECT_DOUBLE_EQ(TupleSemRel(tq, tt, sim), 0.5);
}

TEST(TupleSemRelTest, InjectiveMappingEnforced) {
  // Two query entities cannot both map to the single target entity: one
  // coordinate must be 0.
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  std::vector<EntityId> tq = {f.stetter, f.santo};
  std::vector<EntityId> tt = {f.stetter};
  double s = TupleSemRel(tq, tt, sim);
  // Best case: x = (1, 0) -> 1/(1+1) = 0.5... but with weights=1:
  EXPECT_NEAR(s, 1.0 / (1.0 + 1.0), 1e-9);
}

TEST(TupleSemRelTest, WeightsChangeScore) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  std::vector<EntityId> tq = {f.stetter, f.brewers};
  std::vector<EntityId> tt = {f.stetter};  // second entity unmatched
  double balanced = TupleSemRel(tq, tt, sim, {1.0, 1.0});
  double downweighted = TupleSemRel(tq, tt, sim, {1.0, 0.1});
  EXPECT_GT(downweighted, balanced);
}

// --- Column mapping -----------------------------------------------------------------

Table MakeBaseballTable(const Fixture& f) {
  Table t("bb", {"Player", "Team"});
  EXPECT_TRUE(t.AppendRow({Value::String("Ron Santo"),
                           Value::String("Chicago Cubs")},
                          {f.santo, f.cubs})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value::String("Mitch Stetter"),
                           Value::String("Milwaukee Brewers")},
                          {f.stetter, f.brewers})
                  .ok());
  return t;
}

TEST(ColumnMappingTest, MapsEntitiesToMatchingColumns) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  Table t = MakeBaseballTable(f);
  // Query (player, team) should map to columns (0, 1).
  ColumnMapping m = MapQueryTupleToColumns({f.santo, f.cubs}, t, sim);
  EXPECT_EQ(m.column_of_entity, (std::vector<int>{0, 1}));
  EXPECT_GT(m.total_score, 0.0);
}

TEST(ColumnMappingTest, SwappedQueryStillMapsCorrectly) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  Table t = MakeBaseballTable(f);
  ColumnMapping m = MapQueryTupleToColumns({f.brewers, f.stetter}, t, sim);
  EXPECT_EQ(m.column_of_entity, (std::vector<int>{1, 0}));
}

TEST(ColumnMappingTest, UnmappableEntityGetsMinusOne) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg, /*include_ancestors=*/false);
  Table t = MakeBaseballTable(f);
  // A city shares no direct types with players/teams.
  ColumnMapping m = MapQueryTupleToColumns({f.milwaukee}, t, sim);
  EXPECT_EQ(m.column_of_entity, (std::vector<int>{-1}));
  EXPECT_DOUBLE_EQ(m.total_score, 0.0);
}

TEST(ColumnMappingTest, DistinctColumnsEnforced) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  Table t = MakeBaseballTable(f);
  // Two players both prefer column 0 but must split.
  ColumnMapping m = MapQueryTupleToColumns({f.santo, f.stetter}, t, sim);
  ASSERT_EQ(m.column_of_entity.size(), 2u);
  EXPECT_NE(m.column_of_entity[0], m.column_of_entity[1]);
}

TEST(ColumnMappingTest, UnlinkedTableYieldsNoMapping) {
  Fixture f;
  TypeJaccardSimilarity sim(&f.kg);
  Table t("plain", {"a", "b"});
  ASSERT_TRUE(t.AppendRow({Value::Number(1), Value::Number(2)}).ok());
  ColumnMapping m = MapQueryTupleToColumns({f.santo}, t, sim);
  EXPECT_EQ(m.column_of_entity, (std::vector<int>{-1}));
}

// --- SearchEngine (Algorithm 1) ------------------------------------------------------

struct EngineFixture : Fixture {
  Corpus corpus;
  TableId baseball_id, volleyball_id, city_id, empty_id;

  EngineFixture() {
    baseball_id = corpus.AddTable(MakeBaseballTable(*this)).value();

    Table volleyball("vb", {"Player", "Team"});
    EXPECT_TRUE(volleyball
                    .AppendRow({Value::String("Volley Player A"),
                                Value::String("Volley Team X")},
                               {volley_a, volley_team})
                    .ok());
    volleyball_id = corpus.AddTable(std::move(volleyball)).value();

    Table cities("cities", {"City"});
    EXPECT_TRUE(cities.AppendRow({Value::String("Milwaukee")}, {milwaukee})
                    .ok());
    city_id = corpus.AddTable(std::move(cities)).value();

    Table unlinked("unlinked", {"x"});
    EXPECT_TRUE(unlinked.AppendRow({Value::Number(3)}).ok());
    empty_id = corpus.AddTable(std::move(unlinked)).value();
  }
};

TEST(SearchEngineTest, RanksBaseballAboveVolleyballAboveCities) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  Query q{{{f.stetter, f.brewers}}};
  auto hits = engine.Search(q);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0].table, f.baseball_id);
  EXPECT_EQ(hits[1].table, f.volleyball_id);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST(SearchEngineTest, UnlinkedTableExcluded) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  Query q{{{f.stetter, f.brewers}}};
  auto hits = engine.Search(q);
  for (const auto& h : hits) {
    EXPECT_NE(h.table, f.empty_id);
  }
}

TEST(SearchEngineTest, ExactTableScoresHighest) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  double exact = engine.ScoreTable(Query{{{f.santo, f.cubs}}}, f.baseball_id);
  double other = engine.ScoreTable(Query{{{f.santo, f.cubs}}}, f.volleyball_id);
  EXPECT_GT(exact, other);
  EXPECT_DOUBLE_EQ(
      SearchEngine(&lake, &sim,
                   SearchOptions{.top_k = 10,
                                 .aggregation = RowAggregation::kMax,
                                 .use_informativeness = false})
          .ScoreTable(Query{{{f.santo, f.cubs}}}, f.baseball_id),
      1.0);
}

TEST(SearchEngineTest, MaxAggregationDominatesAvg) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchOptions max_opts;
  max_opts.aggregation = RowAggregation::kMax;
  SearchOptions avg_opts;
  avg_opts.aggregation = RowAggregation::kAvg;
  SearchEngine max_engine(&lake, &sim, max_opts);
  SearchEngine avg_engine(&lake, &sim, avg_opts);
  Query q{{{f.santo, f.cubs}}};
  EXPECT_GE(max_engine.ScoreTable(q, f.baseball_id),
            avg_engine.ScoreTable(q, f.baseball_id));
}

TEST(SearchEngineTest, MultiTupleQueryAverages) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  Query single{{{f.santo, f.cubs}}};
  Query both{{{f.santo, f.cubs}, {f.volley_a, f.volley_team}}};
  double s_single = engine.ScoreTable(single, f.baseball_id);
  double s_both = engine.ScoreTable(both, f.baseball_id);
  // Adding a volleyball tuple dilutes the baseball table's score.
  EXPECT_LT(s_both, s_single);
  EXPECT_GT(s_both, 0.0);
}

TEST(SearchEngineTest, StatsPopulated) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  SearchStats stats;
  engine.Search(Query{{{f.stetter, f.brewers}}}, &stats);
  // With bound-and-prune on (the default), scored + pruned partitions the
  // candidate set.
  EXPECT_EQ(stats.tables_scored + stats.tables_pruned, f.corpus.size());
  EXPECT_GT(stats.tables_nonzero, 0u);
  EXPECT_GE(stats.total_seconds, 0.0);
  EXPECT_GE(stats.mapping_seconds, 0.0);
  EXPECT_LE(stats.mapping_seconds, stats.total_seconds + 1e-6);
}

TEST(SearchEngineTest, SearchCandidatesRestrictsScope) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  Query q{{{f.stetter, f.brewers}}};
  auto hits = engine.SearchCandidates(q, {f.volleyball_id});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].table, f.volleyball_id);
}

TEST(SearchEngineTest, TopKTruncates) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchOptions options;
  options.top_k = 1;
  SearchEngine engine(&lake, &sim, options);
  auto hits = engine.Search(Query{{{f.stetter, f.brewers}}});
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].table, f.baseball_id);
}

TEST(SearchEngineTest, EmptyQueryScoresZero) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  EXPECT_DOUBLE_EQ(engine.ScoreTable(Query{}, f.baseball_id), 0.0);
  EXPECT_TRUE(engine.Search(Query{}).empty());
}

TEST(QueryTest, DistinctEntities) {
  Query q{{{1, 2, kNoEntity}, {2, 3}}};
  EXPECT_EQ(q.DistinctEntities(), (std::vector<EntityId>{1, 2, 3}));
}

// --- Query-scoped cache -----------------------------------------------------------

TEST(QueryCacheTest, MappingForMatchesUncachedMapping) {
  EngineFixture f;
  TypeJaccardSimilarity sim(&f.kg);
  QueryScopedCache cache;
  const SigmaVocabulary vocab;
  const QuerySigmaTable table(&sim, &vocab, {}, 0);  // no rows: base σ
  const SigmaReader sigma(&table);
  std::vector<EntityId> tq = {f.stetter, f.brewers};
  for (TableId id = 0; id < f.corpus.size(); ++id) {
    const Table& t = f.corpus.table(id);
    ColumnMapping want = MapQueryTupleToColumns(tq, t, sim);
    const ColumnMapping& got = cache.MappingFor(0, tq, t, id, sigma);
    EXPECT_EQ(got.column_of_entity, want.column_of_entity) << "table " << id;
    EXPECT_EQ(got.total_score, want.total_score) << "table " << id;
  }
  // The four fixture tables all have distinct column contents.
  EXPECT_EQ(cache.mapping_misses(), f.corpus.size());
  EXPECT_EQ(cache.mapping_hits(), 0u);
  // Asking again is pure cache hits.
  for (TableId id = 0; id < f.corpus.size(); ++id) {
    cache.MappingFor(0, tq, f.corpus.table(id), id, sigma);
  }
  EXPECT_EQ(cache.mapping_hits(), f.corpus.size());
}

TEST(QueryCacheTest, IdenticalContentTablesShareOneMapping) {
  EngineFixture f;
  // A clone of the baseball table under another name: same per-column
  // entity multisets, so the Hungarian mapping is reused.
  Table clone = MakeBaseballTable(f);
  clone.set_name("bb_clone");
  TableId clone_id = f.corpus.AddTable(std::move(clone)).value();
  TypeJaccardSimilarity sim(&f.kg);
  QueryScopedCache cache;
  const SigmaVocabulary vocab;
  const QuerySigmaTable table(&sim, &vocab, {}, 0);  // no rows: base σ
  const SigmaReader sigma(&table);
  std::vector<EntityId> tq = {f.santo, f.cubs};
  const ColumnMapping& first = cache.MappingFor(
      0, tq, f.corpus.table(f.baseball_id), f.baseball_id, sigma);
  const ColumnMapping& second =
      cache.MappingFor(0, tq, f.corpus.table(clone_id), clone_id, sigma);
  EXPECT_EQ(cache.mapping_misses(), 1u);
  EXPECT_EQ(cache.mapping_hits(), 1u);
  EXPECT_EQ(&first, &second);
  // Different tuple index: solved separately even for the same signature.
  cache.MappingFor(1, tq, f.corpus.table(clone_id), clone_id, sigma);
  EXPECT_EQ(cache.mapping_misses(), 2u);
}

TEST(SearchEngineTest, CachedSearchIdenticalToUncached) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchOptions cached_opts;
  cached_opts.enable_cache = true;
  SearchOptions uncached_opts;
  uncached_opts.enable_cache = false;
  SearchEngine cached(&lake, &sim, cached_opts);
  SearchEngine uncached(&lake, &sim, uncached_opts);
  for (const Query& q :
       {Query{{{f.stetter, f.brewers}}}, Query{{{f.santo, f.cubs}}},
        Query{{{f.stetter, f.brewers}, {f.volley_a, f.volley_team}}}}) {
    auto want = uncached.Search(q);
    auto got = cached.Search(q);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].table, got[i].table);
      EXPECT_EQ(want[i].score, got[i].score);  // bit-identical
    }
  }
}

TEST(SearchEngineTest, CacheCountersReportedInStats) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);  // cache on by default
  SearchStats stats;
  engine.Search(Query{{{f.stetter, f.brewers}}}, &stats);
  EXPECT_GT(stats.sim_cache_misses, 0u);
  EXPECT_GT(stats.mapping_cache_misses, 0u);

  SearchOptions off;
  off.enable_cache = false;
  SearchEngine uncached(&lake, &sim, off);
  SearchStats none;
  uncached.Search(Query{{{f.stetter, f.brewers}}}, &none);
  EXPECT_EQ(none.sim_cache_hits, 0u);
  EXPECT_EQ(none.sim_cache_misses, 0u);
  EXPECT_EQ(none.mapping_cache_hits, 0u);
  EXPECT_EQ(none.mapping_cache_misses, 0u);
}

// --- Explain --------------------------------------------------------------------

TEST(ExplainTest, ScoreMatchesScoreTable) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  Query q{{{f.stetter, f.brewers}}};
  for (TableId id = 0; id < f.corpus.size(); ++id) {
    Explanation e = engine.Explain(q, id);
    EXPECT_EQ(e.table, id);
    EXPECT_DOUBLE_EQ(e.score, engine.ScoreTable(q, id));
  }
}

TEST(ExplainTest, ExactMatchExplained) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  Explanation e = engine.Explain(Query{{{f.santo, f.cubs}}}, f.baseball_id);
  ASSERT_EQ(e.tuples.size(), 1u);
  ASSERT_EQ(e.tuples[0].entities.size(), 2u);
  const EntityExplanation& player = e.tuples[0].entities[0];
  EXPECT_EQ(player.entity, f.santo);
  EXPECT_EQ(player.column, 0);  // Player column
  EXPECT_DOUBLE_EQ(player.coordinate, 1.0);
  EXPECT_EQ(player.best_match, f.santo);
  const EntityExplanation& team = e.tuples[0].entities[1];
  EXPECT_EQ(team.column, 1);  // Team column
  EXPECT_DOUBLE_EQ(team.coordinate, 1.0);
  EXPECT_EQ(team.best_match, f.cubs);
}

TEST(ExplainTest, RelatedMatchExplained) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  // Brewers tuple against the volleyball table: related, not exact.
  Explanation e = engine.Explain(Query{{{f.stetter, f.brewers}}},
                                 f.volleyball_id);
  ASSERT_EQ(e.tuples.size(), 1u);
  const EntityExplanation& player = e.tuples[0].entities[0];
  EXPECT_GT(player.coordinate, 0.0);  // related types overlap
  EXPECT_LT(player.coordinate, 1.0);  // but no exact match
  EXPECT_EQ(player.best_match, f.volley_a);
  // Weights reflect informativeness (in (0, 1]).
  EXPECT_GT(player.weight, 0.0);
  EXPECT_LE(player.weight, 1.0);
}

TEST(ExplainTest, UnmappableEntityExplained) {
  EngineFixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeJaccardSimilarity sim(&f.kg);
  SearchEngine engine(&lake, &sim);
  // The cities table has no column for a team under direct-type matching.
  TypeJaccardSimilarity strict(&f.kg, /*include_ancestors=*/false);
  SearchEngine strict_engine(&lake, &strict);
  Explanation e = strict_engine.Explain(Query{{{f.cubs}}}, f.city_id);
  ASSERT_EQ(e.tuples.size(), 1u);
  EXPECT_EQ(e.tuples[0].entities[0].column, -1);
  EXPECT_DOUBLE_EQ(e.tuples[0].entities[0].coordinate, 0.0);
  EXPECT_EQ(e.tuples[0].entities[0].best_match, kNoEntity);
}

}  // namespace
}  // namespace thetis
