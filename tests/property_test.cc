// Parameterized property-style sweeps over the library's core invariants:
// LSH collision probabilities, assignment optimality, the SemRel axioms on
// randomized knowledge graphs, metric properties of the similarities, and
// ranking-metric sanity across cutoffs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>

#include "assignment/hungarian.h"
#include "benchgen/benchmark_factory.h"
#include "benchgen/metrics.h"
#include "core/column_mapping.h"
#include "core/extended_similarity.h"
#include "core/search_engine.h"
#include "core/semrel.h"
#include "core/sigma_table.h"
#include "core/similarity.h"
#include "embedding/embedding_store.h"
#include "lsh/band_index.h"
#include "lsh/hyperplane.h"
#include "lsh/minhash.h"
#include "semantic/semantic_data_lake.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace thetis {
namespace {

// --- MinHash agreement tracks Jaccard across overlap levels ---------------------

class MinHashJaccardSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinHashJaccardSweep, AgreementRateApproximatesJaccard) {
  // Build two 200-element sets with the requested overlap percentage.
  int overlap_pct = GetParam();
  size_t n = 200;
  size_t shared = n * overlap_pct / 100;
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  for (uint64_t i = 0; i < shared; ++i) {
    a.push_back(i);
    b.push_back(i);
  }
  for (uint64_t i = 0; a.size() < n; ++i) a.push_back(1000 + i);
  for (uint64_t i = 0; b.size() < n; ++i) b.push_back(2000 + i);
  double jaccard =
      static_cast<double>(shared) / static_cast<double>(2 * n - shared);

  MinHasher hasher(1024, 77);
  auto sa = hasher.Signature(a);
  auto sb = hasher.Signature(b);
  size_t agree = 0;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (sa[i] == sb[i]) ++agree;
  }
  double rate = static_cast<double>(agree) / static_cast<double>(sa.size());
  EXPECT_NEAR(rate, jaccard, 0.05) << "overlap " << overlap_pct << "%";
}

INSTANTIATE_TEST_SUITE_P(OverlapLevels, MinHashJaccardSweep,
                         ::testing::Values(0, 10, 25, 50, 75, 90, 100));

// --- Hyperplane agreement follows 1 - θ/π across angles --------------------------

class HyperplaneAngleSweep : public ::testing::TestWithParam<int> {};

TEST_P(HyperplaneAngleSweep, AgreementMatchesAngleFormula) {
  double theta = GetParam() * M_PI / 180.0;
  HyperplaneHasher hasher(4096, 2, 13);
  float a[] = {1.0f, 0.0f};
  float b[] = {static_cast<float>(std::cos(theta)),
               static_cast<float>(std::sin(theta))};
  auto sa = hasher.Signature(a);
  auto sb = hasher.Signature(b);
  size_t agree = 0;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (sa[i] == sb[i]) ++agree;
  }
  double rate = static_cast<double>(agree) / static_cast<double>(sa.size());
  EXPECT_NEAR(rate, 1.0 - theta / M_PI, 0.03) << "angle " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Angles, HyperplaneAngleSweep,
                         ::testing::Values(0, 15, 30, 60, 90, 120, 150, 180));

// --- Hungarian optimality across matrix shapes ------------------------------------

using Shape = std::tuple<int, int>;

class HungarianShapeSweep : public ::testing::TestWithParam<Shape> {};

double BruteForceBest(const std::vector<std::vector<double>>& scores) {
  size_t k = scores.size();
  size_t n = scores[0].size();
  size_t m = std::max(k, n);
  std::vector<size_t> cols(m);
  for (size_t j = 0; j < m; ++j) cols[j] = j;
  double best = -1e18;
  do {
    double total = 0.0;
    for (size_t i = 0; i < k; ++i) {
      if (cols[i] < n) total += scores[i][cols[i]];
    }
    best = std::max(best, total);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

TEST_P(HungarianShapeSweep, OptimalAndInjectiveOnRandomMatrices) {
  auto [k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(k * 100 + n));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<double>> scores(k, std::vector<double>(n));
    for (auto& row : scores) {
      for (double& v : row) v = rng.NextDouble();
    }
    AssignmentResult r = SolveMaxAssignment(scores);
    EXPECT_NEAR(r.total_score, BruteForceBest(scores), 1e-9);
    std::set<int> used;
    for (int c : r.column_of_row) {
      if (c >= 0) EXPECT_TRUE(used.insert(c).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HungarianShapeSweep,
    ::testing::Values(Shape{1, 1}, Shape{1, 5}, Shape{5, 1}, Shape{2, 3},
                      Shape{3, 2}, Shape{3, 3}, Shape{4, 6}, Shape{6, 4},
                      Shape{5, 5}));

// --- SemRel axioms on randomized type worlds ---------------------------------------

// Builds a random KG: `num_entities` entities with random type subsets over
// a small taxonomy; returns it with the per-entity direct type sets.
KnowledgeGraph RandomTypedKg(uint64_t seed, size_t num_entities) {
  Rng rng(seed);
  KnowledgeGraph kg;
  Taxonomy* tax = kg.mutable_taxonomy();
  TypeId thing = tax->AddType("Thing").value();
  std::vector<TypeId> leaves;
  for (int c = 0; c < 4; ++c) {
    TypeId cls = tax->AddType("C" + std::to_string(c), thing).value();
    for (int s = 0; s < 3; ++s) {
      leaves.push_back(
          tax->AddType("C" + std::to_string(c) + "S" + std::to_string(s), cls)
              .value());
    }
  }
  for (size_t i = 0; i < num_entities; ++i) {
    EntityId e = kg.AddEntity("e" + std::to_string(i)).value();
    size_t count = 1 + rng.NextBounded(3);
    for (size_t t = 0; t < count; ++t) {
      kg.AddEntityType(
          e, leaves[rng.NextBounded(static_cast<uint32_t>(leaves.size()))]);
    }
  }
  return kg;
}

class SemRelAxiomSweep : public ::testing::TestWithParam<int> {};

TEST_P(SemRelAxiomSweep, Axiom1TotalExactMappingIsTop) {
  KnowledgeGraph kg = RandomTypedKg(GetParam(), 24);
  TypeJaccardSimilarity sim(&kg);
  Rng rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    size_t m = 1 + rng.NextBounded(3);
    std::vector<EntityId> tq;
    for (size_t i = 0; i < m; ++i) tq.push_back(rng.NextBounded(24));
    // The exact copy scores 1; any random other tuple scores <= 1.
    EXPECT_DOUBLE_EQ(TupleSemRel(tq, tq, sim), 1.0);
    std::vector<EntityId> other;
    for (size_t i = 0; i < m; ++i) other.push_back(rng.NextBounded(24));
    EXPECT_LE(TupleSemRel(tq, other, sim), 1.0);
  }
}

TEST_P(SemRelAxiomSweep, Axiom2SupersetOfExactMatchesNeverWorse) {
  KnowledgeGraph kg = RandomTypedKg(GetParam() + 100, 24);
  TypeJaccardSimilarity sim(&kg);
  Rng rng(GetParam() * 37 + 5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<EntityId> tq = {rng.NextBounded(24), rng.NextBounded(24)};
    // T1 contains exact matches for both query entities; T2 for only one.
    std::vector<EntityId> t1 = {tq[0], tq[1], rng.NextBounded(24)};
    std::vector<EntityId> t2 = {tq[0]};
    EXPECT_GE(TupleSemRel(tq, t1, sim) + 1e-12, TupleSemRel(tq, t2, sim));
  }
}

TEST_P(SemRelAxiomSweep, Axiom3PointwiseHigherSigmaScoresHigher) {
  KnowledgeGraph kg = RandomTypedKg(GetParam() + 200, 24);
  TypeJaccardSimilarity sim(&kg);
  Rng rng(GetParam() * 41 + 7);
  for (int trial = 0; trial < 40; ++trial) {
    EntityId q = rng.NextBounded(24);
    EntityId a = rng.NextBounded(24);
    EntityId b = rng.NextBounded(24);
    double sa = sim.Score(q, a);
    double sb = sim.Score(q, b);
    if (sa > sb) {
      EXPECT_GT(TupleSemRel({q}, {a}, sim), TupleSemRel({q}, {b}, sim));
    }
  }
}

TEST_P(SemRelAxiomSweep, SubsetAsymmetryHolds) {
  KnowledgeGraph kg = RandomTypedKg(GetParam() + 300, 24);
  TypeJaccardSimilarity sim(&kg);
  Rng rng(GetParam() * 43 + 11);
  for (int trial = 0; trial < 20; ++trial) {
    EntityId a = rng.NextBounded(24);
    EntityId b = rng.NextBounded(24);
    if (a == b) continue;
    std::vector<EntityId> t1 = {a, b};
    std::vector<EntityId> t2 = {a};
    // SemRel(t1, t2) <= SemRel(t2, t1) for t2 ⊂ t1 (Section 4.1).
    EXPECT_LE(TupleSemRel(t1, t2, sim), TupleSemRel(t2, t1, sim) + 1e-12);
  }
}

TEST_P(SemRelAxiomSweep, SigmaIsSymmetricBoundedIdentityOne) {
  KnowledgeGraph kg = RandomTypedKg(GetParam() + 400, 24);
  TypeJaccardSimilarity sim(&kg);
  for (EntityId a = 0; a < 24; ++a) {
    EXPECT_DOUBLE_EQ(sim.Score(a, a), 1.0);
    for (EntityId b = 0; b < 24; ++b) {
      double s = sim.Score(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_DOUBLE_EQ(s, sim.Score(b, a));
      if (a != b) EXPECT_LE(s, 0.95);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemRelAxiomSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- The query σ table is exact, not approximate ----------------------------------

// Serves every (table entity, target) pair through a SigmaReader — one
// batch per entity and, on a built table, the fused column-maxima kernel
// over the targets cut into columns — on tables offered one pair short of
// the vocabulary size, exactly the vocabulary size and more, and checks
// each value against the base Score bit for bit. About half of the n
// entities are in the vocabulary, and the table's entities include ones
// outside it, so the out-of-vocabulary fallback is exercised on both
// sides of the pair.
void ExpectSigmaTableExact(const EntitySimilarity& base, size_t n,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<EntityId> vocab_ids;
  std::vector<EntityId> entities;
  for (EntityId e = 0; e < n; ++e) {
    if (rng.NextBounded(2) == 0) vocab_ids.push_back(e);
    if (rng.NextBounded(4) == 0) entities.push_back(e);
  }
  ASSERT_FALSE(vocab_ids.empty());
  ASSERT_FALSE(entities.empty());
  const SigmaVocabulary vocab(vocab_ids);
  const size_t v = vocab.size();
  std::vector<EntityId> targets(n);
  for (EntityId e = 0; e < n; ++e) targets[e] = e;
  // An entity the table holds no row for.
  EntityId outsider = 0;
  while (std::binary_search(entities.begin(), entities.end(), outsider)) {
    ++outsider;
  }
  ASSERT_LT(outsider, n);

  for (size_t pairs : {size_t{0}, v - 1, v, v + 1}) {
    const std::string label =
        base.name() + " pairs " + std::to_string(pairs) + " of " +
        std::to_string(v);
    const QuerySigmaTable table(&base, &vocab, entities, pairs);
    const bool built = pairs >= v;
    EXPECT_EQ(table.built(), built) << label;
    EXPECT_EQ(table.entities(), entities) << label;
    EXPECT_EQ(table.fills(), built ? entities.size() * v : 0u) << label;
    SigmaReader reader(&table);
    std::vector<double> got(n);
    for (EntityId q : entities) {
      reader.ScoreBatch(q, targets.data(), n, got.data());
      for (EntityId t = 0; t < n; ++t) {
        EXPECT_EQ(got[t], base.Score(q, t))
            << label << " pair (" << q << ", " << t << ")";
      }
    }
    if (built) {
      // The targets in columns of 0, 1, 2, ... entities (the first empty).
      std::vector<uint32_t> offsets = {0};
      for (size_t width = 0; offsets.back() < n; ++width) {
        offsets.push_back(static_cast<uint32_t>(
            std::min<size_t>(offsets.back() + width, n)));
      }
      const size_t e = entities.size();
      const ColumnIndexView view{offsets.data(), targets.data(), nullptr,
                                 offsets.size() - 1};
      std::vector<double> maxima(view.num_columns * e);
      reader.ColumnMaxima(view, maxima.data());
      for (size_t c = 0; c < view.num_columns; ++c) {
        for (size_t i = 0; i < e; ++i) {
          double m = 0.0;
          for (uint32_t d = offsets[c]; d < offsets[c + 1]; ++d) {
            m = std::max(m, base.Score(entities[i], targets[d]));
          }
          EXPECT_EQ(maxima[c * e + i], m)
              << label << " column " << c << " entity " << entities[i];
        }
      }
    }
    // Both passes served every pair: in-vocabulary targets from the table,
    // the rest from the base σ. Without values nothing is counted.
    const size_t passes = 2 * entities.size();
    EXPECT_EQ(reader.hits(), built ? passes * v : 0u) << label;
    EXPECT_EQ(reader.misses(), built ? passes * (n - v) : 0u) << label;
    // A query entity without a row goes to the base σ, uncounted.
    const size_t hits_before = reader.hits();
    reader.ScoreBatch(outsider, targets.data(), n, got.data());
    for (EntityId t = 0; t < n; ++t) {
      EXPECT_EQ(got[t], base.Score(outsider, t)) << label << " outsider";
    }
    EXPECT_EQ(reader.hits(), hits_before) << label;
  }
}

class SigmaTableSweep : public ::testing::TestWithParam<int> {};

TEST_P(SigmaTableSweep, TypeJaccardValuesEqualBaseScoreExactly) {
  KnowledgeGraph kg = RandomTypedKg(GetParam() + 500, 40);
  TypeJaccardSimilarity base(&kg);
  ExpectSigmaTableExact(base, 40, GetParam() * 53 + 3);
}

TEST_P(SigmaTableSweep, EmbeddingCosineValuesEqualBaseScoreExactly) {
  constexpr size_t kEntities = 40;
  EmbeddingStore store(kEntities, 8);
  Rng rng(GetParam() * 61 + 7);
  for (EntityId e = 0; e < kEntities; ++e) {
    float* row = store.mutable_vector(e);
    for (size_t d = 0; d < 8; ++d) {
      row[d] = static_cast<float>(rng.NextDouble()) - 0.5f;
    }
  }
  store.NormalizeAll();
  EmbeddingCosineSimilarity base(&store);
  ExpectSigmaTableExact(base, kEntities, GetParam() * 67 + 11);
}

// Wu-Palmer over the taxonomy has no dense entity-id space of its own
// (nothing like the type CSR or the embedding rows); the table needs none.
TEST_P(SigmaTableSweep, WuPalmerValuesEqualBaseScoreExactly) {
  KnowledgeGraph kg = RandomTypedKg(GetParam() + 600, 40);
  WuPalmerSimilarity base(&kg);
  ExpectSigmaTableExact(base, 40, GetParam() * 59 + 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigmaTableSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- The fused bound kernel equals base σ + segmented max -------------------------

// The bound's per-(entity, column) maxima as the base-σ path computes
// them: one base ScoreBatch per entity over the view's distinct union,
// then a max per column slice starting at 0. Column-major, like
// SigmaReader::ColumnMaxima.
std::vector<double> SegmentedMaxima(const EntitySimilarity& base,
                                    const std::vector<EntityId>& entities,
                                    ColumnIndexView view) {
  const size_t e = entities.size();
  const uint32_t begin = view.DistinctBegin();
  std::vector<double> sigma(view.DistinctCount());
  std::vector<double> out(view.num_columns * e);
  for (size_t i = 0; i < e; ++i) {
    base.ScoreBatch(entities[i], view.distinct + begin, sigma.size(),
                    sigma.data());
    for (size_t c = 0; c < view.num_columns; ++c) {
      double m = 0.0;
      for (uint32_t d = view.offsets[c]; d < view.offsets[c + 1]; ++d) {
        m = std::max(m, sigma[d - begin]);
      }
      out[c * e + i] = m;
    }
  }
  return out;
}

// Runs the fused kernel of a built σ table over every table of a benchgen
// micro-lake plus a hand-built 70-column view (empty and one-entity
// columns, targets outside the vocabulary, offsets not starting at 0),
// once per query and once for the batch's entity union — wider than any
// one query — and checks every maximum against SegmentedMaxima bit for
// bit, and the pair accounting against the targets served.
void ExpectKernelMatchesSegmentedMax(const benchgen::Benchmark& bench,
                                     const EntitySimilarity& base,
                                     uint64_t seed) {
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  const SigmaVocabulary vocab(lake.MentionedEntities());
  ASSERT_GT(vocab.size(), 0u);
  std::vector<ColumnEntityIndex> indexes(bench.lake.corpus.size());
  DedupScratch dedup;
  for (TableId t = 0; t < indexes.size(); ++t) {
    indexes[t].Build(bench.lake.corpus.table(t), dedup);
  }
  Rng rng(seed);
  std::vector<EntityId> outside;
  for (EntityId e = 0; e < bench.kg.kg.num_entities(); ++e) {
    if (vocab.SlotOf(e) == SigmaVocabulary::kNoSlot) outside.push_back(e);
  }
  ASSERT_FALSE(outside.empty());
  std::vector<EntityId> pool = {kNoEntity, kNoEntity, kNoEntity};
  std::vector<uint32_t> offsets = {static_cast<uint32_t>(pool.size())};
  size_t outside_targets = 0;
  for (size_t c = 0; c < 70; ++c) {
    const size_t width =
        c % 5 == 0 ? 0 : (c % 5 == 1 ? 1 : 2 + rng.NextBounded(5));
    for (size_t d = 0; d < width; ++d) {
      if (rng.NextBounded(6) == 0) {
        pool.push_back(outside[rng.NextBounded(outside.size())]);
        ++outside_targets;
      } else {
        pool.push_back(vocab.data()[rng.NextBounded(vocab.size())]);
      }
    }
    offsets.push_back(static_cast<uint32_t>(pool.size()));
  }
  std::vector<ColumnIndexView> views;
  for (const ColumnEntityIndex& index : indexes) views.push_back(index.View());
  views.push_back(ColumnIndexView{offsets.data(), pool.data(), nullptr, 70});

  std::vector<std::vector<EntityId>> entity_sets;
  std::vector<EntityId> batch;
  for (const auto& gq : benchgen::MakeQueries(bench.kg, 3, seed + 1)) {
    entity_sets.push_back(gq.query.DistinctEntities());
    batch.insert(batch.end(), entity_sets.back().begin(),
                 entity_sets.back().end());
  }
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  for (const auto& set : entity_sets) ASSERT_LT(set.size(), batch.size());
  entity_sets.push_back(batch);

  for (size_t s = 0; s < entity_sets.size(); ++s) {
    const std::vector<EntityId>& entities = entity_sets[s];
    const QuerySigmaTable table(&base, &vocab, entities, vocab.size());
    ASSERT_TRUE(table.built());
    SigmaReader reader(&table);
    size_t served = 0;
    for (size_t v = 0; v < views.size(); ++v) {
      const ColumnIndexView view = views[v];
      const std::vector<double> expected =
          SegmentedMaxima(base, entities, view);
      std::vector<double> got(expected.size(), -1.0);
      reader.ColumnMaxima(view, got.data());
      ASSERT_EQ(0, std::memcmp(got.data(), expected.data(),
                               got.size() * sizeof(double)))
          << base.name() << " entity set " << s << " view " << v << " of "
          << views.size();
      served += entities.size() * view.DistinctCount();
    }
    EXPECT_EQ(reader.hits() + reader.misses(), served) << base.name();
    EXPECT_EQ(reader.misses(), entities.size() * outside_targets)
        << base.name();
  }
}

class KernelParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(KernelParitySweep, TypeJaccardMaximaEqualSegmentedBaseMax) {
  const benchgen::Benchmark bench = benchgen::MakeBenchmark(
      benchgen::PresetKind::kWt2015Like, 0.01, GetParam() + 700);
  TypeJaccardSimilarity base(&bench.kg.kg);
  ExpectKernelMatchesSegmentedMax(bench, base, GetParam() * 71 + 5);
}

// Random embeddings centered on 0: many raw cosines are negative, and the
// clamped σ of those pairs is 0, which the accumulator's start value must
// not disturb.
TEST_P(KernelParitySweep, EmbeddingCosineMaximaEqualSegmentedBaseMax) {
  const benchgen::Benchmark bench = benchgen::MakeBenchmark(
      benchgen::PresetKind::kWt2015Like, 0.01, GetParam() + 800);
  const size_t n = bench.kg.kg.num_entities();
  EmbeddingStore store(n, 8);
  Rng rng(GetParam() * 73 + 1);
  for (EntityId e = 0; e < n; ++e) {
    float* row = store.mutable_vector(e);
    for (size_t d = 0; d < 8; ++d) {
      row[d] = static_cast<float>(rng.NextDouble()) - 0.5f;
    }
  }
  store.NormalizeAll();
  size_t negative = 0;
  for (EntityId e = 1; e < std::min<size_t>(n, 64); ++e) {
    negative += store.Cosine(0, e) < 0.0f;
  }
  ASSERT_GT(negative, 0u);
  EmbeddingCosineSimilarity base(&store);
  ExpectKernelMatchesSegmentedMax(bench, base, GetParam() * 79 + 3);
}

TEST_P(KernelParitySweep, WuPalmerMaximaEqualSegmentedBaseMax) {
  const benchgen::Benchmark bench = benchgen::MakeBenchmark(
      benchgen::PresetKind::kWt2015Like, 0.01, GetParam() + 900);
  WuPalmerSimilarity base(&bench.kg.kg);
  ExpectKernelMatchesSegmentedMax(bench, base, GetParam() * 83 + 7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelParitySweep,
                         ::testing::Values(1, 2, 3));

// --- DistanceSimilarity properties across dimensionality ---------------------------

class DistanceSimilaritySweep : public ::testing::TestWithParam<int> {};

TEST_P(DistanceSimilaritySweep, BoundsAndMonotonicity) {
  size_t m = GetParam();
  Rng rng(m * 7);
  std::vector<double> x(m);
  std::vector<double> w(m);
  for (size_t i = 0; i < m; ++i) {
    x[i] = rng.NextDouble();
    w[i] = 0.1 + 0.9 * rng.NextDouble();
  }
  double base = DistanceSimilarity(x, w);
  EXPECT_GT(base, 0.0);
  EXPECT_LE(base, 1.0);
  // Raising any coordinate raises the score.
  for (size_t i = 0; i < m; ++i) {
    if (x[i] < 0.99) {
      std::vector<double> better = x;
      better[i] = std::min(1.0, x[i] + 0.2);
      EXPECT_GT(DistanceSimilarity(better, w), base);
    }
  }
  // Perfect coordinates give 1 regardless of weights.
  EXPECT_DOUBLE_EQ(DistanceSimilarity(std::vector<double>(m, 1.0), w), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Dims, DistanceSimilaritySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// --- Banded index: structural collision guarantees across configurations ------------

using LshConfig = std::tuple<int, int>;  // (num_functions, band_size)

class BandedIndexConfigSweep : public ::testing::TestWithParam<LshConfig> {};

TEST_P(BandedIndexConfigSweep, SelfCollisionAndNoFalseNegativesOnEqualBands) {
  auto [nf, bs] = GetParam();
  size_t bands = static_cast<size_t>(nf) / static_cast<size_t>(bs);
  BandedIndex index(bands, bs);
  Rng rng(nf * 1000 + bs);
  std::vector<std::vector<uint32_t>> sigs;
  for (uint32_t i = 0; i < 64; ++i) {
    std::vector<uint32_t> sig(nf);
    for (auto& v : sig) v = rng.NextBounded(4);  // small alphabet: collisions
    sigs.push_back(sig);
    index.Insert(i, sig);
  }
  for (uint32_t i = 0; i < 64; ++i) {
    auto hits = index.Query(sigs[i]);
    // An item always collides with itself.
    EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(), i));
    // And with every item sharing a full band (no false negatives).
    for (uint32_t j = 0; j < 64; ++j) {
      bool shares_band = false;
      for (size_t b = 0; b < bands && !shares_band; ++b) {
        shares_band = std::equal(sigs[i].begin() + b * bs,
                                 sigs[i].begin() + (b + 1) * bs,
                                 sigs[j].begin() + b * bs);
      }
      if (shares_band) {
        EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(), j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, BandedIndexConfigSweep,
                         ::testing::Values(LshConfig{32, 8}, LshConfig{128, 8},
                                           LshConfig{30, 10},
                                           LshConfig{16, 4}));

// --- Ranking metrics across cutoffs ---------------------------------------------------

class MetricCutoffSweep : public ::testing::TestWithParam<int> {};

TEST_P(MetricCutoffSweep, NdcgAndRecallBoundedAndIdealIsOne) {
  size_t k = GetParam();
  Rng rng(k * 17);
  std::vector<double> relevance(50);
  for (double& r : relevance) r = rng.NextDouble() < 0.3 ? rng.NextDouble() : 0;
  // Ideal ranking: ids sorted by relevance descending.
  std::vector<TableId> ideal(50);
  for (TableId i = 0; i < 50; ++i) ideal[i] = i;
  std::sort(ideal.begin(), ideal.end(), [&](TableId a, TableId b) {
    return relevance[a] > relevance[b];
  });
  bool any_relevant = false;
  for (double r : relevance) any_relevant |= r > 0.0;
  double ideal_ndcg = benchgen::NdcgAtK(ideal, relevance, k);
  if (any_relevant) {
    EXPECT_NEAR(ideal_ndcg, 1.0, 1e-12);
  }
  // Any random permutation is bounded by the ideal.
  std::vector<TableId> shuffled = ideal;
  Rng rng2(k);
  rng2.Shuffle(&shuffled);
  double ndcg = benchgen::NdcgAtK(shuffled, relevance, k);
  EXPECT_GE(ndcg, 0.0);
  EXPECT_LE(ndcg, ideal_ndcg + 1e-12);
  // Recall of the ideal ranking against its own top-k is 1.
  auto relevant = ideal;
  relevant.resize(std::min<size_t>(k, relevant.size()));
  // Keep only genuinely relevant ids in the ground truth set.
  std::vector<TableId> gt;
  for (TableId id : relevant) {
    if (relevance[id] > 0) gt.push_back(id);
  }
  if (!gt.empty()) {
    EXPECT_DOUBLE_EQ(benchgen::RecallAtK(ideal, gt, k), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, MetricCutoffSweep,
                         ::testing::Values(1, 5, 10, 25, 50, 100));

// --- TopK equals full sort across sizes -------------------------------------------------

class TopKSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(TopKSizeSweep, MatchesStableSortedPrefix) {
  size_t k = GetParam();
  Rng rng(k * 3 + 1);
  std::vector<std::pair<int, double>> items;
  TopK<int> top(k);
  for (int i = 0; i < 300; ++i) {
    double score = rng.NextBounded(40) / 10.0;  // many ties
    items.emplace_back(i, score);
    top.Push(i, score);
  }
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  auto got = top.Extract();
  ASSERT_EQ(got.size(), std::min<size_t>(k, items.size()));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, items[i].first) << "position " << i;
    EXPECT_DOUBLE_EQ(got[i].second, items[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKSizeSweep,
                         ::testing::Values(1, 2, 10, 50, 299, 500));

}  // namespace
}  // namespace thetis
