#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "benchgen/synthetic_kg.h"
#include "core/similarity.h"
#include "embedding/embedding_store.h"
#include "embedding/negative_sampler.h"
#include "embedding/quantized_store.h"
#include "embedding/random_walks.h"
#include "embedding/skipgram.h"
#include "embedding/vector_ops.h"
#include "simd/kernels.h"
#include "util/rng.h"

namespace thetis {
namespace {

// --- vector_ops ---------------------------------------------------------------

TEST(VectorOpsTest, DotAndNorm) {
  float a[] = {1.0f, 2.0f, 2.0f};
  float b[] = {2.0f, 0.0f, 1.0f};
  EXPECT_FLOAT_EQ(DotProduct(a, b, 3), 4.0f);
  EXPECT_FLOAT_EQ(L2Norm(a, 3), 3.0f);
}

TEST(VectorOpsTest, CosineBounds) {
  float a[] = {1.0f, 0.0f};
  float b[] = {0.0f, 1.0f};
  float c[] = {-1.0f, 0.0f};
  float z[] = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, a, 2), 1.0f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, b, 2), 0.0f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, c, 2), -1.0f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, z, 2), 0.0f);
}

TEST(VectorOpsTest, MeanPool) {
  float a[] = {1.0f, 3.0f};
  float b[] = {3.0f, 1.0f};
  auto mean = MeanPool({a, b}, 2);
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 2.0f);
  auto empty = MeanPool({}, 2);
  EXPECT_FLOAT_EQ(empty[0], 0.0f);
}

// --- EmbeddingStore -------------------------------------------------------------

TEST(EmbeddingStoreTest, ShapeAndAccess) {
  EmbeddingStore store(3, 4);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.dim(), 4u);
  store.mutable_vector(1)[2] = 5.0f;
  EXPECT_FLOAT_EQ(store.vector(1)[2], 5.0f);
  EXPECT_FLOAT_EQ(store.vector(0)[2], 0.0f);
}

TEST(EmbeddingStoreTest, NormalizeAll) {
  EmbeddingStore store(2, 2);
  store.mutable_vector(0)[0] = 3.0f;
  store.mutable_vector(0)[1] = 4.0f;
  store.NormalizeAll();
  EXPECT_NEAR(L2Norm(store.vector(0), 2), 1.0f, 1e-6);
  // Zero vector stays zero.
  EXPECT_FLOAT_EQ(L2Norm(store.vector(1), 2), 0.0f);
}

TEST(EmbeddingStoreTest, TextRoundTrip) {
  EmbeddingStore store(2, 3);
  for (size_t e = 0; e < 2; ++e) {
    for (size_t d = 0; d < 3; ++d) {
      store.mutable_vector(static_cast<EntityId>(e))[d] =
          static_cast<float>(e * 10 + d) / 4.0f;
    }
  }
  auto loaded = EmbeddingStore::FromText(store.ToText());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().dim(), 3u);
  EXPECT_FLOAT_EQ(loaded.value().vector(1)[2], store.vector(1)[2]);
}

TEST(EmbeddingStoreTest, TruncatedTextIsError) {
  EXPECT_FALSE(EmbeddingStore::FromText("2 3\n1 2 3\n").ok());
  EXPECT_FALSE(EmbeddingStore::FromText("").ok());
}

TEST(EmbeddingStoreTest, BinaryRoundTrip) {
  EmbeddingStore store(3, 5);
  for (size_t e = 0; e < 3; ++e) {
    for (size_t d = 0; d < 5; ++d) {
      store.mutable_vector(static_cast<EntityId>(e))[d] =
          static_cast<float>(e) * 1.25f - static_cast<float>(d) * 0.5f;
    }
  }
  std::string path = testing::TempDir() + "/emb_roundtrip.bin";
  ASSERT_TRUE(store.SaveBinary(path).ok());
  auto loaded = EmbeddingStore::LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  ASSERT_EQ(loaded.value().dim(), 5u);
  for (size_t e = 0; e < 3; ++e) {
    for (size_t d = 0; d < 5; ++d) {
      // Binary round-trip is bit-exact, unlike the text format.
      EXPECT_EQ(loaded.value().vector(static_cast<EntityId>(e))[d],
                store.vector(static_cast<EntityId>(e))[d]);
    }
  }
}

TEST(EmbeddingStoreTest, BinaryLoadRejectsGarbage) {
  EXPECT_FALSE(EmbeddingStore::LoadBinary("/nonexistent/emb.bin").ok());
  std::string path = testing::TempDir() + "/emb_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an embedding file at all";
  }
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());
  // Valid magic but truncated payload.
  EmbeddingStore store(4, 8);
  ASSERT_TRUE(store.SaveBinary(path).ok());
  std::error_code ec;
  std::filesystem::resize_file(path, 24, ec);
  ASSERT_FALSE(ec);
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());
}

namespace {

// Writes a TEMB binary file with an arbitrary header and payload size, for
// the malformed-input tests below.
void WriteBinaryFile(const std::string& path, const char magic[4],
                     uint32_t version, uint64_t count, uint64_t dim,
                     size_t payload_bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  const std::string payload(payload_bytes, '\x42');
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

}  // namespace

TEST(EmbeddingStoreTest, BinaryLoadValidatesHeaderAgainstFileLength) {
  const std::string path = testing::TempDir() + "/emb_malformed.bin";
  const char magic[4] = {'T', 'E', 'M', 'B'};

  // Header declares more rows than the payload holds.
  WriteBinaryFile(path, magic, 1, /*count=*/8, /*dim=*/4,
                  /*payload_bytes=*/7 * 4 * sizeof(float));
  auto shorted = EmbeddingStore::LoadBinary(path);
  EXPECT_FALSE(shorted.ok());
  EXPECT_EQ(shorted.status().code(), StatusCode::kInvalidArgument);

  // Trailing bytes beyond count x dim are an error, not silently ignored.
  WriteBinaryFile(path, magic, 1, /*count=*/2, /*dim=*/4,
                  /*payload_bytes=*/2 * 4 * sizeof(float) + 1);
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());

  // An empty store must have an exactly-empty payload.
  WriteBinaryFile(path, magic, 1, /*count=*/0, /*dim=*/0,
                  /*payload_bytes=*/3);
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());
  WriteBinaryFile(path, magic, 1, /*count=*/0, /*dim=*/0,
                  /*payload_bytes=*/0);
  auto empty = EmbeddingStore::LoadBinary(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().size(), 0u);

  // Unsupported version.
  WriteBinaryFile(path, magic, 7, /*count=*/0, /*dim=*/0, 0);
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());

  // Truncated mid-header.
  std::error_code ec;
  WriteBinaryFile(path, magic, 1, 1, 1, sizeof(float));
  std::filesystem::resize_file(path, 10, ec);
  ASSERT_FALSE(ec);
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());
}

TEST(EmbeddingStoreTest, BinaryLoadRejectsOverflowingCounts) {
  const std::string path = testing::TempDir() + "/emb_overflow.bin";
  const char magic[4] = {'T', 'E', 'M', 'B'};
  // count * dim (and count * dim * sizeof(float)) overflow size_t; the
  // header checks must catch this before any multiplication is trusted.
  const uint64_t huge = UINT64_C(0x4000000000000001);
  WriteBinaryFile(path, magic, 1, /*count=*/huge, /*dim=*/8, /*payload=*/32);
  auto loaded = EmbeddingStore::LoadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  WriteBinaryFile(path, magic, 1, /*count=*/8, /*dim=*/huge, /*payload=*/32);
  EXPECT_FALSE(EmbeddingStore::LoadBinary(path).ok());
}

TEST(EmbeddingStoreTest, NormCacheInvalidatedByMutableAccess) {
  EmbeddingStore store(2, 2);
  store.mutable_vector(0)[0] = 3.0f;
  store.mutable_vector(0)[1] = 4.0f;
  EXPECT_FLOAT_EQ(store.Norm(0), 5.0f);
  // Writing through mutable_vector must invalidate the cached norm and the
  // pre-normalized row (the documented cache contract).
  store.mutable_vector(0)[0] = 0.0f;
  store.mutable_vector(0)[1] = 2.0f;
  EXPECT_FLOAT_EQ(store.Norm(0), 2.0f);
  EXPECT_NEAR(store.NormalizedRow(0)[1], 1.0f, 1e-6);
  // Zero rows normalize to zero, and cosine against them is zero.
  EXPECT_FLOAT_EQ(store.Norm(1), 0.0f);
  EXPECT_FLOAT_EQ(store.Cosine(0, 1), 0.0f);
}

TEST(EmbeddingStoreTest, CosineMatchesVectorOpsFormula) {
  Rng rng(21);
  EmbeddingStore store(6, 17);  // odd dim exercises remainder lanes
  for (EntityId e = 0; e < 6; ++e) {
    float* v = store.mutable_vector(e);
    for (size_t d = 0; d < 17; ++d) {
      v[d] = static_cast<float>(rng.NextGaussian());
    }
  }
  for (EntityId a = 0; a < 6; ++a) {
    for (EntityId b = 0; b < 6; ++b) {
      EXPECT_NEAR(store.Cosine(a, b),
                  CosineSimilarity(store.vector(a), store.vector(b), 17),
                  1e-5)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(EmbeddingStoreTest, CosineBatchBitIdenticalToCosine) {
  Rng rng(22);
  EmbeddingStore store(8, 9);
  for (EntityId e = 0; e < 8; ++e) {
    float* v = store.mutable_vector(e);
    for (size_t d = 0; d < 9; ++d) {
      v[d] = static_cast<float>(rng.NextGaussian());
    }
  }
  std::vector<EntityId> targets = {7, 2, 2, 0, 5, 1, 6, 3, 4};
  std::vector<float> out(targets.size());
  store.CosineBatch(1, targets.data(), targets.size(), out.data());
  for (size_t k = 0; k < targets.size(); ++k) {
    EXPECT_EQ(out[k], store.Cosine(1, targets[k])) << "k=" << k;
  }
}

// --- Random walks ----------------------------------------------------------------

// --- quantized_store -----------------------------------------------------------

// Random store with Gaussian rows plus deliberate edge rows: an all-zero
// row (scale 0 by contract) and a one-hot row (exactly representable).
EmbeddingStore RandomStore(size_t count, size_t dim, uint64_t seed) {
  EmbeddingStore store(count, dim);
  Rng rng(seed);
  for (size_t e = 1; e < count; ++e) {
    for (size_t d = 0; d < dim; ++d) {
      store.mutable_vector(static_cast<EntityId>(e))[d] =
          static_cast<float>(rng.NextGaussian());
    }
  }
  if (count > 2) {
    float* onehot = store.mutable_vector(2);
    for (size_t d = 0; d < dim; ++d) onehot[d] = 0.0f;
    onehot[0] = 2.5f;
  }
  return store;
}

TEST(QuantizedStoreTest, CodesScalesAndErrorsSatisfyTheContract) {
  EmbeddingStore store = RandomStore(17, 32, 21);
  QuantizedEmbeddingStore quant = QuantizedEmbeddingStore::FromStore(store);
  ASSERT_EQ(quant.size(), store.size());
  ASSERT_EQ(quant.dim(), store.dim());
  const float* normalized = store.NormalizedData();
  const size_t dim = store.dim();
  for (size_t r = 0; r < quant.size(); ++r) {
    const int8_t* codes = quant.codes() + r * dim;
    const double s = quant.scales()[r];
    ASSERT_GE(s, 0.0) << "row " << r;
    double max_err = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      ASSERT_GE(codes[d], -127) << "row " << r;
      ASSERT_LE(codes[d], 127) << "row " << r;
      const double v = normalized[r * dim + d];
      max_err = std::max(max_err, std::abs(v - codes[d] * s));
    }
    // The stored per-row error must never understate the actual
    // dequantization error — that is what makes the bound admissible.
    ASSERT_GE(static_cast<double>(quant.errors()[r]), max_err) << "row " << r;
  }
  // The all-zero row quantizes to scale 0, zero codes, zero error.
  EXPECT_EQ(quant.scales()[0], 0.0f);
  EXPECT_EQ(quant.errors()[0], 0.0f);
  for (size_t d = 0; d < dim; ++d) {
    EXPECT_EQ(quant.codes()[d], 0) << "component " << d;
  }
  // 1 byte/component + 8 bytes/row: 3.2x smaller than fp32 at dim 32.
  EXPECT_EQ(quant.arena_bytes(), quant.size() * (dim + 8));
  EXPECT_GE(static_cast<double>(quant.size() * dim * sizeof(float)) /
                static_cast<double>(quant.arena_bytes()),
            3.0);
}

TEST(QuantizedStoreTest, UpperBoundDominatesExactSigmaPairwise) {
  for (uint64_t seed : {22u, 23u, 24u}) {
    for (size_t dim : {3u, 32u, 100u}) {
      EmbeddingStore store = RandomStore(23, dim, seed);
      EmbeddingCosineSimilarity sim(&store);
      const QuantizedEmbeddingStore& quant = sim.quantized();
      std::vector<EntityId> targets(store.size());
      for (size_t t = 0; t < targets.size(); ++t) {
        targets[t] = static_cast<EntityId>(t);
      }
      std::vector<double> exact(targets.size());
      std::vector<double> bound(targets.size());
      for (size_t q = 0; q < store.size(); ++q) {
        sim.ScoreBatch(static_cast<EntityId>(q), targets.data(),
                       targets.size(), exact.data());
        quant.CosineUpperBoundBatch(static_cast<EntityId>(q), targets.data(),
                                    targets.size(), bound.data());
        for (size_t t = 0; t < targets.size(); ++t) {
          ASSERT_GE(bound[t], exact[t])
              << "seed=" << seed << " dim=" << dim << " q=" << q
              << " t=" << t;
          ASSERT_LE(bound[t], 1.0) << "q=" << q << " t=" << t;
          ASSERT_GE(bound[t], 0.0) << "q=" << q << " t=" << t;
          if (bound[t] == 0.0) {
            // A zero bound must be a *proof* of a zero score.
            ASSERT_EQ(exact[t], 0.0) << "q=" << q << " t=" << t;
          }
        }
        ASSERT_EQ(bound[q], 1.0) << "identity pair, q=" << q;
      }
    }
  }
}

TEST(QuantizedStoreTest, SnapshotViewIsBitIdenticalToOwned) {
  EmbeddingStore store = RandomStore(11, 32, 25);
  QuantizedEmbeddingStore owned = QuantizedEmbeddingStore::FromStore(store);
  QuantizedEmbeddingStore view = QuantizedEmbeddingStore::FromSnapshotView(
      owned.codes(), owned.scales(), owned.errors(), owned.size(),
      owned.dim());
  EXPECT_TRUE(view.is_view());
  EXPECT_FALSE(owned.is_view());
  EXPECT_EQ(view.arena_bytes(), owned.arena_bytes());
  std::vector<EntityId> targets(owned.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    targets[t] = static_cast<EntityId>(t);
  }
  std::vector<double> a(targets.size());
  std::vector<double> b(targets.size());
  for (size_t q = 0; q < owned.size(); ++q) {
    owned.CosineUpperBoundBatch(static_cast<EntityId>(q), targets.data(),
                                targets.size(), a.data());
    view.CosineUpperBoundBatch(static_cast<EntityId>(q), targets.data(),
                               targets.size(), b.data());
    for (size_t t = 0; t < targets.size(); ++t) {
      ASSERT_EQ(a[t], b[t]) << "q=" << q << " t=" << t;
    }
  }
}

benchgen::SyntheticKg SmallKg() {
  benchgen::SyntheticKgOptions options;
  options.num_domains = 2;
  options.topics_per_domain = 2;
  options.entities_per_topic = 10;
  options.seed = 5;
  return benchgen::GenerateSyntheticKg(options);
}

TEST(RandomWalksTest, CountAndLength) {
  auto kg = SmallKg();
  WalkOptions options;
  options.walks_per_entity = 3;
  options.depth = 4;
  auto walks = GenerateWalks(kg.kg, options);
  EXPECT_EQ(walks.size(), kg.kg.num_entities() * 3);
  for (const auto& w : walks) {
    EXPECT_GE(w.size(), 1u);
    EXPECT_LE(w.size(), 5u);  // depth+1 nodes, no predicates
    for (WalkToken t : w) EXPECT_LT(t, kg.kg.num_entities());
  }
}

TEST(RandomWalksTest, PredicateTokensWhenRequested) {
  auto kg = SmallKg();
  WalkOptions options;
  options.walks_per_entity = 2;
  options.depth = 3;
  options.emit_predicates = true;
  auto walks = GenerateWalks(kg.kg, options);
  size_t vocab = WalkVocabularySize(kg.kg, options);
  EXPECT_EQ(vocab, kg.kg.num_entities() + kg.kg.num_predicates());
  bool saw_predicate = false;
  for (const auto& w : walks) {
    for (WalkToken t : w) {
      EXPECT_LT(t, vocab);
      if (t >= kg.kg.num_entities()) saw_predicate = true;
    }
  }
  EXPECT_TRUE(saw_predicate);
}

TEST(RandomWalksTest, Deterministic) {
  auto kg = SmallKg();
  WalkOptions options;
  options.walks_per_entity = 2;
  auto w1 = GenerateWalks(kg.kg, options);
  auto w2 = GenerateWalks(kg.kg, options);
  EXPECT_EQ(w1, w2);
}

TEST(RandomWalksTest, IsolatedEntityWalksAreSingletons) {
  KnowledgeGraph kg;
  kg.AddEntity("lonely").value();
  WalkOptions options;
  options.walks_per_entity = 2;
  auto walks = GenerateWalks(kg, options);
  ASSERT_EQ(walks.size(), 2u);
  for (const auto& w : walks) {
    EXPECT_EQ(w, std::vector<WalkToken>{0});
  }
}

// --- Negative sampler ------------------------------------------------------------

// The binary search over the cumulative weights that the guide table must
// reproduce: the first token whose weight exceeds r, clamped to V - 1.
WalkToken FindBySearch(const NegativeSampler& sampler, double r) {
  const std::vector<double>& cumulative = sampler.cumulative();
  size_t lo = static_cast<size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), r) -
      cumulative.begin());
  return static_cast<WalkToken>(std::min(lo, cumulative.size() - 1));
}

// The draws where rounding decides the token: 0, total, every cumulative
// weight and every bucket edge (computed both ways a bucket index can
// round), each with its float neighbours, clipped to [0, total].
std::vector<double> BoundaryDraws(const NegativeSampler& sampler) {
  const double total = sampler.total();
  const size_t size = sampler.cumulative().size();
  const double v = static_cast<double>(size);
  std::vector<double> points = {0.0, total};
  points.insert(points.end(), sampler.cumulative().begin(),
                sampler.cumulative().end());
  for (size_t b = 0; b <= size; ++b) {
    points.push_back(static_cast<double>(b) * total / v);
    points.push_back(static_cast<double>(b) / (v / total));
  }
  std::vector<double> draws;
  for (double p : points) {
    for (double r : {std::nextafter(p, 0.0), p,
                     std::nextafter(p, std::numeric_limits<double>::max())}) {
      if (r >= 0.0 && r <= total) draws.push_back(r);
    }
  }
  return draws;
}

// The guide-table lookup returns the binary search's token for every
// boundary draw and for `seeded` draws r = NextDouble() * total.
void ExpectGuideMatchesSearch(const std::vector<uint64_t>& counts,
                              double power, size_t seeded) {
  NegativeSampler sampler(counts, power);
  for (double r : BoundaryDraws(sampler)) {
    ASSERT_EQ(sampler.Find(r), FindBySearch(sampler, r)) << "r=" << r;
  }
  Rng rng(counts.size() * 31 + seeded);
  Rng replay = rng;
  for (size_t i = 0; i < seeded; ++i) {
    const double r = replay.NextDouble() * sampler.total();
    ASSERT_EQ(sampler.Sample(&rng), FindBySearch(sampler, r)) << "draw " << i;
  }
}

TEST(NegativeSamplerTest, GuideTableMatchesBinarySearchOnZipfCounts) {
  Rng rng(3);
  std::vector<uint64_t> counts(2000);
  for (uint64_t& c : counts) c = 1 + rng.NextZipf(5000, 1.1);
  ExpectGuideMatchesSearch(counts, 0.75, 2'000'000);
}

TEST(NegativeSamplerTest, GuideTableMatchesBinarySearchOnEqualCounts) {
  // Every cumulative weight sits on a bucket edge.
  ExpectGuideMatchesSearch(std::vector<uint64_t>(1000, 4), 0.75, 200'000);
  ExpectGuideMatchesSearch(std::vector<uint64_t>(1024, 1), 1.0, 200'000);
  // Seven counts of 10: r = 30 - ulp lands in bucket 3 (r * (7 / 70)
  // rounds to 3.0), whose guide is token 3, past the answer 2, so the walk
  // must step down.
  ExpectGuideMatchesSearch(std::vector<uint64_t>(7, 10), 1.0, 1000);
}

TEST(NegativeSamplerTest, GuideTableMatchesBinarySearchOnSkewedCounts) {
  // One token holds 99% of the mass: it spans almost every bucket.
  std::vector<uint64_t> counts(100, 1);
  counts[7] = 9801;
  ExpectGuideMatchesSearch(counts, 1.0, 200'000);
  counts[7] = 208'000;  // 208000^0.75 ≈ 9809
  ExpectGuideMatchesSearch(counts, 0.75, 200'000);
  // Weights below the leader's ULP leave runs of equal cumulative values.
  std::vector<uint64_t> flat = {1, uint64_t{1} << 60, 1, 1, 1, 3, 1};
  ExpectGuideMatchesSearch(flat, 1.0, 200'000);
}

TEST(NegativeSamplerTest, OneTokenVocabularyAlwaysDrawsIt) {
  NegativeSampler sampler({5}, 0.75);
  ExpectGuideMatchesSearch({5}, 0.75, 1000);
  EXPECT_EQ(sampler.Find(0.0), 0u);
  EXPECT_EQ(sampler.Find(sampler.total()), 0u);
}

// --- Skip-gram -------------------------------------------------------------------

TEST(SkipGramTest, EmbedsCooccurringTokensCloser) {
  // Two "topics": tokens {0,1,2} always co-occur, tokens {3,4,5} always
  // co-occur. After training, within-topic cosine must exceed cross-topic.
  std::vector<std::vector<WalkToken>> walks;
  for (int i = 0; i < 200; ++i) {
    walks.push_back({0, 1, 2, 0, 1, 2});
    walks.push_back({3, 4, 5, 3, 4, 5});
  }
  SkipGramOptions options;
  options.dim = 16;
  options.epochs = 3;
  options.seed = 77;
  SkipGramTrainer trainer(options);
  EmbeddingStore store = trainer.Train(walks, 6);
  store.NormalizeAll();
  float within = store.Cosine(0, 1);
  float across = store.Cosine(0, 4);
  EXPECT_GT(within, across + 0.2f);
}

TEST(SkipGramTest, TrainingIsDeterministic) {
  std::vector<std::vector<WalkToken>> walks = {{0, 1, 2}, {2, 1, 0}};
  SkipGramOptions options;
  options.dim = 8;
  options.epochs = 2;
  SkipGramTrainer trainer(options);
  EmbeddingStore a = trainer.Train(walks, 3);
  EmbeddingStore b = trainer.Train(walks, 3);
  for (EntityId e = 0; e < 3; ++e) {
    for (size_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(a.vector(e)[d], b.vector(e)[d]);
    }
  }
}

TEST(SkipGramTest, SerialTrainerMatchesGoldenChecksumInEveryTier) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "checksums recorded on x86-64, whose baseline ISA has "
                  "no FMA for the compiler to contract scalar code into";
#endif
  // FNV-1a of the trained matrix per SIMD tier, recorded with the
  // binary-search sampler and two Axpy calls per (context, target) pair.
  // dim 32 has no scalar tails in any tier, so the sums do not depend on
  // the optimization level.
  struct Golden {
    simd::Tier tier;
    uint64_t checksum;
  };
  const Golden kGolden[] = {
      {simd::Tier::kScalar, 0x72fb8b4b90cff47bULL},
      {simd::Tier::kSse2, 0x973ffbd861bc868bULL},
      {simd::Tier::kAvx2, 0x7edd1c962b800b2cULL},
  };
  Rng rng(31);
  std::vector<std::vector<WalkToken>> walks(1500);
  for (auto& walk : walks) {
    walk.resize(2 + rng.NextBounded(7));
    for (WalkToken& t : walk) {
      t = static_cast<WalkToken>(rng.NextZipf(200, 1.0));
    }
  }
  SkipGramOptions options;
  options.dim = 32;
  options.window = 3;
  options.negatives = 5;
  options.epochs = 3;
  options.seed = 41;
  options.num_threads = 1;
  const simd::Tier saved = simd::ActiveTier();
  for (const Golden& golden : kGolden) {
    if (static_cast<int>(golden.tier) >
        static_cast<int>(simd::BestSupportedTier())) {
      continue;
    }
    simd::SetTier(golden.tier);
    EmbeddingStore store = SkipGramTrainer(options).Train(walks, 200);
    uint64_t hash = 1469598103934665603ULL;
    const auto* bytes = reinterpret_cast<const unsigned char*>(store.vector(0));
    for (size_t i = 0; i < store.size() * store.dim() * sizeof(float); ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
    EXPECT_EQ(hash, golden.checksum) << simd::TierName(golden.tier);
  }
  simd::SetTier(saved);
}

TEST(SkipGramTest, EndToEndRdf2VecSeparatesTopics) {
  // On a topically-clustered KG, same-topic entities should be closer in
  // embedding space than cross-domain entities on average.
  auto kg = SmallKg();
  WalkOptions walk_options;
  walk_options.walks_per_entity = 12;
  walk_options.depth = 4;
  SkipGramOptions sg;
  sg.dim = 16;
  sg.epochs = 5;
  EmbeddingStore store = TrainEntityEmbeddings(kg.kg, walk_options, sg);
  ASSERT_EQ(store.size(), kg.kg.num_entities());

  double same_topic = 0.0;
  double cross_domain = 0.0;
  int same_n = 0;
  int cross_n = 0;
  for (EntityId a = 0; a < kg.kg.num_entities(); ++a) {
    for (EntityId b = a + 1; b < kg.kg.num_entities(); ++b) {
      if (kg.TopicOf(a) == kg.TopicOf(b)) {
        same_topic += store.Cosine(a, b);
        ++same_n;
      } else if (kg.DomainOf(a) != kg.DomainOf(b)) {
        cross_domain += store.Cosine(a, b);
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_GT(same_topic / same_n, cross_domain / cross_n + 0.05);
}

}  // namespace
}  // namespace thetis
