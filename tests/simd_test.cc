// Parity suite for the runtime-dispatched SIMD kernel layer (src/simd/).
//
// Two layers of guarantees are checked here:
//
//  * Kernel parity: every tier compiled into this binary and supported by
//    the CPU must agree with the scalar reference (simd::scalar::*) across
//    dims 1..300 — covering every remainder-lane count of the 4-wide and
//    8-wide loops. Integer kernels must agree exactly; float kernels within
//    the documented ULP tolerance (accumulation-order / FMA-contraction
//    error, see DESIGN.md "SIMD kernel layer"). Batch variants must be
//    bit-identical to their one-shot counterparts within a tier.
//
//  * Ranking parity: an end-to-end search over a small benchgen world must
//    return the same top-k tables in the same order under the scalar tier
//    and the best SIMD tier, with type-similarity scores bit-identical and
//    embedding scores within tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "embedding/embedding_store.h"
#include "semantic/semantic_data_lake.h"
#include "simd/kernels.h"
#include "util/rng.h"

namespace thetis {
namespace {

// Tolerance for one float accumulation of n products: scalar and vector
// tiers sum in different orders (and AVX2 contracts to FMA), so the result
// may drift by a few ULPs of the *magnitude* sum Σ|a_i b_i| — not of the
// possibly-cancelled final value. 16 ULPs is far above anything the 8-lane
// reassociation can produce at n <= 300 and far below any score gap that
// could reorder a ranking.
float DotTolerance(const float* a, const float* b, size_t n) {
  float mag = 0.0f;
  for (size_t i = 0; i < n; ++i) mag += std::fabs(a[i] * b[i]);
  return 16.0f * std::numeric_limits<float>::epsilon() * (mag + 1.0f);
}

std::vector<simd::Tier> CompiledSupportedTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  int best = static_cast<int>(simd::BestSupportedTier());
  if (best >= static_cast<int>(simd::Tier::kSse2)) {
    tiers.push_back(simd::Tier::kSse2);
  }
  if (best >= static_cast<int>(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Restores the dispatch tier on scope exit so a failing test cannot leak a
// forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::SetTier(saved_); }

 private:
  simd::Tier saved_;
};

std::vector<float> RandomVec(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

// Strictly increasing u32 set of `size` elements drawn sparsely or densely
// depending on `stride_bound`.
std::vector<uint32_t> RandomSet(Rng* rng, size_t size, uint32_t stride_bound) {
  std::vector<uint32_t> s(size);
  uint32_t cur = 0;
  for (size_t i = 0; i < size; ++i) {
    cur += 1 + rng->NextBounded(stride_bound);
    s[i] = cur;
  }
  return s;
}

TEST(SimdKernelsTest, DisableKnobForcesScalar) {
#ifdef THETIS_DISABLE_SIMD
  EXPECT_EQ(simd::BestSupportedTier(), simd::Tier::kScalar);
#else
  // Nothing to assert portably: the best tier depends on the build flags
  // and the CPU. At minimum the scalar floor must hold.
  EXPECT_GE(static_cast<int>(simd::BestSupportedTier()),
            static_cast<int>(simd::Tier::kScalar));
#endif
}

TEST(SimdKernelsTest, SetTierClampsToSupported) {
  TierGuard guard;
  simd::SetTier(simd::Tier::kAvx2);
  EXPECT_EQ(simd::ActiveTier(), simd::BestSupportedTier());
  simd::SetTier(simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
}

TEST(SimdKernelsTest, DotParityAcrossDims) {
  TierGuard guard;
  Rng rng(11);
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t n = 1; n <= 300; ++n) {
      auto a = RandomVec(&rng, n);
      auto b = RandomVec(&rng, n);
      float ref = simd::scalar::Dot(a.data(), b.data(), n);
      float got = simd::Dot(a.data(), b.data(), n);
      ASSERT_NEAR(got, ref, DotTolerance(a.data(), b.data(), n))
          << "tier=" << simd::TierName(tier) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, DotAndNorms2ParityAcrossDims) {
  TierGuard guard;
  Rng rng(12);
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t n = 1; n <= 300; ++n) {
      auto a = RandomVec(&rng, n);
      auto b = RandomVec(&rng, n);
      float rdot, rna2, rnb2;
      simd::scalar::DotAndNorms2(a.data(), b.data(), n, &rdot, &rna2, &rnb2);
      float dot, na2, nb2;
      simd::DotAndNorms2(a.data(), b.data(), n, &dot, &na2, &nb2);
      float tol = DotTolerance(a.data(), b.data(), n);
      ASSERT_NEAR(dot, rdot, tol) << simd::TierName(tier) << " n=" << n;
      ASSERT_NEAR(na2, rna2, tol) << simd::TierName(tier) << " n=" << n;
      ASSERT_NEAR(nb2, rnb2, tol) << simd::TierName(tier) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, BatchVariantsBitIdenticalToOneShotWithinTier) {
  TierGuard guard;
  Rng rng(13);
  constexpr size_t kCount = 9;  // exercises the gather/prefetch tail
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t dim : {1u, 3u, 4u, 7u, 8u, 15u, 32u, 33u, 100u, 300u}) {
      auto q = RandomVec(&rng, dim);
      auto rows = RandomVec(&rng, dim * kCount);
      std::vector<float> out(kCount);
      simd::DotBatch(q.data(), rows.data(), dim, kCount, out.data());
      for (size_t k = 0; k < kCount; ++k) {
        // Bit-identical, not merely close: the batch kernel performs the
        // same per-row arithmetic as the one-shot kernel by construction.
        ASSERT_EQ(out[k], simd::Dot(q.data(), rows.data() + k * dim, dim))
            << simd::TierName(tier) << " dim=" << dim << " k=" << k;
      }

      // Gather with out-of-order and duplicate ids.
      std::vector<uint32_t> ids = {4, 0, 8, 4, 2, 7, 1, 8, 3};
      std::vector<float> gout(ids.size());
      simd::DotBatchGather(q.data(), rows.data(), dim, ids.data(), ids.size(),
                           gout.data());
      for (size_t k = 0; k < ids.size(); ++k) {
        ASSERT_EQ(gout[k],
                  simd::Dot(q.data(), rows.data() + ids[k] * dim, dim))
            << simd::TierName(tier) << " dim=" << dim << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelsTest, ElementwiseKernelParityAcrossDims) {
  TierGuard guard;
  Rng rng(14);
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t n = 1; n <= 300; ++n) {
      auto x = RandomVec(&rng, n);
      auto y = RandomVec(&rng, n);
      float a = static_cast<float>(rng.NextGaussian());

      std::vector<float> ry = y, gy = y;
      simd::scalar::Axpy(a, x.data(), ry.data(), n);
      simd::Axpy(a, x.data(), gy.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // Elementwise: only FMA contraction can differ, bounded by a ULP
        // of the product magnitude.
        ASSERT_NEAR(gy[i], ry[i],
                    4.0f * std::numeric_limits<float>::epsilon() *
                        (std::fabs(a * x[i]) + std::fabs(y[i]) + 1.0f))
            << simd::TierName(tier) << " n=" << n << " i=" << i;
      }

      ry = y;
      gy = y;
      simd::scalar::Add(ry.data(), x.data(), n);
      simd::Add(gy.data(), x.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(gy[i], ry[i]) << simd::TierName(tier) << " n=" << n;
      }

      std::vector<float> rx = x, gx = x;
      simd::scalar::Scale(rx.data(), a, n);
      simd::Scale(gx.data(), a, n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(gx[i], rx[i]) << simd::TierName(tier) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelsTest, AxpyPairBitIdenticalToTwoAxpyWithinTier) {
  TierGuard guard;
  Rng rng(15);
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t n = 1; n <= 67; ++n) {
      auto x = RandomVec(&rng, n);
      auto y = RandomVec(&rng, n);
      auto acc = RandomVec(&rng, n);
      float a = static_cast<float>(rng.NextGaussian());

      std::vector<float> ry = y, racc = acc;
      simd::Axpy(a, ry.data(), racc.data(), n);
      simd::Axpy(a, x.data(), ry.data(), n);
      simd::AxpyPair(a, x.data(), y.data(), acc.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(&y[i], &ry[i], sizeof(float)), 0)
            << simd::TierName(tier) << " n=" << n << " i=" << i;
        ASSERT_EQ(std::memcmp(&acc[i], &racc[i], sizeof(float)), 0)
            << simd::TierName(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelsTest, IntersectExactAcrossTiersAndSizes) {
  TierGuard guard;
  Rng rng(15);
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t na = 0; na <= 64; ++na) {
      for (size_t nb : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u, 300u}) {
        // Dense strides force heavy overlap; sparse strides force near
        // disjointness — both block-advance paths get exercised.
        for (uint32_t stride : {1u, 2u, 16u}) {
          auto a = RandomSet(&rng, na, stride);
          auto b = RandomSet(&rng, nb, stride);
          size_t ref =
              simd::scalar::IntersectSortedU32(a.data(), na, b.data(), nb);
          size_t got = simd::IntersectSortedU32(a.data(), na, b.data(), nb);
          ASSERT_EQ(got, ref) << simd::TierName(tier) << " na=" << na
                              << " nb=" << nb << " stride=" << stride;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, IntersectAdversarialPatterns) {
  TierGuard guard;
  // Identical sets, fully disjoint blocks, and single-element overlaps at
  // block boundaries — the patterns block intersection gets wrong when the
  // advance rule is off by one.
  std::vector<uint32_t> iota(40);
  for (uint32_t i = 0; i < 40; ++i) iota[i] = i;
  std::vector<uint32_t> evens, odds, high;
  for (uint32_t i = 0; i < 40; ++i) (i % 2 ? odds : evens).push_back(i);
  for (uint32_t i = 0; i < 40; ++i) high.push_back(i + 39);  // overlap {39}
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    EXPECT_EQ(simd::IntersectSortedU32(iota.data(), 40, iota.data(), 40), 40u)
        << simd::TierName(tier);
    EXPECT_EQ(simd::IntersectSortedU32(evens.data(), evens.size(),
                                       odds.data(), odds.size()),
              0u)
        << simd::TierName(tier);
    EXPECT_EQ(simd::IntersectSortedU32(iota.data(), 40, high.data(), 40), 1u)
        << simd::TierName(tier);
    EXPECT_EQ(simd::IntersectSortedU32(iota.data(), 0, iota.data(), 40), 0u)
        << simd::TierName(tier);
  }
}

// --- Quantized int8 / bitset kernels ---------------------------------------

std::vector<int8_t> RandomCodes(Rng* rng, size_t n) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    // Full admissible code range [-127, 127]; -128 is excluded by the
    // quantizer and by the AVX2 maddubs contract.
    x = static_cast<int8_t>(static_cast<int>(rng->NextBounded(255)) - 127);
  }
  return v;
}

TEST(SimdKernelsTest, DotI8ExactAcrossTiersAndDims) {
  TierGuard guard;
  Rng rng(16);
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t n = 1; n <= 300; ++n) {
      auto a = RandomCodes(&rng, n);
      auto b = RandomCodes(&rng, n);
      int32_t ref = simd::scalar::DotI8(a.data(), b.data(), n);
      int32_t got = simd::DotI8(a.data(), b.data(), n);
      // Integer arithmetic: exact equality, not a tolerance — the bound
      // pass's bit-identical-rankings contract rests on this.
      ASSERT_EQ(got, ref) << "tier=" << simd::TierName(tier) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, DotI8SaturationExtremes) {
  TierGuard guard;
  // All-(-127) x all-(+127) rows at the widths that stress the 16-bit
  // intermediate products: 2 * 127 * 127 = 32258 < 32767, so maddubs must
  // not saturate; any tier that does returns a wrong (clamped) sum.
  for (size_t n : {1u, 31u, 32u, 33u, 64u, 255u, 300u}) {
    std::vector<int8_t> lo(n, static_cast<int8_t>(-127));
    std::vector<int8_t> hi(n, static_cast<int8_t>(127));
    const int32_t want = -127 * 127 * static_cast<int32_t>(n);
    for (simd::Tier tier : CompiledSupportedTiers()) {
      simd::SetTier(tier);
      EXPECT_EQ(simd::DotI8(lo.data(), hi.data(), n), want)
          << simd::TierName(tier) << " n=" << n;
      EXPECT_EQ(simd::DotI8(hi.data(), hi.data(), n), -want)
          << simd::TierName(tier) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, DotBatchI8VariantsBitIdenticalToOneShot) {
  TierGuard guard;
  Rng rng(17);
  constexpr size_t kCount = 9;
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t dim : {1u, 3u, 15u, 16u, 17u, 32u, 33u, 100u, 300u}) {
      auto q = RandomCodes(&rng, dim);
      auto rows = RandomCodes(&rng, dim * kCount);
      std::vector<int32_t> out(kCount);
      simd::DotBatchI8(q.data(), rows.data(), dim, kCount, out.data());
      for (size_t k = 0; k < kCount; ++k) {
        ASSERT_EQ(out[k], simd::DotI8(q.data(), rows.data() + k * dim, dim))
            << simd::TierName(tier) << " dim=" << dim << " k=" << k;
      }

      std::vector<uint32_t> ids = {4, 0, 8, 4, 2, 7, 1, 8, 3};
      std::vector<int32_t> gout(ids.size());
      simd::DotBatchGatherI8(q.data(), rows.data(), dim, ids.data(),
                             ids.size(), gout.data());
      for (size_t k = 0; k < ids.size(); ++k) {
        ASSERT_EQ(gout[k],
                  simd::DotI8(q.data(), rows.data() + ids[k] * dim, dim))
            << simd::TierName(tier) << " dim=" << dim << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelsTest, BitsetIntersectExactAcrossTiers) {
  TierGuard guard;
  Rng rng(18);
  constexpr size_t kRows = 64;
  for (size_t words = 1; words <= 4; ++words) {
    std::vector<uint64_t> base(kRows * words);
    for (uint64_t& w : base) {
      w = (static_cast<uint64_t>(rng.NextBounded(UINT32_MAX)) << 32) |
          rng.NextBounded(UINT32_MAX);
    }
    std::vector<uint32_t> ids = {0, 63, 5, 5, 17, 40, 1, 62};
    std::vector<uint32_t> ref(ids.size());
    simd::scalar::BitsetIntersectBatch(base.data(), base.data(), words,
                                       ids.data(), ids.size(), ref.data());
    // Reference of the reference: per-word popcount by hand.
    for (size_t k = 0; k < ids.size(); ++k) {
      uint32_t want = 0;
      for (size_t w = 0; w < words; ++w) {
        uint64_t inter = base[w] & base[ids[k] * words + w];
        for (; inter != 0; inter &= inter - 1) ++want;
      }
      ASSERT_EQ(ref[k], want) << "words=" << words << " k=" << k;
    }
    for (simd::Tier tier : CompiledSupportedTiers()) {
      simd::SetTier(tier);
      std::vector<uint32_t> got(ids.size());
      simd::BitsetIntersectBatch(base.data(), base.data(), words, ids.data(),
                                 ids.size(), got.data());
      for (size_t k = 0; k < ids.size(); ++k) {
        ASSERT_EQ(got[k], ref[k])
            << simd::TierName(tier) << " words=" << words << " k=" << k;
      }
    }
  }
}

// --- Multi-query (batch-fused) kernels -------------------------------------

// The fused bound pass's contract: every (query, row) pair of a multi-query
// kernel is bit-identical to the tier's one-shot kernel on the same row —
// within every tier, for float dots, int8 dots, and bitset intersections.
// The batch-fusion ranking-parity sweep in exec_test rests on exactly this.
TEST(SimdKernelsTest, MultiQueryKernelsBitIdenticalToOneShotWithinTier) {
  TierGuard guard;
  Rng rng(19);
  constexpr size_t kQueryRows = 6;
  const std::vector<uint32_t> qids = {3, 0, 5, 3};  // out of order, duplicate
  const std::vector<uint32_t> ids = {4, 0, 8, 4, 2, 7, 1, 8, 3};
  for (simd::Tier tier : CompiledSupportedTiers()) {
    simd::SetTier(tier);
    for (size_t dim : {1u, 3u, 7u, 8u, 15u, 16u, 32u, 33u, 100u, 300u}) {
      auto qrows = RandomVec(&rng, dim * kQueryRows);
      auto rows = RandomVec(&rng, dim * 9);
      std::vector<float> out(qids.size() * ids.size());
      simd::DotBatchGatherMulti(qrows.data(), qids.data(), qids.size(),
                                rows.data(), dim, ids.data(), ids.size(),
                                out.data());
      for (size_t j = 0; j < qids.size(); ++j) {
        for (size_t k = 0; k < ids.size(); ++k) {
          ASSERT_EQ(out[j * ids.size() + k],
                    simd::Dot(qrows.data() + qids[j] * dim,
                              rows.data() + ids[k] * dim, dim))
              << simd::TierName(tier) << " dim=" << dim << " j=" << j
              << " k=" << k;
        }
      }

      auto qcodes = RandomCodes(&rng, dim * kQueryRows);
      auto codes = RandomCodes(&rng, dim * 9);
      std::vector<int32_t> iout(qids.size() * ids.size());
      simd::DotBatchGatherMultiI8(qcodes.data(), qids.data(), qids.size(),
                                  codes.data(), dim, ids.data(), ids.size(),
                                  iout.data());
      for (size_t j = 0; j < qids.size(); ++j) {
        for (size_t k = 0; k < ids.size(); ++k) {
          ASSERT_EQ(iout[j * ids.size() + k],
                    simd::DotI8(qcodes.data() + qids[j] * dim,
                                codes.data() + ids[k] * dim, dim))
              << simd::TierName(tier) << " dim=" << dim << " j=" << j
              << " k=" << k;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, BitsetIntersectMultiExactAcrossTiers) {
  TierGuard guard;
  Rng rng(20);
  constexpr size_t kRows = 64;
  const std::vector<uint32_t> qids = {7, 0, 63, 7};
  const std::vector<uint32_t> ids = {0, 63, 5, 5, 17, 40, 1, 62};
  for (size_t words = 1; words <= 4; ++words) {
    std::vector<uint64_t> base(kRows * words);
    for (uint64_t& w : base) {
      w = (static_cast<uint64_t>(rng.NextBounded(UINT32_MAX)) << 32) |
          rng.NextBounded(UINT32_MAX);
    }
    // Hand popcount reference: integer arithmetic, exact in every tier.
    std::vector<uint32_t> want(qids.size() * ids.size());
    for (size_t j = 0; j < qids.size(); ++j) {
      for (size_t k = 0; k < ids.size(); ++k) {
        uint32_t count = 0;
        for (size_t w = 0; w < words; ++w) {
          uint64_t inter =
              base[qids[j] * words + w] & base[ids[k] * words + w];
          for (; inter != 0; inter &= inter - 1) ++count;
        }
        want[j * ids.size() + k] = count;
      }
    }
    for (simd::Tier tier : CompiledSupportedTiers()) {
      simd::SetTier(tier);
      std::vector<uint32_t> got(qids.size() * ids.size());
      simd::BitsetIntersectBatchMulti(base.data(), qids.data(), qids.size(),
                                      base.data(), words, ids.data(),
                                      ids.size(), got.data());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << simd::TierName(tier) << " words=" << words << " i=" << i;
      }
    }
  }
}

// --- End-to-end ranking parity ---------------------------------------------

TEST(SimdRankingParityTest, ScalarAndBestTierReturnSameRanking) {
  if (simd::BestSupportedTier() == simd::Tier::kScalar) {
    GTEST_SKIP() << "only the scalar tier is available in this build";
  }
  TierGuard guard;
  // Fixed inputs: the world (and the trained embeddings) are built once,
  // under whatever tier is active; only the *scoring* tier is switched.
  auto bench =
      benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.2, 77);
  SemanticDataLake lake(&bench.lake.corpus, &bench.kg.kg);
  auto queries = benchgen::MakeQueries(bench.kg, 4);
  EmbeddingStore store = benchgen::TrainBenchmarkEmbeddings(bench.kg);

  TypeJaccardSimilarity type_sim(&bench.kg.kg);
  EmbeddingCosineSimilarity emb_sim(&store);
  SearchOptions options;
  options.top_k = 10;
  SearchEngine type_engine(&lake, &type_sim, options);
  SearchEngine emb_engine(&lake, &emb_sim, options);

  for (const auto& gq : queries) {
    simd::SetTier(simd::Tier::kScalar);
    auto type_scalar = type_engine.Search(gq.query);
    auto emb_scalar = emb_engine.Search(gq.query);
    simd::SetTier(simd::BestSupportedTier());
    auto type_simd = type_engine.Search(gq.query);
    auto emb_simd = emb_engine.Search(gq.query);

    // Type Jaccard is integer intersection + double division: every tier
    // computes the exact same counts, so scores are bit-identical.
    ASSERT_EQ(type_scalar.size(), type_simd.size());
    for (size_t i = 0; i < type_scalar.size(); ++i) {
      EXPECT_EQ(type_scalar[i].table, type_simd[i].table) << "rank " << i;
      EXPECT_EQ(type_scalar[i].score, type_simd[i].score) << "rank " << i;
    }

    // Embedding cosine may drift by ULPs across tiers, but never enough to
    // reorder the top-k.
    ASSERT_EQ(emb_scalar.size(), emb_simd.size());
    for (size_t i = 0; i < emb_scalar.size(); ++i) {
      EXPECT_EQ(emb_scalar[i].table, emb_simd[i].table) << "rank " << i;
      EXPECT_NEAR(emb_scalar[i].score, emb_simd[i].score, 1e-5)
          << "rank " << i;
    }
  }
}

}  // namespace
}  // namespace thetis
