// AVX2 + FMA kernel tier. CMake compiles this translation unit with
// -mavx2 -mfma and defines THETIS_BUILD_AVX2 when the target architecture
// and compiler support it; otherwise the file compiles to an unavailable
// stub. Callers must still check __builtin_cpu_supports at runtime (the
// dispatcher does).

#include "simd/kernels_internal.h"

#if !defined(THETIS_DISABLE_SIMD) && defined(THETIS_BUILD_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
#define THETIS_AVX2_TIER 1
#include <immintrin.h>
#endif

namespace thetis::simd {

#if defined(THETIS_AVX2_TIER)

namespace {

inline float HorizontalSum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_shuffle_ps(sum, sum, _MM_SHUFFLE(1, 0, 3, 2));
  sum = _mm_add_ps(sum, shuf);
  shuf = _mm_shuffle_ps(sum, sum, _MM_SHUFFLE(2, 3, 0, 1));
  sum = _mm_add_ps(sum, shuf);
  return _mm_cvtss_f32(sum);
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  float sum = HorizontalSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DotAndNorms2Avx2(const float* a, const float* b, size_t n, float* dot,
                      float* na2, float* nb2) {
  __m256 accd = _mm256_setzero_ps();
  __m256 acca = _mm256_setzero_ps();
  __m256 accb = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    accd = _mm256_fmadd_ps(va, vb, accd);
    acca = _mm256_fmadd_ps(va, va, acca);
    accb = _mm256_fmadd_ps(vb, vb, accb);
  }
  float d = HorizontalSum256(accd);
  float sa = HorizontalSum256(acca);
  float sb = HorizontalSum256(accb);
  for (; i < n; ++i) {
    d += a[i] * b[i];
    sa += a[i] * a[i];
    sb += b[i] * b[i];
  }
  *dot = d;
  *na2 = sa;
  *nb2 = sb;
}

void DotBatchAvx2(const float* q, const float* rows, size_t dim, size_t count,
                  float* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotAvx2(q, rows + k * dim, dim);
  }
}

void DotBatchGatherAvx2(const float* q, const float* base, size_t dim,
                        const uint32_t* ids, size_t count, float* out) {
  for (size_t k = 0; k < count; ++k) {
    const float* row = base + static_cast<size_t>(ids[k]) * dim;
    if (k + 1 < count) {
      _mm_prefetch(
          reinterpret_cast<const char*>(base +
                                        static_cast<size_t>(ids[k + 1]) * dim),
          _MM_HINT_T0);
    }
    out[k] = DotAvx2(q, row, dim);
  }
}

void AxpyAvx2(float a, const float* x, float* y, size_t n) {
  __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// AxpyAvx2(a, y, acc) then AxpyAvx2(a, x, y), element by element: the
// same FMAs in the vector body and the same scalar tail expressions.
void AxpyPairAvx2(float a, const float* x, float* y, float* acc, size_t n) {
  __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(acc + i,
                     _mm256_fmadd_ps(va, vy, _mm256_loadu_ps(acc + i)));
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) {
    acc[i] += a * y[i];
    y[i] += a * x[i];
  }
}

void AddAvx2(float* acc, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                               _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void ScaleAvx2(float* x, float s, size_t n) {
  __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

// 8x8 block intersection: compare an 8-block of `a` against all eight
// cyclic rotations of an 8-block of `b`. Requires strictly increasing
// inputs (genuine sets).
size_t IntersectAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i cmp = _mm256_cmpeq_epi32(va, vb);
    __m256i rot = vb;
    for (int r = 1; r < 8; ++r) {
      rot = _mm256_permutevar8x32_epi32(
          vb, _mm256_setr_epi32(r, (r + 1) & 7, (r + 2) & 7, (r + 3) & 7,
                                (r + 4) & 7, (r + 5) & 7, (r + 6) & 7,
                                (r + 7) & 7));
      cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, rot));
    }
    inter += static_cast<size_t>(
        __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(cmp))));
    uint32_t amax = a[i + 7];
    uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return inter;
}

// Exact int8 dot via the maddubs/sign trick: maddubs wants an unsigned
// left operand, so feed it |a| and transfer a's sign onto b with
// _mm256_sign_epi8 — |a[i]| * sign(a[i])*b[i] == a[i]*b[i]. The int16
// pair sums cannot saturate with codes in [-127, 127] (2 * 127^2 =
// 32258 < 32767); _mm256_madd_epi16 against ones then widens exactly to
// int32. Pure integer arithmetic — bit-identical to the scalar tier.
int32_t DotI8Avx2(const int8_t* a, const int8_t* b, size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i prods =
        _mm256_maddubs_epi16(_mm256_abs_epi8(va), _mm256_sign_epi8(vb, va));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(prods, ones));
  }
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i sum4 = _mm_add_epi32(lo, hi);
  sum4 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, _MM_SHUFFLE(1, 0, 3, 2)));
  sum4 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t sum = _mm_cvtsi128_si32(sum4);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

void DotBatchI8Avx2(const int8_t* q, const int8_t* rows, size_t dim,
                    size_t count, int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotI8Avx2(q, rows + k * dim, dim);
  }
}

void DotBatchGatherI8Avx2(const int8_t* q, const int8_t* base, size_t dim,
                          const uint32_t* ids, size_t count, int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const int8_t* row = base + static_cast<size_t>(ids[k]) * dim;
    if (k + 1 < count) {
      _mm_prefetch(
          reinterpret_cast<const char*>(
              base + static_cast<size_t>(ids[k + 1]) * dim),
          _MM_HINT_T0);
    }
    out[k] = DotI8Avx2(q, row, dim);
  }
}

// Bitsets are at most 4 words (vocab <= 256); scalar popcount over the
// AND wins over any vector dance at that width, and stays integer-exact.
void BitsetIntersectBatchAvx2(const uint64_t* q, const uint64_t* base,
                              size_t words, const uint32_t* ids, size_t count,
                              uint32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const uint64_t* row = base + static_cast<size_t>(ids[k]) * words;
    uint32_t inter = 0;
    for (size_t w = 0; w < words; ++w) {
      inter += static_cast<uint32_t>(__builtin_popcountll(q[w] & row[w]));
    }
    out[k] = inter;
  }
}

// Multi-query dual-gather kernels: the target row is the outer loop (one
// gathered + prefetched row streams against the whole query batch), the
// inner loop delegates each (query, row) pair to the tier's one-shot
// kernel — bit-identical per pair to the single-query gather kernels.
void DotBatchGatherMultiAvx2(const float* qbase, const uint32_t* qids,
                             size_t nq, const float* base, size_t dim,
                             const uint32_t* ids, size_t count, float* out) {
  for (size_t k = 0; k < count; ++k) {
    const float* row = base + static_cast<size_t>(ids[k]) * dim;
    if (k + 1 < count) {
      _mm_prefetch(
          reinterpret_cast<const char*>(base +
                                        static_cast<size_t>(ids[k + 1]) * dim),
          _MM_HINT_T0);
    }
    for (size_t j = 0; j < nq; ++j) {
      out[j * count + k] =
          DotAvx2(qbase + static_cast<size_t>(qids[j]) * dim, row, dim);
    }
  }
}

void DotBatchGatherMultiI8Avx2(const int8_t* qbase, const uint32_t* qids,
                               size_t nq, const int8_t* base, size_t dim,
                               const uint32_t* ids, size_t count,
                               int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const int8_t* row = base + static_cast<size_t>(ids[k]) * dim;
    if (k + 1 < count) {
      _mm_prefetch(
          reinterpret_cast<const char*>(
              base + static_cast<size_t>(ids[k + 1]) * dim),
          _MM_HINT_T0);
    }
    for (size_t j = 0; j < nq; ++j) {
      out[j * count + k] =
          DotI8Avx2(qbase + static_cast<size_t>(qids[j]) * dim, row, dim);
    }
  }
}

void BitsetIntersectBatchMultiAvx2(const uint64_t* qbase,
                                   const uint32_t* qids, size_t nq,
                                   const uint64_t* base, size_t words,
                                   const uint32_t* ids, size_t count,
                                   uint32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const uint64_t* row = base + static_cast<size_t>(ids[k]) * words;
    for (size_t j = 0; j < nq; ++j) {
      const uint64_t* q = qbase + static_cast<size_t>(qids[j]) * words;
      uint32_t inter = 0;
      for (size_t w = 0; w < words; ++w) {
        inter += static_cast<uint32_t>(__builtin_popcountll(q[w] & row[w]));
      }
      out[j * count + k] = inter;
    }
  }
}

}  // namespace

const Kernels* GetAvx2Kernels() {
  static const Kernels table = {
      DotAvx2,           DotAndNorms2Avx2, DotBatchAvx2, DotBatchGatherAvx2,
      AxpyAvx2,          AxpyPairAvx2,     AddAvx2,      ScaleAvx2,
      IntersectAvx2,
      DotI8Avx2,         DotBatchI8Avx2,
      DotBatchGatherI8Avx2, BitsetIntersectBatchAvx2,
      DotBatchGatherMultiAvx2, DotBatchGatherMultiI8Avx2,
      BitsetIntersectBatchMultiAvx2,
  };
  return &table;
}

#else  // !THETIS_AVX2_TIER

const Kernels* GetAvx2Kernels() { return nullptr; }

#endif

}  // namespace thetis::simd
