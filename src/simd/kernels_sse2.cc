// SSE2 kernel tier. SSE2 is part of the x86-64 baseline, so this file needs
// no special compile flags; it compiles to an unavailable stub on other
// architectures or when THETIS_DISABLE_SIMD is defined.

#include "simd/kernels_internal.h"

#if !defined(THETIS_DISABLE_SIMD) && \
    (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)
#define THETIS_SSE2_TIER 1
#include <emmintrin.h>
#endif

namespace thetis::simd {

#if defined(THETIS_SSE2_TIER)

namespace {

inline float HorizontalSum(__m128 v) {
  __m128 shuf = _mm_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 3, 2));
  v = _mm_add_ps(v, shuf);
  shuf = _mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1));
  v = _mm_add_ps(v, shuf);
  return _mm_cvtss_f32(v);
}

float DotSse2(const float* a, const float* b, size_t n) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm_add_ps(acc0,
                      _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    acc1 = _mm_add_ps(
        acc1, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4)));
  }
  if (i + 4 <= n) {
    acc0 = _mm_add_ps(acc0,
                      _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    i += 4;
  }
  float sum = HorizontalSum(_mm_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DotAndNorms2Sse2(const float* a, const float* b, size_t n, float* dot,
                      float* na2, float* nb2) {
  __m128 accd = _mm_setzero_ps();
  __m128 acca = _mm_setzero_ps();
  __m128 accb = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 va = _mm_loadu_ps(a + i);
    __m128 vb = _mm_loadu_ps(b + i);
    accd = _mm_add_ps(accd, _mm_mul_ps(va, vb));
    acca = _mm_add_ps(acca, _mm_mul_ps(va, va));
    accb = _mm_add_ps(accb, _mm_mul_ps(vb, vb));
  }
  float d = HorizontalSum(accd);
  float sa = HorizontalSum(acca);
  float sb = HorizontalSum(accb);
  for (; i < n; ++i) {
    d += a[i] * b[i];
    sa += a[i] * a[i];
    sb += b[i] * b[i];
  }
  *dot = d;
  *na2 = sa;
  *nb2 = sb;
}

void DotBatchSse2(const float* q, const float* rows, size_t dim, size_t count,
                  float* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotSse2(q, rows + k * dim, dim);
  }
}

void DotBatchGatherSse2(const float* q, const float* base, size_t dim,
                        const uint32_t* ids, size_t count, float* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotSse2(q, base + static_cast<size_t>(ids[k]) * dim, dim);
  }
}

void AxpySse2(float a, const float* x, float* y, size_t n) {
  __m128 va = _mm_set1_ps(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 vy = _mm_loadu_ps(y + i);
    vy = _mm_add_ps(vy, _mm_mul_ps(va, _mm_loadu_ps(x + i)));
    _mm_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// AxpySse2(a, y, acc) then AxpySse2(a, x, y), element by element.
void AxpyPairSse2(float a, const float* x, float* y, float* acc, size_t n) {
  __m128 va = _mm_set1_ps(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 vy = _mm_loadu_ps(y + i);
    _mm_storeu_ps(acc + i,
                  _mm_add_ps(_mm_loadu_ps(acc + i), _mm_mul_ps(va, vy)));
    _mm_storeu_ps(y + i, _mm_add_ps(vy, _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) {
    acc[i] += a * y[i];
    y[i] += a * x[i];
  }
}

void AddSse2(float* acc, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(acc + i,
                  _mm_add_ps(_mm_loadu_ps(acc + i), _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void ScaleSse2(float* x, float s, size_t n) {
  __m128 vs = _mm_set1_ps(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

// Block-wise sorted-set intersection (Schlegel et al. style): compare a
// 4-block of `a` against all four cyclic rotations of a 4-block of `b`,
// popcount the match mask, and advance whichever block exhausts first.
// Requires strictly increasing inputs (genuine sets).
size_t IntersectSse2(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i cmp = _mm_cmpeq_epi32(va, vb);
    __m128i rot = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    cmp = _mm_or_si128(cmp, _mm_cmpeq_epi32(va, rot));
    rot = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    cmp = _mm_or_si128(cmp, _mm_cmpeq_epi32(va, rot));
    rot = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
    cmp = _mm_or_si128(cmp, _mm_cmpeq_epi32(va, rot));
    inter += static_cast<size_t>(
        __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(cmp))));
    uint32_t amax = a[i + 3];
    uint32_t bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
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

// Exact int8 dot: sign-extend each 16-byte block to two int16 vectors
// (unpack with itself + arithmetic shift right keeps the sign), then
// _mm_madd_epi16 multiplies and pairwise-adds into int32 lanes. Pure
// integer arithmetic, so the result is bit-identical to the scalar tier.
int32_t DotI8Sse2(const int8_t* a, const int8_t* b, size_t n) {
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    __m128i a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(va, va), 8);
    __m128i a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(va, va), 8);
    __m128i b_lo = _mm_srai_epi16(_mm_unpacklo_epi8(vb, vb), 8);
    __m128i b_hi = _mm_srai_epi16(_mm_unpackhi_epi8(vb, vb), 8);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
  }
  __m128i hi64 = _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2));
  acc = _mm_add_epi32(acc, hi64);
  __m128i hi32 = _mm_shuffle_epi32(acc, _MM_SHUFFLE(2, 3, 0, 1));
  acc = _mm_add_epi32(acc, hi32);
  int32_t sum = _mm_cvtsi128_si32(acc);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

void DotBatchI8Sse2(const int8_t* q, const int8_t* rows, size_t dim,
                    size_t count, int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotI8Sse2(q, rows + k * dim, dim);
  }
}

void DotBatchGatherI8Sse2(const int8_t* q, const int8_t* base, size_t dim,
                          const uint32_t* ids, size_t count, int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotI8Sse2(q, base + static_cast<size_t>(ids[k]) * dim, dim);
  }
}

// Bitsets are at most a handful of 64-bit words (vocab <= 256 -> words
// <= 4); scalar popcount over the AND is already optimal, and integer
// exactness across tiers is free.
void BitsetIntersectBatchSse2(const uint64_t* q, const uint64_t* base,
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

// Multi-query dual-gather kernels: outer loop over target rows (each
// gathered row streams against the whole query batch), inner loop over
// queries through the tier's one-shot kernel — bit-identical per pair to
// the single-query gather kernels above.
void DotBatchGatherMultiSse2(const float* qbase, const uint32_t* qids,
                             size_t nq, const float* base, size_t dim,
                             const uint32_t* ids, size_t count, float* out) {
  for (size_t k = 0; k < count; ++k) {
    const float* row = base + static_cast<size_t>(ids[k]) * dim;
    for (size_t j = 0; j < nq; ++j) {
      out[j * count + k] =
          DotSse2(qbase + static_cast<size_t>(qids[j]) * dim, row, dim);
    }
  }
}

void DotBatchGatherMultiI8Sse2(const int8_t* qbase, const uint32_t* qids,
                               size_t nq, const int8_t* base, size_t dim,
                               const uint32_t* ids, size_t count,
                               int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const int8_t* row = base + static_cast<size_t>(ids[k]) * dim;
    for (size_t j = 0; j < nq; ++j) {
      out[j * count + k] =
          DotI8Sse2(qbase + static_cast<size_t>(qids[j]) * dim, row, dim);
    }
  }
}

void BitsetIntersectBatchMultiSse2(const uint64_t* qbase,
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

const Kernels* GetSse2Kernels() {
  static const Kernels table = {
      DotSse2,           DotAndNorms2Sse2, DotBatchSse2, DotBatchGatherSse2,
      AxpySse2,          AxpyPairSse2,     AddSse2,      ScaleSse2,
      IntersectSse2,
      DotI8Sse2,         DotBatchI8Sse2,
      DotBatchGatherI8Sse2, BitsetIntersectBatchSse2,
      DotBatchGatherMultiSse2, DotBatchGatherMultiI8Sse2,
      BitsetIntersectBatchMultiSse2,
  };
  return &table;
}

#else  // !THETIS_SSE2_TIER

const Kernels* GetSse2Kernels() { return nullptr; }

#endif

}  // namespace thetis::simd
