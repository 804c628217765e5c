#include "simd/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "simd/kernels_internal.h"

namespace thetis::simd {

// --- Scalar reference tier -------------------------------------------------

namespace scalar {

float Dot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void DotAndNorms2(const float* a, const float* b, size_t n, float* dot,
                  float* na2, float* nb2) {
  float d = 0.0f;
  float sa = 0.0f;
  float sb = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    d += a[i] * b[i];
    sa += a[i] * a[i];
    sb += b[i] * b[i];
  }
  *dot = d;
  *na2 = sa;
  *nb2 = sb;
}

void DotBatch(const float* q, const float* rows, size_t dim, size_t count,
              float* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = Dot(q, rows + k * dim, dim);
  }
}

void DotBatchGather(const float* q, const float* base, size_t dim,
                    const uint32_t* ids, size_t count, float* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = Dot(q, base + static_cast<size_t>(ids[k]) * dim, dim);
  }
}

void Axpy(float a, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void AxpyPair(float a, const float* x, float* y, float* acc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] += a * y[i];
    y[i] += a * x[i];
  }
}

void Add(float* acc, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void Scale(float* x, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= s;
}

size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
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

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t dim, size_t count,
                int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotI8(q, rows + k * dim, dim);
  }
}

void DotBatchGatherI8(const int8_t* q, const int8_t* base, size_t dim,
                      const uint32_t* ids, size_t count, int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = DotI8(q, base + static_cast<size_t>(ids[k]) * dim, dim);
  }
}

void BitsetIntersectBatch(const uint64_t* q, const uint64_t* base,
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

// Multi-query dual-gather kernels: the target row is the outer loop so one
// gathered row serves the whole query batch before the next row is
// touched; each (query, row) pair goes through the one-shot kernel, so
// every output matches the single-query gather kernels bit for bit.
void DotBatchGatherMulti(const float* qbase, const uint32_t* qids, size_t nq,
                         const float* base, size_t dim, const uint32_t* ids,
                         size_t count, float* out) {
  for (size_t k = 0; k < count; ++k) {
    const float* row = base + static_cast<size_t>(ids[k]) * dim;
    for (size_t j = 0; j < nq; ++j) {
      out[j * count + k] =
          Dot(qbase + static_cast<size_t>(qids[j]) * dim, row, dim);
    }
  }
}

void DotBatchGatherMultiI8(const int8_t* qbase, const uint32_t* qids,
                           size_t nq, const int8_t* base, size_t dim,
                           const uint32_t* ids, size_t count, int32_t* out) {
  for (size_t k = 0; k < count; ++k) {
    const int8_t* row = base + static_cast<size_t>(ids[k]) * dim;
    for (size_t j = 0; j < nq; ++j) {
      out[j * count + k] =
          DotI8(qbase + static_cast<size_t>(qids[j]) * dim, row, dim);
    }
  }
}

void BitsetIntersectBatchMulti(const uint64_t* qbase, const uint32_t* qids,
                               size_t nq, const uint64_t* base, size_t words,
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

}  // namespace scalar

const Kernels* GetScalarKernels() {
  static const Kernels table = {
      scalar::Dot,          scalar::DotAndNorms2, scalar::DotBatch,
      scalar::DotBatchGather, scalar::Axpy,       scalar::AxpyPair,
      scalar::Add,
      scalar::Scale,        scalar::IntersectSortedU32,
      scalar::DotI8,        scalar::DotBatchI8,
      scalar::DotBatchGatherI8, scalar::BitsetIntersectBatch,
      scalar::DotBatchGatherMulti, scalar::DotBatchGatherMultiI8,
      scalar::BitsetIntersectBatchMulti,
  };
  return &table;
}

// --- Dispatch --------------------------------------------------------------

namespace {

const Kernels* TableForTier(Tier tier) {
  if (tier == Tier::kAvx2) {
    if (const Kernels* t = GetAvx2Kernels()) return t;
    tier = Tier::kSse2;
  }
  if (tier == Tier::kSse2) {
    if (const Kernels* t = GetSse2Kernels()) return t;
  }
  return GetScalarKernels();
}

bool CpuSupports(Tier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Tier::kSse2:
      return __builtin_cpu_supports("sse2");
    case Tier::kScalar:
      return true;
  }
  return false;
#else
  return tier == Tier::kScalar;
#endif
}

Tier DetectBestTier() {
  if (GetAvx2Kernels() != nullptr && CpuSupports(Tier::kAvx2)) {
    return Tier::kAvx2;
  }
  if (GetSse2Kernels() != nullptr && CpuSupports(Tier::kSse2)) {
    return Tier::kSse2;
  }
  return Tier::kScalar;
}

Tier InitialTier() {
  Tier best = DetectBestTier();
  const char* env = std::getenv("THETIS_SIMD");
  if (env != nullptr) {
    Tier wanted = best;
    if (std::strcmp(env, "scalar") == 0) {
      wanted = Tier::kScalar;
    } else if (std::strcmp(env, "sse2") == 0) {
      wanted = Tier::kSse2;
    } else if (std::strcmp(env, "avx2") == 0) {
      wanted = Tier::kAvx2;
    }
    if (static_cast<int>(wanted) < static_cast<int>(best)) best = wanted;
  }
  return best;
}

struct Dispatch {
  std::atomic<const Kernels*> table;
  std::atomic<int> tier;
  Dispatch() {
    Tier t = InitialTier();
    tier.store(static_cast<int>(t), std::memory_order_relaxed);
    table.store(TableForTier(t), std::memory_order_relaxed);
  }
};

Dispatch& ActiveDispatch() {
  static Dispatch dispatch;
  return dispatch;
}

const Kernels& K() {
  return *ActiveDispatch().table.load(std::memory_order_relaxed);
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kSse2:
      return "sse2";
    case Tier::kScalar:
      return "scalar";
  }
  return "unknown";
}

Tier BestSupportedTier() {
  static const Tier best = DetectBestTier();
  return best;
}

Tier ActiveTier() {
  return static_cast<Tier>(
      ActiveDispatch().tier.load(std::memory_order_relaxed));
}

void SetTier(Tier tier) {
  Tier best = BestSupportedTier();
  if (static_cast<int>(tier) > static_cast<int>(best)) tier = best;
  Dispatch& dispatch = ActiveDispatch();
  dispatch.tier.store(static_cast<int>(tier), std::memory_order_relaxed);
  dispatch.table.store(TableForTier(tier), std::memory_order_relaxed);
}

float Dot(const float* a, const float* b, size_t n) { return K().dot(a, b, n); }

float L2Norm(const float* a, size_t n) { return std::sqrt(K().dot(a, a, n)); }

void DotAndNorms2(const float* a, const float* b, size_t n, float* dot,
                  float* na2, float* nb2) {
  K().dot_and_norms2(a, b, n, dot, na2, nb2);
}

void DotBatch(const float* q, const float* rows, size_t dim, size_t count,
              float* out) {
  K().dot_batch(q, rows, dim, count, out);
}

void DotBatchGather(const float* q, const float* base, size_t dim,
                    const uint32_t* ids, size_t count, float* out) {
  K().dot_batch_gather(q, base, dim, ids, count, out);
}

void Axpy(float a, const float* x, float* y, size_t n) { K().axpy(a, x, y, n); }

void AxpyPair(float a, const float* x, float* y, float* acc, size_t n) {
  K().axpy_pair(a, x, y, acc, n);
}

void Add(float* acc, const float* x, size_t n) { K().add(acc, x, n); }

void Scale(float* x, float s, size_t n) { K().scale(x, s, n); }

size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb) {
  return K().intersect(a, na, b, nb);
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  return K().dot_i8(a, b, n);
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t dim, size_t count,
                int32_t* out) {
  K().dot_batch_i8(q, rows, dim, count, out);
}

void DotBatchGatherI8(const int8_t* q, const int8_t* base, size_t dim,
                      const uint32_t* ids, size_t count, int32_t* out) {
  K().dot_batch_gather_i8(q, base, dim, ids, count, out);
}

void BitsetIntersectBatch(const uint64_t* q, const uint64_t* base,
                          size_t words, const uint32_t* ids, size_t count,
                          uint32_t* out) {
  K().bitset_inter_batch(q, base, words, ids, count, out);
}

void DotBatchGatherMulti(const float* qbase, const uint32_t* qids, size_t nq,
                         const float* base, size_t dim, const uint32_t* ids,
                         size_t count, float* out) {
  K().dot_batch_gather_multi(qbase, qids, nq, base, dim, ids, count, out);
}

void DotBatchGatherMultiI8(const int8_t* qbase, const uint32_t* qids,
                           size_t nq, const int8_t* base, size_t dim,
                           const uint32_t* ids, size_t count, int32_t* out) {
  K().dot_batch_gather_multi_i8(qbase, qids, nq, base, dim, ids, count, out);
}

void BitsetIntersectBatchMulti(const uint64_t* qbase, const uint32_t* qids,
                               size_t nq, const uint64_t* base, size_t words,
                               const uint32_t* ids, size_t count,
                               uint32_t* out) {
  K().bitset_inter_batch_multi(qbase, qids, nq, base, words, ids, count, out);
}

}  // namespace thetis::simd
