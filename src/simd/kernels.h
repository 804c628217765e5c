#ifndef THETIS_SIMD_KERNELS_H_
#define THETIS_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace thetis::simd {

// Runtime-dispatched batch kernels for the innermost scoring arithmetic:
// dense float dot products (embedding cosine, hyperplane LSH, skip-gram)
// and sorted-u32 set intersection (type Jaccard*). Three tiers:
//
//   kAvx2   AVX2 + FMA, 8 floats / 8 u32 lanes per step
//   kSse2   SSE2, 4 lanes per step (baseline on x86-64)
//   kScalar portable reference loops
//
// The active tier is chosen once at first use: the highest tier both
// compiled in and supported by the running CPU, overridable with the
// THETIS_SIMD environment variable ("scalar", "sse2", "avx2") and at
// runtime with SetTier (tests use this for in-binary parity checks).
// Building with -DTHETIS_DISABLE_SIMD=ON compiles only the scalar tier.
//
// Numeric policy: within one tier every kernel is deterministic, and batch
// variants perform the exact same per-element arithmetic as their one-shot
// counterparts (same accumulation order), so batched and unbatched scoring
// are bit-identical. Across tiers, float results may differ by a few ULPs
// (vectorized accumulation reorders additions; AVX2 contracts to FMA);
// integer kernels (IntersectSortedU32) are exact in every tier. See
// DESIGN.md "SIMD kernel layer" for the tolerance policy.
enum class Tier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// Human-readable tier name ("scalar", "sse2", "avx2").
const char* TierName(Tier tier);

// Highest tier compiled into this binary and supported by this CPU.
Tier BestSupportedTier();

// The tier kernels currently dispatch to.
Tier ActiveTier();

// Forces dispatch to `tier` (clamped to BestSupportedTier). Not
// synchronized with in-flight kernel calls: switch only in quiescent
// states, e.g. between test cases.
void SetTier(Tier tier);

// --- Dense float kernels ---------------------------------------------------

// a · b.
float Dot(const float* a, const float* b, size_t n);

// sqrt(a · a).
float L2Norm(const float* a, size_t n);

// Fused one-pass *dot = a·b, *na2 = a·a, *nb2 = b·b.
void DotAndNorms2(const float* a, const float* b, size_t n, float* dot,
                  float* na2, float* nb2);

// One-vs-many over contiguous rows: out[k] = q · rows[k*dim .. k*dim+dim).
void DotBatch(const float* q, const float* rows, size_t dim, size_t count,
              float* out);

// One-vs-many over gathered rows of a row-major arena:
// out[k] = q · base[ids[k]*dim .. ids[k]*dim+dim).
void DotBatchGather(const float* q, const float* base, size_t dim,
                    const uint32_t* ids, size_t count, float* out);

// Many-vs-many over gathered rows (batch-fused bound pass): for each of
// the `nq` query rows qbase[qids[j]*dim ..) and each of the `count` target
// rows base[ids[k]*dim ..),
//   out[j*count + k] = q_j · t_k.
// The target row is the outer loop so one gathered row is streamed against
// every query before the next is touched — the whole point of fusing a
// batch into one arena pass. Each (j, k) pair runs the tier's one-shot dot
// kernel, so every output is bit-identical to DotBatchGather row by row.
void DotBatchGatherMulti(const float* qbase, const uint32_t* qids, size_t nq,
                         const float* base, size_t dim, const uint32_t* ids,
                         size_t count, float* out);

// y[i] += a * x[i].
void Axpy(float a, const float* x, float* y, size_t n);

// The skip-gram pair update in one pass: per element, acc[i] += a * y[i]
// (reading y before its update), then y[i] += a * x[i]. Each element goes
// through the same arithmetic as Axpy(a, y, acc, n) followed by
// Axpy(a, x, y, n) in the same tier, so the result is bit-identical to
// those two calls whenever acc aliases neither x nor y.
void AxpyPair(float a, const float* x, float* y, float* acc, size_t n);

// acc[i] += x[i].
void Add(float* acc, const float* x, size_t n);

// x[i] *= s.
void Scale(float* x, float s, size_t n);

// --- Quantized int8 kernels ------------------------------------------------
//
// Exact int32 dot products over int8 code vectors (symmetric per-row
// quantization, codes in [-127, 127]). All arithmetic is integer, so like
// IntersectSortedU32 these are bit-identical across every tier — the
// quantized bound pass relies on this for cross-tier ranking parity. The
// AVX2 tier's maddubs path requires |a[i]| <= 127 (no -128), which the
// quantizer guarantees.

// Σ a[i] * b[i] as exact int32 (|codes| <= 127 keeps any realistic dim
// far from overflow: 300 * 127^2 < 2^23).
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);

// One-vs-many over contiguous int8 rows.
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t dim, size_t count,
                int32_t* out);

// One-vs-many over gathered int8 rows of a row-major arena.
void DotBatchGatherI8(const int8_t* q, const int8_t* base, size_t dim,
                      const uint32_t* ids, size_t count, int32_t* out);

// Many-vs-many int8 dual-gather variant of DotBatchGatherMulti:
// out[j*count + k] = codes(qids[j]) · codes(ids[k]), exact int32 in every
// tier (integer arithmetic, like all int8 kernels).
void DotBatchGatherMultiI8(const int8_t* qbase, const uint32_t* qids,
                           size_t nq, const int8_t* base, size_t dim,
                           const uint32_t* ids, size_t count, int32_t* out);

// --- Bitset kernels --------------------------------------------------------

// Batched popcount intersection over fixed-width bitsets:
// out[k] = popcount(q & base[ids[k]*words .. +words)). Integer-exact in
// every tier; `words` is the per-entity bitset width in 64-bit words.
void BitsetIntersectBatch(const uint64_t* q, const uint64_t* base,
                          size_t words, const uint32_t* ids, size_t count,
                          uint32_t* out);

// Many-vs-many bitset variant (batch-fused type-Jaccard bounds):
// out[j*count + k] = popcount(qbase[qids[j]*words ..] & base[ids[k]*words
// ..]). Integer-exact in every tier; target rows are the outer loop.
void BitsetIntersectBatchMulti(const uint64_t* qbase, const uint32_t* qids,
                               size_t nq, const uint64_t* base, size_t words,
                               const uint32_t* ids, size_t count,
                               uint32_t* out);

// --- Sorted-set kernels ----------------------------------------------------

// |a ∩ b| for strictly increasing u32 sequences (sets). The scalar tier
// tolerates duplicates (classic merge semantics); the SIMD tiers require
// genuine sets, which is what every caller (type/predicate/shingle sets)
// passes.
size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb);

// Scalar reference implementations, bypassing dispatch. The parity suite
// compares each tier against these.
namespace scalar {
float Dot(const float* a, const float* b, size_t n);
void DotAndNorms2(const float* a, const float* b, size_t n, float* dot,
                  float* na2, float* nb2);
void DotBatch(const float* q, const float* rows, size_t dim, size_t count,
              float* out);
void DotBatchGather(const float* q, const float* base, size_t dim,
                    const uint32_t* ids, size_t count, float* out);
void Axpy(float a, const float* x, float* y, size_t n);
void AxpyPair(float a, const float* x, float* y, float* acc, size_t n);
void Add(float* acc, const float* x, size_t n);
void Scale(float* x, float s, size_t n);
size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb);
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t dim, size_t count,
                int32_t* out);
void DotBatchGatherI8(const int8_t* q, const int8_t* base, size_t dim,
                      const uint32_t* ids, size_t count, int32_t* out);
void BitsetIntersectBatch(const uint64_t* q, const uint64_t* base,
                          size_t words, const uint32_t* ids, size_t count,
                          uint32_t* out);
void DotBatchGatherMulti(const float* qbase, const uint32_t* qids, size_t nq,
                         const float* base, size_t dim, const uint32_t* ids,
                         size_t count, float* out);
void DotBatchGatherMultiI8(const int8_t* qbase, const uint32_t* qids,
                           size_t nq, const int8_t* base, size_t dim,
                           const uint32_t* ids, size_t count, int32_t* out);
void BitsetIntersectBatchMulti(const uint64_t* qbase, const uint32_t* qids,
                               size_t nq, const uint64_t* base, size_t words,
                               const uint32_t* ids, size_t count,
                               uint32_t* out);
}  // namespace scalar

}  // namespace thetis::simd

#endif  // THETIS_SIMD_KERNELS_H_
