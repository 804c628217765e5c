#ifndef THETIS_SIMD_KERNELS_INTERNAL_H_
#define THETIS_SIMD_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace thetis::simd {

// One dispatch table per tier. Each SIMD translation unit fills one table
// (or reports itself unavailable with nullptr when the architecture or
// build flags rule it out).
struct Kernels {
  float (*dot)(const float*, const float*, size_t);
  void (*dot_and_norms2)(const float*, const float*, size_t, float*, float*,
                         float*);
  void (*dot_batch)(const float*, const float*, size_t, size_t, float*);
  void (*dot_batch_gather)(const float*, const float*, size_t,
                           const uint32_t*, size_t, float*);
  void (*axpy)(float, const float*, float*, size_t);
  void (*axpy_pair)(float, const float*, float*, float*, size_t);
  void (*add)(float*, const float*, size_t);
  void (*scale)(float*, float, size_t);
  size_t (*intersect)(const uint32_t*, size_t, const uint32_t*, size_t);
  int32_t (*dot_i8)(const int8_t*, const int8_t*, size_t);
  void (*dot_batch_i8)(const int8_t*, const int8_t*, size_t, size_t,
                       int32_t*);
  void (*dot_batch_gather_i8)(const int8_t*, const int8_t*, size_t,
                              const uint32_t*, size_t, int32_t*);
  void (*bitset_inter_batch)(const uint64_t*, const uint64_t*, size_t,
                             const uint32_t*, size_t, uint32_t*);
  void (*dot_batch_gather_multi)(const float*, const uint32_t*, size_t,
                                 const float*, size_t, const uint32_t*,
                                 size_t, float*);
  void (*dot_batch_gather_multi_i8)(const int8_t*, const uint32_t*, size_t,
                                    const int8_t*, size_t, const uint32_t*,
                                    size_t, int32_t*);
  void (*bitset_inter_batch_multi)(const uint64_t*, const uint32_t*, size_t,
                                   const uint64_t*, size_t, const uint32_t*,
                                   size_t, uint32_t*);
};

// nullptr when the tier is not compiled into this binary.
const Kernels* GetScalarKernels();
const Kernels* GetSse2Kernels();
const Kernels* GetAvx2Kernels();

}  // namespace thetis::simd

#endif  // THETIS_SIMD_KERNELS_INTERNAL_H_
