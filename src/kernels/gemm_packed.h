// Tuned, packed, schedule-searched fp32 GEMM (the paper's blocking methodology applied
// to the dense/matmul workload class). C[M,N] = A[M,K] * B[K,N] with a fused
// bias/ReLU epilogue; B is pre-packed into nr-column panels (at compile time for dense
// weights, at run time for the im2col column buffer), A is packed into mr-row panels
// in a caller-provided workspace (arena slice on the memory-planned path). The macro
// tile drivers are compiled per ISA tier (baseline/avx2/avx512) and dispatched at run
// time (src/base/isa.h).
#ifndef NEOCPU_SRC_KERNELS_GEMM_PACKED_H_
#define NEOCPU_SRC_KERNELS_GEMM_PACKED_H_

#include <cstddef>
#include <cstdint>

#include "src/kernels/gemm_schedule.h"
#include "src/runtime/thread_engine.h"

namespace neocpu {

// Packed-operand sizes in elements (floats). Panels are zero-padded to full mr/nr.
std::size_t PackedAF32Elems(std::int64_t m, std::int64_t k, const GemmSchedule& s);
std::size_t PackedBF32Elems(std::int64_t n, std::int64_t k, const GemmSchedule& s);

// Packs row-major A[m][k] into [ceil(m/mr)][k][mr] panels.
void PackAF32(const float* a, std::int64_t m, std::int64_t k, const GemmSchedule& s,
              float* out, ThreadEngine* engine = nullptr);
// Packs row-major B[k][n] into [ceil(n/nr)][k][nr] panels.
void PackBF32(const float* b, std::int64_t n, std::int64_t k, const GemmSchedule& s,
              float* out);
// Same, but from the transposed source W[n][k] (a dense layer's {Out, In} weight:
// B = W^T without materializing the transpose).
void PackBF32FromTransposed(const float* w, std::int64_t n, std::int64_t k,
                            const GemmSchedule& s, float* out);

// Name of the ISA tier the tile drivers run at ("baseline", "avx2", "avx512"); pin it
// with SetIsaOverride (src/base/isa.h).
const char* GemmPackedIsaName();

// C[m][n] = A[m][k] * packed_b (+ bias, ReLU). `workspace` holds the packed A panels
// (PackedAF32Elems floats); pass null to let the kernel allocate one internally
// (bench/test convenience — the planned executor always passes an arena slice).
void GemmPackedF32(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                   const float* packed_b, const float* bias, bool relu, float* c,
                   const GemmSchedule& s, float* workspace = nullptr,
                   ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_GEMM_PACKED_H_
