// Tuned, packed u8·s8→s32 GEMM with the fused integer epilogue (zero-point-folded s32
// bias, integer ReLU, per-column multiplier, optional requantizing s8/u8 store) — the
// quantized counterpart of gemm_packed.h for the tuned Dense path. Operands are
// quad-packed ([..][ceil(k/4)][..][4]) so every ISA tier — portable s32 quads,
// AVX-512 VNNI vpdpbusd on the widest — accumulates identically (bitwise-equal
// outputs). The whole K reduction stays in registers, so there is no s32 staging
// buffer and the schedule's kc is ignored (clamped to k).
#ifndef NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_H_
#define NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_H_

#include <cstddef>
#include <cstdint>

#include "src/kernels/gemm_schedule.h"
#include "src/runtime/thread_engine.h"

namespace neocpu {

// Packed-operand sizes in bytes. Panels are zero-padded to full mr/nr and k to quads;
// pad bytes multiply pad bytes, so they contribute nothing to the s32 accumulators.
std::size_t PackedAU8Bytes(std::int64_t m, std::int64_t k, const GemmSchedule& s);
std::size_t PackedBS8Bytes(std::int64_t n, std::int64_t k, const GemmSchedule& s);

// Packs row-major u8 A[m][k] into quad panels [ceil(m/mr)][ceil(k/4)][mr][4].
void PackAU8(const std::uint8_t* a, std::int64_t m, std::int64_t k,
             const GemmSchedule& s, std::uint8_t* out, ThreadEngine* engine = nullptr);
// Packs the transposed s8 source W[n][k] (a dense layer's quantized {Out, In} weight)
// into quad panels [ceil(n/nr)][ceil(k/4)][nr][4].
void PackBS8FromTransposed(const std::int8_t* w, std::int64_t n, std::int64_t k,
                           const GemmSchedule& s, std::int8_t* out);

// Name of the ISA tier the tile drivers run at ("baseline", "avx2", "avx512",
// "avx512vnni"); pin it with SetIsaOverride (src/base/isa.h).
const char* GemmPackedS8IsaName();

// C[m][n] from u8 A[m][k] (raw rows, packed internally into `workspace`) and packed s8
// B. bias is the zero-point-folded s32 bias (null for none); mult the per-column
// multiplier (length n). requant=false stores f32; requant=true stores s8, or u8 with
// out_zero when out_u8 is set. `workspace` holds the packed A quads (PackedAU8Bytes);
// null allocates internally (bench/test convenience).
void GemmPackedU8S8(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::uint8_t* a, const std::int8_t* packed_b,
                    const std::int32_t* bias, const float* mult, bool relu,
                    bool requant, bool out_u8, std::int32_t out_zero, void* c,
                    const GemmSchedule& s, std::uint8_t* workspace = nullptr,
                    ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_H_
