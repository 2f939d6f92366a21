// Direct s8xs8 -> s32 convolution in the blocked NCHW[x]c layout.
//
// The int8 sibling of conv_nchwc.cc (Algorithm 1): the same disjoint-output-chunk
// parallelization and reg_n x oc_bn register blocking, with s32 accumulators and the
// quantization epilogue fused in — per-output-channel multiplier (in_scale * w_scale[oc]
// [/ out_scale]), s32 bias, ReLU in the integer domain, and either a requantize store to
// s8 or a dequantize store to f32.
//
// Portability: the kernel source is plain loops + `omp simd` (no intrinsics, no VNNI
// requirement), compiled once per ISA tier and dispatched to the widest tier the
// *running* CPU exposes (src/base/isa.h) — the oneDNN/IntelCaffe structure of
// ISA-dispatched int8 kernels, with identical integer results from every tier.
// Schedule-space admission is gated by Target::int8_dot.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_H_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_H_

#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// input:      s8 or u8 NCHW[ic_bn]c, dims {N, IC/ic_bn, IH, IW, ic_bn}
// weight:     s8 OIHW[ic_bn]i[oc_bn]o, dims {OC/oc_bn, IC/ic_bn, KH, KW, ic_bn, oc_bn}.
//             For u8 input the inner [ic_bn][oc_bn] tile must be VNNI-packed to
//             [ic_bn/4][oc_bn][4] (PackWeightsVnni) and ic_bn % 4 == 0.
// bias:       s32 flat {OC} (required iff epilogue.bias), pre-folded to the accumulation
//             domain (QuantizeBiasS32); for u8 input the zero-point correction
//             -in_zero * sum(w[oc,...]) must already be folded in.
// multiplier: f32 flat {OC}: in_scale * w_scale[oc] / out_scale when requantizing,
//             in_scale * w_scale[oc] when dequantizing to f32
// output:     preallocated NCHW[oc_bn]c: s8 or u8 when `requant` (u8 stores add
//             `out_zero` before the 0..255 clamp), f32 otherwise
// Residual epilogues are not supported in int8 (quantization legality excludes them,
// like Winograd); epilogue.relu applies in the integer domain before the store.
// `in_zero` is the u8 input's zero point: the kernel reads a virtual `in_zero` byte at
// padded positions (f32 zero == the zero point) so the whole-tap bias fold stays exact
// on borders. Ignored for s8 input.
void ConvNCHWcS8(const Conv2dParams& params, const ConvSchedule& schedule,
                 const Tensor& input, const Tensor& weight, const Tensor* bias,
                 const Tensor& multiplier, const ConvEpilogue& epilogue, bool requant,
                 Tensor* output, ThreadEngine* engine = nullptr,
                 std::int32_t out_zero = 0, std::int32_t in_zero = 0);

// Name of the ISA tier the row drivers run at ("baseline", "avx2", "avx512",
// "avx512vnni"); pin it with SetIsaOverride (src/base/isa.h).
const char* ConvNCHWcS8IsaName();

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_H_
