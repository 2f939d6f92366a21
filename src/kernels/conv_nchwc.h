// Direct convolution in the blocked NCHW[x]c layout — the paper's Algorithm 1.
//
// The computation is organized exactly as published: the output is partitioned into
// disjoint chunks processed in parallel; within a chunk, out_width is split by reg_n and
// a register block of reg_n × oc_bn accumulators is kept live across the whole reduction
// (in_channel × kernel_h × kernel_w); one vector of oc_bn kernel values is loaded per
// reduction step and FMA-ed against reg_n broadcast input values (Figure 1).
//
// The template is "high level": schedules select among C++ template instantiations whose
// inner loops GCC auto-vectorizes into broadcast-FMA sequences (§3.1.1). The same source
// (conv_nchwc_impl.h) is compiled once per ISA tier — baseline, AVX2+FMA, AVX-512 — and
// the call runs the widest tier the CPU supports (src/base/isa.h), so an oc_bn = 16
// block is one zmm FMA per step on AVX-512 hosts and four SSE multiply-adds on baseline.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_H_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_H_

#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// input:    NCHW[ic_bn]c, dims {N, IC/ic_bn, IH, IW, ic_bn}
// weight:   OIHW[ic_bn]i[oc_bn]o, dims {OC/oc_bn, IC/ic_bn, KH, KW, ic_bn, oc_bn}
// bias:     flat {OC} (required iff epilogue.bias)
// residual: same layout/dims as output (required iff epilogue.residual_add)
// output:   preallocated NCHW[oc_bn]c, dims {N, OC/oc_bn, OH, OW, oc_bn}
void ConvNCHWc(const Conv2dParams& params, const ConvSchedule& schedule, const Tensor& input,
               const Tensor& weight, const Tensor* bias, const Tensor* residual,
               const ConvEpilogue& epilogue, Tensor* output, ThreadEngine* engine = nullptr);

// Name of the ISA tier ConvNCHWc runs at ("baseline", "avx2", "avx512").
const char* ConvNCHWcIsaName();

// Convenience wrapper used by tests/benches: takes NCHW input and OIHW weight, performs
// the layout transforms internally, and returns an NCHW output (i.e. what a framework
// that wraps a library kernel per-op has to do — also the per-op cost model of the
// "layout opt. without transform elimination" ablation row).
Tensor ConvNCHWcWithTransforms(const Conv2dParams& params, const ConvSchedule& schedule,
                               const Tensor& input_nchw, const Tensor& weight_oihw,
                               const Tensor* bias, const Tensor* residual_nchw,
                               const ConvEpilogue& epilogue, ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_H_
