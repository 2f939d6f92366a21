// Implementation body of the packed fp32 GEMM macro-tile driver, compiled once per ISA
// tier: the including translation unit defines NEOCPU_ISA_NS (the tier namespace, see
// src/base/isa.h), then includes this header; it exports detail::<tier>::GemmF32Tile.
//
// IMPORTANT: everything in the variant body is raw-pointer arithmetic on the POD
// argument block — no shared inline library functions — so a TU compiled with wider
// vector flags can never leak wide code into vague-linkage symbols another TU also
// emits. Threading and operand packing stay in the baseline-compiled dispatcher
// (gemm_packed.cc), which calls the tile driver through a function pointer.
#ifndef NEOCPU_SRC_KERNELS_GEMM_PACKED_IMPL_COMMON_
#define NEOCPU_SRC_KERNELS_GEMM_PACKED_IMPL_COMMON_

#include <cstdint>

#include "src/kernels/gemm_schedule.h"

namespace neocpu {
namespace detail {

// Resolved GEMM dims, blocking and fused-epilogue description; plain data only.
// A is pre-packed into [ceil(m/mr)][k][mr] (rows zero-padded in the last panel),
// B into [ceil(n/nr)][k][nr] (columns zero-padded), so the micro-kernels always
// compute a full mr x nr tile and only the store is bounds-guarded.
struct GemmF32Args {
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t mc = 0, nc = 0, kc = 0, mr = 0, nr = 0;
  std::int64_t nb_count = 0;  // ceil(n/nc): macro-tile index = ib * nb_count + jb
  const float* ap = nullptr;  // packed A panels
  const float* bp = nullptr;  // packed B panels
  const float* bias = nullptr;  // per-column bias, length n; null when no bias epilogue
  bool relu = false;
  float* c = nullptr;  // row-major [m][n]
};

using GemmF32TileFn = void (*)(const GemmF32Args&, std::int64_t tile);

}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_GEMM_PACKED_IMPL_COMMON_

namespace neocpu {
namespace detail {
namespace NEOCPU_ISA_NS {
namespace gemm_f32 {

// Register micro-kernel: an mr x nr accumulator tile over a kcb-deep slice of one
// packed A row panel ([kcb][MR], broadcast operand) and one packed B column panel
// ([kcb][NR], vector operand). `accumulate` adds to C (non-first kc pass); `final_k`
// applies the fused bias/ReLU epilogue (last kc pass). Stores are guarded by the
// caller-computed valid rows/cols; the compute always runs the full padded tile.
template <int MR, int NR>
void MicroF32(const GemmF32Args& a, const float* __restrict ap,
              const float* __restrict bp, std::int64_t kcb, float* __restrict c,
              std::int64_t rows, std::int64_t cols, const float* __restrict bias,
              bool accumulate, bool final_k) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
#pragma omp simd
    for (int j = 0; j < NR; ++j) {
      acc[r][j] = 0.0f;
    }
  }
  for (std::int64_t p = 0; p < kcb; ++p) {
    const float* __restrict bv = bp + p * NR;
    const float* __restrict av = ap + p * MR;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const float ar = av[r];
#pragma omp simd
      for (int j = 0; j < NR; ++j) {
        acc[r][j] += ar * bv[j];
      }
    }
  }
  const std::int64_t ldc = a.n;
  if (rows == MR && cols == NR) {
    for (int r = 0; r < MR; ++r) {
      float* __restrict crow = c + r * ldc;
#pragma omp simd
      for (int j = 0; j < NR; ++j) {
        float v = acc[r][j];
        if (accumulate) {
          v += crow[j];
        }
        if (final_k) {
          if (bias != nullptr) {
            v += bias[j];
          }
          if (a.relu && v < 0.0f) {
            v = 0.0f;
          }
        }
        crow[j] = v;
      }
    }
    return;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t j = 0; j < cols; ++j) {
      float v = acc[r][j];
      if (accumulate) {
        v += crow[j];
      }
      if (final_k) {
        if (bias != nullptr) {
          v += bias[j];
        }
        if (a.relu && v < 0.0f) {
          v = 0.0f;
        }
      }
      crow[j] = v;
    }
  }
}

// Generic guarded micro-kernel: runtime mr/nr for blocking pairs outside the template
// instantiation grid. Same packed-panel contract, stack accumulators at the bounds.
inline void MicroEdgeF32(const GemmF32Args& a, const float* ap, const float* bp,
                         std::int64_t kcb, float* c, std::int64_t rows,
                         std::int64_t cols, const float* bias, bool accumulate,
                         bool final_k) {
  const std::int64_t mr = a.mr;
  const std::int64_t nr = a.nr;
  float acc[kMaxGemmMr * kMaxGemmNr];
  for (std::int64_t i = 0; i < mr * nr; ++i) {
    acc[i] = 0.0f;
  }
  for (std::int64_t p = 0; p < kcb; ++p) {
    const float* bv = bp + p * nr;
    const float* av = ap + p * mr;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float ar = av[r];
      for (std::int64_t j = 0; j < nr; ++j) {
        acc[r * nr + j] += ar * bv[j];
      }
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * a.n;
    for (std::int64_t j = 0; j < cols; ++j) {
      float v = acc[r * nr + j];
      if (accumulate) {
        v += crow[j];
      }
      if (final_k) {
        if (bias != nullptr) {
          v += bias[j];
        }
        if (a.relu && v < 0.0f) {
          v = 0.0f;
        }
      }
      crow[j] = v;
    }
  }
}

using MicroF32Fn = void (*)(const GemmF32Args&, const float* __restrict,
                            const float* __restrict, std::int64_t, float* __restrict,
                            std::int64_t, std::int64_t, const float* __restrict, bool,
                            bool);

template <int MR>
MicroF32Fn SelectByNr(std::int64_t nr) {
  switch (nr) {
    case 8:
      return &MicroF32<MR, 8>;
    case 16:
      return &MicroF32<MR, 16>;
    case 32:
      return &MicroF32<MR, 32>;
    case 64:
      return &MicroF32<MR, 64>;
    default:
      return nullptr;
  }
}

inline MicroF32Fn SelectMicro(std::int64_t mr, std::int64_t nr) {
  switch (mr) {
    case 1:
      return SelectByNr<1>(nr);
    case 2:
      return SelectByNr<2>(nr);
    case 4:
      return SelectByNr<4>(nr);
    case 6:
      return SelectByNr<6>(nr);
    case 8:
      return SelectByNr<8>(nr);
    default:
      return nullptr;  // uncommon pairs fall back to MicroEdgeF32
  }
}

}  // namespace gemm_f32

// Macro-tile driver: one (mc x nc) block of C — kc passes over the packed panels, B
// micro-panel held innermost-reused (L1), A row panels streamed — exported per ISA
// variant and invoked by the dispatcher's ParallelFor over the macro-tile grid.
void GemmF32Tile(const GemmF32Args& a, std::int64_t tile) {
  namespace v = gemm_f32;
  const std::int64_t jb = tile % a.nb_count;
  const std::int64_t ib = tile / a.nb_count;
  const std::int64_t i0 = ib * a.mc;
  const std::int64_t i1 = i0 + a.mc < a.m ? i0 + a.mc : a.m;
  const std::int64_t j0 = jb * a.nc;
  const std::int64_t j1 = j0 + a.nc < a.n ? j0 + a.nc : a.n;

  const v::MicroF32Fn fast = v::SelectMicro(a.mr, a.nr);
  const v::MicroF32Fn micro = fast != nullptr ? fast : &v::MicroEdgeF32;

  for (std::int64_t pc = 0; pc < a.k; pc += a.kc) {
    const std::int64_t kcb = a.kc < a.k - pc ? a.kc : a.k - pc;
    const bool accumulate = pc > 0;
    const bool final_k = pc + kcb >= a.k;
    for (std::int64_t j = j0; j < j1; j += a.nr) {
      const std::int64_t bpanel = j / a.nr;
      const float* bp = a.bp + bpanel * a.k * a.nr + pc * a.nr;
      const std::int64_t cols = a.nr < a.n - j ? a.nr : a.n - j;
      const float* bias_j = a.bias != nullptr ? a.bias + j : nullptr;
      for (std::int64_t i = i0; i < i1; i += a.mr) {
        const std::int64_t apanel = i / a.mr;
        const float* ap = a.ap + apanel * a.k * a.mr + pc * a.mr;
        const std::int64_t rows = a.mr < a.m - i ? a.mr : a.m - i;
        micro(a, ap, bp, kcb, a.c + i * a.n + j, rows, cols, bias_j, accumulate,
              final_k);
      }
    }
  }
}

}  // namespace NEOCPU_ISA_NS
}  // namespace detail
}  // namespace neocpu
