// Kernel body of the Winograd F(2x2, 3x3) convolution (input tile transform, the 16
// transform-domain GEMVs, output transform), compiled once per ISA tier exactly like
// conv_nchwc_impl.h: the including TU defines NEOCPU_ISA_NS, conv_winograd.cc keeps the
// baseline tier, weight transform, validation and the fork-join with its scratch.
#ifndef NEOCPU_SRC_KERNELS_CONV_WINOGRAD_IMPL_COMMON_
#define NEOCPU_SRC_KERNELS_CONV_WINOGRAD_IMPL_COMMON_

#include <cstdint>

namespace neocpu {
namespace detail {

// Problem dims and operand pointers; plain data only.
struct WinogradArgs {
  std::int64_t in_c, in_h, in_w, out_c, oh, ow, pad_h, pad_w;
  std::int64_t tiles_h, tiles_w;
  const float* in = nullptr;    // NCHW
  const float* u = nullptr;     // transformed weights {4, 4, OC, IC}
  const float* bias = nullptr;  // flat {OC}; null when no bias epilogue
  bool relu = false;
  float* out = nullptr;  // NCHW
};

// One (batch, tile row) of output. `vm` is the caller's V[16][IC] + M[16][OC] scratch.
using WinogradRowFn = void (*)(const WinogradArgs&, std::int64_t row, float* vm);

}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_WINOGRAD_IMPL_COMMON_

namespace neocpu {
namespace detail {
namespace NEOCPU_ISA_NS {
namespace winograd {

// B^T (4x4): input tile transform.
constexpr float kBt[4][4] = {{1.0f, 0.0f, -1.0f, 0.0f},
                             {0.0f, 1.0f, 1.0f, 0.0f},
                             {0.0f, -1.0f, 1.0f, 0.0f},
                             {0.0f, 1.0f, 0.0f, -1.0f}};

// A^T (2x4): output tile transform.
constexpr float kAt[2][4] = {{1.0f, 1.0f, 1.0f, 0.0f}, {0.0f, 1.0f, -1.0f, -1.0f}};

}  // namespace winograd

void WinogradRow(const WinogradArgs& p, std::int64_t row, float* vm) {
  using winograd::kAt;
  using winograd::kBt;
  float* v = vm;
  float* m = vm + 16 * p.in_c;
  const std::int64_t n = row / p.tiles_h;
  const std::int64_t th = row % p.tiles_h;
  const std::int64_t in_plane = p.in_h * p.in_w;
  const std::int64_t out_plane = p.oh * p.ow;
  for (std::int64_t tw = 0; tw < p.tiles_w; ++tw) {
    // Input tile origin in image coordinates (top-left of the 4x4 gather).
    const std::int64_t ih0 = th * 2 - p.pad_h;
    const std::int64_t iw0 = tw * 2 - p.pad_w;
    // V[xi][ic] for all input channels.
    for (std::int64_t ic = 0; ic < p.in_c; ++ic) {
      const float* in_ch = p.in + (n * p.in_c + ic) * in_plane;
      float d[4][4];
      for (int r = 0; r < 4; ++r) {
        const std::int64_t ih = ih0 + r;
        for (int c = 0; c < 4; ++c) {
          const std::int64_t iw = iw0 + c;
          d[r][c] = (ih >= 0 && ih < p.in_h && iw >= 0 && iw < p.in_w)
                        ? in_ch[ih * p.in_w + iw]
                        : 0.0f;
        }
      }
      float tmp[4][4];
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          tmp[r][c] = kBt[r][0] * d[0][c] + kBt[r][1] * d[1][c] + kBt[r][2] * d[2][c] +
                      kBt[r][3] * d[3][c];
        }
      }
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          // V = B^T d B; right-multiplying by B = dotting rows of tmp with rows of Bt.
          v[(r * 4 + c) * p.in_c + ic] = tmp[r][0] * kBt[c][0] + tmp[r][1] * kBt[c][1] +
                                         tmp[r][2] * kBt[c][2] + tmp[r][3] * kBt[c][3];
        }
      }
    }
    // M[xi][oc] = sum_ic U[xi][oc][ic] * V[xi][ic]: 16 independent (OC x IC) GEMVs.
    for (int xi = 0; xi < 16; ++xi) {
      const float* u_plane = p.u + static_cast<std::int64_t>(xi) * p.out_c * p.in_c;
      const float* v_vec = v + static_cast<std::int64_t>(xi) * p.in_c;
      float* m_vec = m + static_cast<std::int64_t>(xi) * p.out_c;
      for (std::int64_t o = 0; o < p.out_c; ++o) {
        const float* __restrict u_row = u_plane + o * p.in_c;
        float partial[8] = {};
        std::int64_t i = 0;
        for (; i + 8 <= p.in_c; i += 8) {
#pragma omp simd
          for (int j = 0; j < 8; ++j) {  // SIMD dimension
            partial[j] += u_row[i + j] * v_vec[i + j];
          }
        }
        float sum = 0.0f;
        for (; i < p.in_c; ++i) {
          sum += u_row[i] * v_vec[i];
        }
        for (int j = 0; j < 8; ++j) {
          sum += partial[j];
        }
        m_vec[o] = sum;
      }
    }
    // Y = A^T M A per output channel, guarded stores at the odd edges.
    const std::int64_t oh0 = th * 2;
    const std::int64_t ow0 = tw * 2;
    for (std::int64_t o = 0; o < p.out_c; ++o) {
      float mm[4][4];
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          mm[r][c] = m[(r * 4 + c) * p.out_c + o];
        }
      }
      float tmp[2][4];
      for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 4; ++c) {
          tmp[r][c] = kAt[r][0] * mm[0][c] + kAt[r][1] * mm[1][c] + kAt[r][2] * mm[2][c] +
                      kAt[r][3] * mm[3][c];
        }
      }
      const float b = p.bias != nullptr ? p.bias[o] : 0.0f;
      float* out_ch = p.out + (n * p.out_c + o) * out_plane;
      for (int r = 0; r < 2; ++r) {
        const std::int64_t y = oh0 + r;
        if (y >= p.oh) {
          continue;
        }
        for (int c = 0; c < 2; ++c) {
          const std::int64_t x = ow0 + c;
          if (x >= p.ow) {
            continue;
          }
          float val = tmp[r][0] * kAt[c][0] + tmp[r][1] * kAt[c][1] +
                      tmp[r][2] * kAt[c][2] + tmp[r][3] * kAt[c][3] + b;
          if (p.relu) {
            val = val > 0.0f ? val : 0.0f;
          }
          out_ch[y * p.ow + x] = val;
        }
      }
    }
  }
}

}  // namespace NEOCPU_ISA_NS
}  // namespace detail
}  // namespace neocpu
