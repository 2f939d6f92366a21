// Baseline instantiation + weight transform + validation + runtime ISA dispatch of the
// Winograd convolution. The tile kernels are conv_winograd_impl.h, compiled once per
// tier (neocpu_isa_variants in CMakeLists.txt).
#define NEOCPU_ISA_NS baseline
#include "src/kernels/conv_winograd_impl.h"

#include <algorithm>
#include <vector>

#include "src/base/isa.h"
#include "src/base/logging.h"
#include "src/kernels/conv_winograd.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace detail {

NEOCPU_DECLARE_ISA_VARIANTS(void WinogradRow(const WinogradArgs&, std::int64_t, float*))
constexpr IsaVariants<WinogradRowFn> kWinogradRows = NEOCPU_ISA_VARIANTS(WinogradRow);

}  // namespace detail

namespace {

// G (4x3): weight transform matrix of F(2x2, 3x3).
constexpr float kG[4][3] = {
    {1.0f, 0.0f, 0.0f}, {0.5f, 0.5f, 0.5f}, {0.5f, -0.5f, 0.5f}, {0.0f, 0.0f, 1.0f}};

}  // namespace

const char* ConvWinogradIsaName() { return IsaTierName(detail::kWinogradRows.Tier()); }

bool WinogradApplicable(const Conv2dParams& p) {
  return p.kernel_h == 3 && p.kernel_w == 3 && p.stride_h == 1 && p.stride_w == 1;
}

bool WinogradLegal(const Conv2dParams& p, const ConvEpilogue& epilogue) {
  return WinogradApplicable(p) && !epilogue.residual_add;
}

Tensor WinogradTransformWeights(const Tensor& w) {
  NEOCPU_CHECK_EQ(w.ndim(), 4);
  const std::int64_t oc = w.dim(0), ic = w.dim(1);
  NEOCPU_CHECK_EQ(w.dim(2), 3);
  NEOCPU_CHECK_EQ(w.dim(3), 3);
  Tensor u = Tensor::Empty({4, 4, oc, ic}, Layout::Flat());
  const float* src = w.data();
  float* dst = u.data();
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t i = 0; i < ic; ++i) {
      const float* g = src + (o * ic + i) * 9;
      // tmp = G g (4x3)
      float tmp[4][3];
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 3; ++c) {
          tmp[r][c] = kG[r][0] * g[0 * 3 + c] + kG[r][1] * g[1 * 3 + c] +
                      kG[r][2] * g[2 * 3 + c];
        }
      }
      // U = tmp G^T (4x4)
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          const float v =
              tmp[r][0] * kG[c][0] + tmp[r][1] * kG[c][1] + tmp[r][2] * kG[c][2];
          dst[((r * 4 + c) * oc + o) * ic + i] = v;
        }
      }
    }
  }
  return u;
}

std::size_t WinogradWorkspaceBytes(const Conv2dParams& p, int num_workers) {
  const std::size_t per_worker = 16 * static_cast<std::size_t>(p.in_c + p.out_c);
  return per_worker * static_cast<std::size_t>(num_workers < 1 ? 1 : num_workers) *
         sizeof(float);
}

void ConvWinograd(const Conv2dParams& p, const Tensor& input, const Tensor& u,
                  const Tensor* bias, const ConvEpilogue& epilogue, Tensor* output,
                  ThreadEngine* engine, float* workspace, std::size_t workspace_floats) {
  NEOCPU_CHECK(WinogradApplicable(p)) << p.ToString();
  NEOCPU_CHECK(!epilogue.residual_add) << "winograd path does not fuse residuals";
  NEOCPU_CHECK_EQ(u.ndim(), 4);
  NEOCPU_CHECK_EQ(u.dim(2), p.out_c);
  NEOCPU_CHECK_EQ(u.dim(3), p.in_c);
  const std::int64_t oh = p.OutH(), ow = p.OutW();
  CheckKernelOutput(output, {p.batch, p.out_c, oh, ow}, Layout::NCHW(), "winograd");

  detail::WinogradArgs a;
  a.in_c = p.in_c;
  a.in_h = p.in_h;
  a.in_w = p.in_w;
  a.out_c = p.out_c;
  a.oh = oh;
  a.ow = ow;
  a.pad_h = p.pad_h;
  a.pad_w = p.pad_w;
  a.tiles_h = (oh + 1) / 2;
  a.tiles_w = (ow + 1) / 2;
  a.in = input.data();
  a.u = u.data();
  a.bias = epilogue.bias && bias != nullptr ? bias->data() : nullptr;
  a.relu = epilogue.relu;
  a.out = output->data();

  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);

  // Parallelize over (batch, tile row) as one fork-join region with an explicit task
  // index, so each worker's V[16][IC] / M[16][OC] scratch (transform-major to match U's
  // plane layout) can be a disjoint slice of the planner-provided workspace.
  const std::int64_t total_rows = p.batch * a.tiles_h;
  const int workers = eng.NumWorkers() < 1 ? 1 : eng.NumWorkers();
  std::int64_t chunks = std::min<std::int64_t>(workers, total_rows < 1 ? 1 : total_rows);
  const std::size_t vm_count = 16 * static_cast<std::size_t>(p.in_c + p.out_c);
  if (workspace != nullptr && workspace_floats > 0) {
    // A planner-provided workspace bounds how many disjoint per-worker slices exist;
    // never fan out wider than the slices it can back.
    const std::int64_t backed = static_cast<std::int64_t>(workspace_floats / vm_count);
    NEOCPU_CHECK_GE(backed, 1) << "winograd workspace smaller than one worker slice";
    chunks = std::min(chunks, backed);
  }
  const detail::WinogradRowFn row_fn = detail::kWinogradRows.Get();
  eng.ParallelRun(static_cast<int>(chunks), [&](int task, int num_tasks) {
    const std::int64_t begin = total_rows * task / num_tasks;
    const std::int64_t end = total_rows * (task + 1) / num_tasks;
    if (begin >= end) {
      return;
    }
    std::vector<float> scratch;
    float* vm;
    if (workspace != nullptr) {
      vm = workspace + static_cast<std::size_t>(task) * vm_count;
    } else {
      scratch.resize(vm_count);
      vm = scratch.data();
    }
    for (std::int64_t row = begin; row < end; ++row) {
      row_fn(a, row, vm);
    }
  });
}

Tensor ConvWinograd(const Conv2dParams& p, const Tensor& input, const Tensor& u,
                    const Tensor* bias, const ConvEpilogue& epilogue, ThreadEngine* engine) {
  Tensor out = Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
  ConvWinograd(p, input, u, bias, epilogue, &out, engine, nullptr, 0);
  return out;
}

}  // namespace neocpu
