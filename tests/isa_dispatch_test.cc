// Runtime ISA dispatch (src/base/isa.h): the one override hook pins every kernel family,
// and every tier the host can run computes the fp32 convolutions correctly — the
// NCHWc template across its whole schedule space and epilogues, and Winograd — with
// output bitwise independent of the thread count within a tier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/isa.h"
#include "src/base/rng.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/conv_ref.h"
#include "src/kernels/conv_winograd.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

// Same fp32 summation-order tolerance as conv_test.
constexpr double kRtol = 1e-3;
constexpr double kAtol = 2e-3;

// Every tier the host can execute, narrowest first.
std::vector<std::string> RunnableTiers() {
  std::vector<std::string> tiers;
  for (int t = 0; t <= static_cast<int>(HostIsaTier()); ++t) {
    tiers.push_back(IsaTierName(static_cast<IsaTier>(t)));
  }
  return tiers;
}

// Pins the override for one scope and restores auto dispatch after.
class PinTier {
 public:
  explicit PinTier(const std::string& tier) { ok_ = SetIsaOverride(tier.c_str()); }
  ~PinTier() { SetIsaOverride(nullptr); }
  PinTier(const PinTier&) = delete;
  PinTier& operator=(const PinTier&) = delete;
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

// One hook pins every family: the s8 families have a variant at every tier, the fp32
// ones stop at avx512 and run it under an avx512vnni pin.
TEST(IsaOverride, OneHookPinsEveryFamily) {
  EXPECT_FALSE(SetIsaOverride("not-an-isa"));
  if (HostIsaTier() != IsaTier::kAvx512Vnni) {
    EXPECT_FALSE(SetIsaOverride("avx512vnni")) << "a tier the CPU lacks must be refused";
  }
  EXPECT_EQ(ActiveIsaTier(), HostIsaTier());  // a refused name leaves dispatch alone
  for (const std::string& tier : RunnableTiers()) {
    PinTier pin(tier);
    ASSERT_TRUE(pin.ok()) << tier;
    EXPECT_STREQ(IsaTierName(ActiveIsaTier()), tier.c_str());
    EXPECT_EQ(ConvNCHWcS8IsaName(), tier);
    EXPECT_EQ(GemmPackedS8IsaName(), tier);
    const std::string f32 = tier == "avx512vnni" ? "avx512" : tier;
    EXPECT_EQ(ConvNCHWcIsaName(), f32);
    EXPECT_EQ(ConvWinogradIsaName(), f32);
    EXPECT_EQ(GemmPackedIsaName(), f32);
  }
  EXPECT_EQ(ActiveIsaTier(), HostIsaTier());  // nullptr restored auto dispatch
  EXPECT_TRUE(SetIsaOverride(""));
}

struct BlockedConv {
  Tensor in, w, bias, res;  // blocked operands
  Tensor expected;          // reference output, blocked to oc_bn
};

BlockedConv MakeBlockedConv(const Conv2dParams& p, const ConvSchedule& s,
                            const ConvEpilogue& e) {
  Rng rng(17);
  Tensor in = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({p.out_c, p.in_c, p.kernel_h, p.kernel_w}, rng, -0.5f, 0.5f,
                            Layout::OIHW());
  Tensor bias = Tensor::Random({p.out_c}, rng, -0.2f, 0.2f);
  Tensor res = Tensor::Random({p.batch, p.out_c, p.OutH(), p.OutW()}, rng, -1, 1,
                              Layout::NCHW());
  Tensor expected = ConvRefNCHW(p, in, w, e.bias ? &bias : nullptr,
                                e.residual_add ? &res : nullptr, e);
  return {NCHWToNCHWc(in, s.ic_bn), OIHWToOIHWio(w, s.ic_bn, s.oc_bn), bias,
          NCHWToNCHWc(res, s.oc_bn), NCHWToNCHWc(expected, s.oc_bn)};
}

Tensor RunNCHWc(const Conv2dParams& p, const ConvSchedule& s, const ConvEpilogue& e,
                const BlockedConv& c, ThreadEngine* engine) {
  Tensor out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                             Layout::NCHWc(s.oc_bn));
  ConvNCHWc(p, s, c.in, c.w, &c.bias, &c.res, e, &out, engine);
  return out;
}

// The NCHWc template at every tier: each oc_bn instantiation (4/8/16/32), every reg_n
// (2-32) with and without kernel unrolling, on a padded layer whose rows have left
// edges, interior blocks and tails; plus stride 2 and the full bias+residual+ReLU
// epilogue. One and four threads must agree bitwise within a tier.
TEST(IsaTiers, ConvNCHWcMatchesReferenceAtEveryTier) {
  struct Case {
    Conv2dParams p;
    ConvEpilogue e;
    const char* label;
  };
  const Case cases[] = {
      {{1, 16, 13, 19, 32, 3, 3, 1, 1, 1, 1}, {}, "3x3_pad"},
      {{1, 16, 13, 19, 32, 3, 3, 2, 2, 1, 1}, {}, "3x3_stride2"},
      {{2, 16, 9, 21, 32, 3, 3, 1, 1, 1, 1}, {true, true, true}, "bias_residual_relu"},
  };
  NeoThreadPool pool(4, /*bind_threads=*/false);
  for (const std::string& tier : RunnableTiers()) {
    PinTier pin(tier);
    ASSERT_TRUE(pin.ok()) << tier;
    for (const Case& c : cases) {
      for (std::int64_t oc_bn : {4, 8, 16, 32}) {
        for (std::int64_t reg_n : {2, 4, 8, 16, 32}) {
          for (bool unroll : {true, false}) {
            const ConvSchedule s{16, oc_bn, reg_n, unroll};
            const BlockedConv conv = MakeBlockedConv(c.p, s, c.e);
            const Tensor serial = RunNCHWc(c.p, s, c.e, conv, nullptr);
            EXPECT_LE(Tensor::AllCloseViolation(serial, conv.expected, kRtol, kAtol), 0.0)
                << tier << " " << c.label << " " << s.ToString();
            const Tensor threaded = RunNCHWc(c.p, s, c.e, conv, &pool);
            EXPECT_EQ(Tensor::MaxAbsDiff(serial, threaded), 0.0)
                << tier << " " << c.label << " " << s.ToString();
          }
        }
      }
    }
  }
}

TEST(IsaTiers, WinogradMatchesReferenceAtEveryTier) {
  const Conv2dParams shapes[] = {
      {1, 16, 14, 14, 32, 3, 3, 1, 1, 1, 1},  // even output
      {2, 13, 9, 11, 21, 3, 3, 1, 1, 1, 1},   // odd edges, ic not a multiple of 8
      {1, 24, 10, 10, 8, 3, 3, 1, 1, 0, 0},   // no padding
  };
  ConvEpilogue epi;
  epi.bias = true;
  epi.relu = true;
  NeoThreadPool pool(4, /*bind_threads=*/false);
  for (const std::string& tier : RunnableTiers()) {
    PinTier pin(tier);
    ASSERT_TRUE(pin.ok()) << tier;
    for (const Conv2dParams& p : shapes) {
      Rng rng(23);
      Tensor in = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1, 1,
                                 Layout::NCHW());
      Tensor w = Tensor::Random({p.out_c, p.in_c, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
      Tensor bias = Tensor::Random({p.out_c}, rng, -0.2f, 0.2f);
      const Tensor expected = ConvRefNCHW(p, in, w, &bias, nullptr, epi);
      const Tensor u = WinogradTransformWeights(w);
      const Tensor serial = ConvWinograd(p, in, u, &bias, epi);
      EXPECT_LE(Tensor::AllCloseViolation(serial, expected, kRtol, kAtol), 0.0)
          << tier << " " << p.ToString();
      const Tensor threaded = ConvWinograd(p, in, u, &bias, epi, &pool);
      EXPECT_EQ(Tensor::MaxAbsDiff(serial, threaded), 0.0) << tier << " " << p.ToString();
    }
  }
}

}  // namespace
}  // namespace neocpu
