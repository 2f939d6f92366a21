// Unit tests for src/base: stats, rng, strings, cpu detection, env knobs.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/base/align.h"
#include "src/base/cpu_info.h"
#include "src/base/isa.h"
#include "src/base/rng.h"
#include "src/base/string_util.h"
#include "src/base/timer.h"

namespace neocpu {
namespace {

TEST(RunStats, EmptySamples) {
  RunStats s = RunStats::FromSamples({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(RunStats, SingleSample) {
  RunStats s = RunStats::FromSamples({4.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(RunStats, MeanAndStderr) {
  RunStats s = RunStats::FromSamples({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
  EXPECT_NEAR(s.stderr_, 1.2909944 / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(MeasureMillis, RunsRequestedCount) {
  int calls = 0;
  RunStats s = MeasureMillis([&] { ++calls; }, /*runs=*/3, /*warmup=*/2);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(s.count, 3u);
  EXPECT_GE(s.mean, 0.0);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;  // C++20 deprecates compound assignment to volatile
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds());  // ms value >= s value numerically
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, FloatRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.NextFloat(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, BoundedRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(StrFormat, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.1f", 3, "x", 2.5), "3-x-2.5");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(CpuInfo, DetectsSomethingSane) {
  const CpuInfo& info = HostCpuInfo();
  EXPECT_GE(info.physical_cores, 1);
  EXPECT_GE(info.vector_bits, 128);
  EXPECT_EQ(info.vector_bits % 32, 0);
  EXPECT_GT(info.l1d_bytes, 0u);
  EXPECT_STRNE(SimdIsaName(info.isa), "unknown");
#if defined(__x86_64__)
  // The reported ISA is the widest tier the runtime probe found, not the build flags.
  switch (HostIsaTier()) {
    case IsaTier::kBaseline:
      EXPECT_EQ(info.isa, SimdIsa::kScalar);
      EXPECT_FALSE(info.has_fma);
      break;
    case IsaTier::kAvx2:
      EXPECT_EQ(info.isa, SimdIsa::kAvx2);
      EXPECT_EQ(info.vector_bits, 256);
      EXPECT_TRUE(info.has_fma);
      break;
    case IsaTier::kAvx512:
    case IsaTier::kAvx512Vnni:
      EXPECT_EQ(info.isa, SimdIsa::kAvx512);
      EXPECT_EQ(info.vector_bits, 512);
      EXPECT_EQ(info.num_vector_registers, 32);
      EXPECT_TRUE(info.has_fma);
      break;
  }
  EXPECT_EQ(info.has_vnni, HostIsaTier() == IsaTier::kAvx512Vnni);
#endif
}

TEST(EnvSizeT, ParsesAndFallsBack) {
  ::setenv("NEOCPU_TEST_ENV_KNOB", "42", 1);
  EXPECT_EQ(EnvSizeT("NEOCPU_TEST_ENV_KNOB", 7), 42u);
  ::setenv("NEOCPU_TEST_ENV_KNOB", "junk", 1);
  EXPECT_EQ(EnvSizeT("NEOCPU_TEST_ENV_KNOB", 7), 7u);
  ::unsetenv("NEOCPU_TEST_ENV_KNOB");
  EXPECT_EQ(EnvSizeT("NEOCPU_TEST_ENV_KNOB", 9), 9u);
}

TEST(AlignedAlloc, ReturnsAlignedPointers) {
  for (std::size_t bytes : {1u, 63u, 64u, 100u, 4096u}) {
    void* p = AlignedAlloc(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kSimdAlignBytes, 0u);
    AlignedFree(p);
  }
  EXPECT_EQ(AlignedAlloc(0), nullptr);
}

}  // namespace
}  // namespace neocpu
