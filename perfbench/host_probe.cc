#include "perfbench/host_probe.h"

#include <sys/resource.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/cpu_info.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_X86 1
#endif

namespace perfbench {
namespace {

#ifdef PERFBENCH_X86

// Twelve independent accumulator chains hide the FMA latency on every x86 core
// generation since Haswell; the multiplier and addend stay in registers. Explicit
// intrinsics, because ISO C++ mode compiles `a * b + c` without contraction.
constexpr int kChains = 12;

__attribute__((target("avx512f"))) std::uint64_t FmaAvx512(std::uint64_t iters,
                                                          float* sink) {
  __m512 acc[kChains];
  const __m512 mul = _mm512_set1_ps(0.999999f);
  const __m512 add = _mm512_set1_ps(1e-7f);
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm512_set1_ps(static_cast<float>(c));
  }
  for (std::uint64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm512_fmadd_ps(acc[c], mul, add);
    }
  }
  for (int c = 1; c < kChains; ++c) {
    acc[0] = _mm512_add_ps(acc[0], acc[c]);
  }
  float lanes[16];
  _mm512_storeu_ps(lanes, acc[0]);
  *sink = lanes[0] + lanes[15];
  return iters * kChains * 16 * 2;
}

__attribute__((target("avx2,fma"))) std::uint64_t FmaAvx2(std::uint64_t iters, float* sink) {
  __m256 acc[kChains];
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm256_set1_ps(static_cast<float>(c));
  }
  for (std::uint64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm256_fmadd_ps(acc[c], mul, add);
    }
  }
  for (int c = 1; c < kChains; ++c) {
    acc[0] = _mm256_add_ps(acc[0], acc[c]);
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc[0]);
  *sink = lanes[0] + lanes[7];
  return iters * kChains * 8 * 2;
}

// Without FMA: one multiply and one add per lane per step, SSE width.
std::uint64_t FmaBaseline(std::uint64_t iters, float* sink) {
  __m128 acc[kChains];
  const __m128 mul = _mm_set1_ps(0.999999f);
  const __m128 add = _mm_set1_ps(1e-7f);
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm_set1_ps(static_cast<float>(c));
  }
  for (std::uint64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm_add_ps(_mm_mul_ps(acc[c], mul), add);
    }
  }
  for (int c = 1; c < kChains; ++c) {
    acc[0] = _mm_add_ps(acc[0], acc[c]);
  }
  *sink = _mm_cvtss_f32(acc[0]);
  return iters * kChains * 4 * 2;
}

std::uint64_t FmaBurst(std::uint64_t iters, float* sink) {
  if (__builtin_cpu_supports("avx512f")) {
    return FmaAvx512(iters, sink);
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return FmaAvx2(iters, sink);
  }
  return FmaBaseline(iters, sink);
}

#else

// Portable fallback: scalar fused multiply-adds over independent chains.
std::uint64_t FmaBurst(std::uint64_t iters, float* sink) {
  constexpr int kChains = 12;
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) {
    acc[c] = static_cast<float>(c);
  }
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) {
      acc[c] = __builtin_fmaf(acc[c], 0.999999f, 1e-7f);
    }
  }
  *sink = acc[0] + acc[kChains - 1];
  return iters * kChains * 2;
}

#endif  // PERFBENCH_X86

// Thread pools pin their creating thread, and new threads inherit its affinity, so
// every probe thread first widens its mask back to every CPU the kernel allows.
void UnpinThisThread() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    CPU_SET(c, &all);
  }
  sched_setaffinity(0, sizeof(all), &all);
}

}  // namespace

double ProbeFmaGflops(int threads, double seconds) {
  std::vector<double> gflops(static_cast<std::size_t>(threads), 0.0);
  std::vector<float> sinks(static_cast<std::size_t>(threads), 0.0f);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      UnpinThisThread();
      float* sink = &sinks[static_cast<std::size_t>(t)];
      FmaBurst(1 << 16, sink);  // warm the vector unit to its steady clock
      const Clock::time_point start = Clock::now();
      std::uint64_t flops = 0;
      while (SecondsSince(start) < seconds) {
        flops += FmaBurst(1 << 18, sink);
      }
      gflops[static_cast<std::size_t>(t)] = static_cast<double>(flops) / SecondsSince(start) / 1e9;
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  double total = 0.0;
  for (double g : gflops) {
    total += g;
  }
  return total;
}

double ProbeStreamGbps(int threads, int reps) {
  constexpr std::size_t kElems = (64u << 20) / sizeof(float);
  std::unique_ptr<float[]> a(new float[kElems]), b(new float[kElems]), c(new float[kElems]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        UnpinThisThread();
        const std::size_t begin = kElems * static_cast<std::size_t>(t) / threads;
        const std::size_t end = kElems * static_cast<std::size_t>(t + 1) / threads;
        body(begin, end);
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
  };
  // First touch from the worker that will stream the range.
  parallel([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      a[i] = 0.0f;
      b[i] = 1.0f;
      c[i] = 2.0f;
    }
  });
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    parallel([&](std::size_t begin, std::size_t end) {
      float* __restrict pa = a.get();
      const float* __restrict pb = b.get();
      const float* __restrict pc = c.get();
      for (std::size_t i = begin; i < end; ++i) {
        pa[i] = pb[i] + 3.0f * pc[i];
      }
    });
    const double s = SecondsSince(start);
    best = std::max(best, 3.0 * kElems * sizeof(float) / s / 1e9);
  }
  if (a[kElems / 2] != 7.0f) {
    std::fprintf(stderr, "stream probe: unexpected triad result\n");
  }
  return best;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return ticks;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      ticks.total += x;
    }
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void RecordFingerprint(Record* record, const CpuTicks& before) {
  const CpuTicks after = ReadCpuTicks();
  record->InfoNum("host.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  record->Info("host.cpu", neocpu::HostCpuInfo().brand);
  record->Info("host.tier.gemm_f32", neocpu::GemmPackedIsaName());
  record->Info("host.tier.gemm_u8s8", neocpu::GemmPackedS8IsaName());
  record->Info("host.tier.conv_s8", neocpu::ConvNCHWcS8IsaName());
  const std::uint64_t total = after.total - before.total;
  record->InfoNum("host.steal_frac",
                  total > 0 ? static_cast<double>(after.steal - before.steal) / total : 0.0);
}

}  // namespace perfbench
