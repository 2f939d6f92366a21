// Tuned GEMM micro-benchmark: the blocked, packed kernel family on transformer-shaped
// workloads, ablated three ways —
//   * tuned f32 vs the fixed-blocking legacy Gemm() (the vendor-library stand-in);
//   * ISA tier (baseline / avx2 / avx512 [/ avx512vnni for int8]) via the dispatch
//     override hooks, so the register-blocking win and the ISA win separate;
//   * dtype: tuned f32 vs the u8·s8→s32 integer pipeline with its fused epilogue.
//
//   ./bench_gemm_micro
//
// Shapes are the transformer-encoder zoo model's GEMMs at serving batch 8 (M = B*S)
// plus BERT-base-sized projections/FFNs. Schedules come from the same analytic local
// search the compiler runs, so the bench measures what a compiled model would execute.
// Knobs:
//   NEOCPU_BENCH_RUNS    timed repetitions per cell   (default 2; min is reported)
//   NEOCPU_BENCH_WARMUP  warm-up repetitions          (default 1)
//   NEOCPU_BENCH_JSON    output path                  (default BENCH_gemm.json)
//
// Every run writes the sweep as JSON (one record per shape x kernel x isa) so CI can
// track the perf trajectory across PRs (tools/check_bench_trend.py, gemm leg).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/isa.h"
#include "src/kernels/gemm.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/tuning/local_search.h"

namespace neocpu {
namespace {

struct Shape {
  const char* name;
  std::int64_t m, n, k;
};

// Batch-8 transformer-encoder GEMMs (M = 8 * S = 64) and BERT-base at seq 128.
const Shape kShapes[] = {
    {"enc.qkv", 64, 64, 64},        {"enc.ffn1", 64, 256, 64},
    {"enc.ffn2", 64, 64, 256},      {"bert.proj", 128, 768, 768},
    {"bert.ffn1", 128, 3072, 768},  {"bert.ffn2", 128, 768, 3072},
};

struct Cell {
  const char* shape;
  std::int64_t m, n, k;
  std::string kernel;  // "legacy" | "tuned_f32" | "tuned_u8"
  std::string isa;     // "fixed" for legacy, else the dispatch tier
  double ms = 0.0;
  double gflops = 0.0;
};

double BestMs(const std::vector<double>& samples) {
  double best = samples.front();
  for (double s : samples) {
    best = best < s ? best : s;
  }
  return best;
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  for (std::size_t i = 0; i < bench::Warmup(); ++i) {
    fn();
  }
  std::vector<double> samples;
  for (std::size_t i = 0; i < bench::Runs(); ++i) {
    Timer t;
    fn();
    samples.push_back(t.Millis());
  }
  return BestMs(samples);
}

GemmSchedule TunedSchedule(const Shape& shape, DType dtype) {
  const DenseParams params{shape.m, shape.n, shape.k};
  auto result = LocalSearchDenseShared(params, Target::SkylakeAvx512(),
                                       CostMode::kAnalytic, /*quick_space=*/true,
                                       nullptr, nullptr, nullptr, dtype);
  const DenseScheduleCost* best = result->BestDense(dtype);
  NEOCPU_CHECK(best != nullptr);
  return best->schedule;
}

}  // namespace
}  // namespace neocpu

int main() {
  using namespace neocpu;
  NeoThreadPool pool(HostCpuInfo().physical_cores, false);
  Rng rng(7);
  std::vector<Cell> cells;

  const char* f32_tiers[] = {"baseline", "avx2", "avx512"};
  const char* s8_tiers[] = {"baseline", "avx2", "avx512", "avx512vnni"};

  std::printf("%-10s %-10s %-11s %10s %10s\n", "shape", "kernel", "isa", "ms",
              "GFLOP/s");
  for (const Shape& shape : kShapes) {
    const double flops = 2.0 * static_cast<double>(shape.m) *
                         static_cast<double>(shape.n) * static_cast<double>(shape.k);
    auto record = [&](const char* kernel, const char* isa, double ms) {
      cells.push_back({shape.name, shape.m, shape.n, shape.k, kernel, isa, ms,
                       flops / (ms * 1e6)});
      std::printf("%-10s %-10s %-11s %10.4f %10.1f\n", shape.name, kernel, isa, ms,
                  flops / (ms * 1e6));
    };

    // Legacy fixed-blocking Gemm (row-major B, no packing).
    {
      Tensor a = Tensor::Random({shape.m, shape.k}, rng, -1.0f, 1.0f);
      Tensor b = Tensor::Random({shape.k, shape.n}, rng, -0.5f, 0.5f);
      Tensor c = Tensor::Empty({shape.m, shape.n});
      record("legacy", "fixed", TimeMs([&] {
               Gemm(shape.m, shape.n, shape.k, a.data(), b.data(), c.data(), false,
                    &pool);
             }));
    }

    // Tuned f32, per ISA tier.
    {
      const GemmSchedule s = TunedSchedule(shape, DType::kF32);
      Tensor a = Tensor::Random({shape.m, shape.k}, rng, -1.0f, 1.0f);
      Tensor w = Tensor::Random({shape.n, shape.k}, rng, -0.5f, 0.5f);
      Tensor packed_b = Tensor::Empty(
          {static_cast<std::int64_t>(PackedBF32Elems(shape.n, shape.k, s))});
      PackBF32FromTransposed(w.data(), shape.n, shape.k, s, packed_b.data());
      Tensor workspace = Tensor::Empty(
          {static_cast<std::int64_t>(PackedAF32Elems(shape.m, shape.k, s))});
      Tensor c = Tensor::Empty({shape.m, shape.n});
      for (const char* tier : f32_tiers) {
        if (!SetIsaOverride(tier)) {
          continue;  // host cannot execute this tier
        }
        record("tuned_f32", tier, TimeMs([&] {
                 GemmPackedF32(shape.m, shape.n, shape.k, a.data(), packed_b.data(),
                               nullptr, false, c.data(), s, workspace.data(), &pool);
               }));
      }
      SetIsaOverride(nullptr);
    }

    // Tuned u8·s8, per ISA tier (f32 output epilogue, mult = 1).
    {
      const GemmSchedule s = TunedSchedule(shape, DType::kU8);
      Tensor a = Tensor::Empty({shape.m, shape.k}, Layout::Flat(), DType::kU8);
      Tensor w = Tensor::Empty({shape.n, shape.k}, Layout::Flat(), DType::kS8);
      for (std::int64_t i = 0; i < a.NumElements(); ++i) {
        a.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(rng.NextU64() % 255);
      }
      for (std::int64_t i = 0; i < w.NumElements(); ++i) {
        w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(rng.NextU64() % 255) - 127;
      }
      std::vector<float> mult(static_cast<std::size_t>(shape.n), 1.0f);
      Tensor packed_b = Tensor::Empty(
          {static_cast<std::int64_t>(PackedBS8Bytes(shape.n, shape.k, s))},
          Layout::Flat(), DType::kS8);
      PackBS8FromTransposed(w.data_as<std::int8_t>(), shape.n, shape.k, s,
                            packed_b.data_as<std::int8_t>());
      Tensor workspace = Tensor::Empty(
          {static_cast<std::int64_t>(PackedAU8Bytes(shape.m, shape.k, s))},
          Layout::Flat(), DType::kU8);
      Tensor c = Tensor::Empty({shape.m, shape.n});
      for (const char* tier : s8_tiers) {
        if (!SetIsaOverride(tier)) {
          continue;
        }
        record("tuned_u8", tier, TimeMs([&] {
                 GemmPackedU8S8(shape.m, shape.n, shape.k, a.data_as<std::uint8_t>(),
                                packed_b.data_as<std::int8_t>(), nullptr, mult.data(),
                                false, false, false, 0, c.data(), s,
                                workspace.data_as<std::uint8_t>(), &pool);
               }));
      }
      SetIsaOverride(nullptr);
    }
  }

  const char* json_env = std::getenv("NEOCPU_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_gemm.json";
  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "failed to open %s for writing\n", json_path.c_str());
    return 1;
  }
  json << "{\n";
  json << "  \"bench\": \"gemm_micro\",\n";
  json << "  \"physical_cores\": " << HostCpuInfo().physical_cores << ",\n";
  json << "  \"f32_isa\": \"" << GemmPackedIsaName() << "\",\n";
  json << "  \"int8_isa\": \"" << GemmPackedS8IsaName() << "\",\n";
  json << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"shape\": \"" << c.shape << "\", \"m\": " << c.m
         << ", \"n\": " << c.n << ", \"k\": " << c.k << ", \"kernel\": \"" << c.kernel
         << "\", \"isa\": \"" << c.isa << "\", \"ms\": " << c.ms
         << ", \"gflops\": " << c.gflops << "}" << (i + 1 < cells.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n";
  json << "}\n";
  std::printf("wrote %s (%zu cells)\n", json_path.c_str(), cells.size());
  return 0;
}
