// Host CPU introspection: SIMD capability, physical core count, cache sizes.
// These feed the default Target profile (src/core/target.h) and the analytic cost model.
// On x86 the SIMD fields come from the runtime ISA probe (src/base/isa.h), so they
// describe the kernels that actually run, not the flags the library was built with.
#ifndef NEOCPU_SRC_BASE_CPU_INFO_H_
#define NEOCPU_SRC_BASE_CPU_INFO_H_

#include <cstddef>
#include <string>

namespace neocpu {

enum class SimdIsa {
  kScalar,   // no vector extension beyond the baseline (SSE2 on x86-64)
  kNeon,     // 128-bit (4 fp32 lanes)
  kAvx2,     // 256-bit (8 fp32 lanes)
  kAvx512,   // 512-bit (16 fp32 lanes)
};

struct CpuInfo {
  SimdIsa isa = SimdIsa::kScalar;
  int vector_bits = 128;          // widest usable fp32 vector
  int num_vector_registers = 16;  // architectural SIMD register count
  int physical_cores = 1;
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  std::size_t l3_bytes = 8 * 1024 * 1024;
  bool has_fma = false;
  bool has_vnni = false;          // AVX-512 VNNI (vpdpbusd)
  // Invariant TSC: rdtsc ticks at a constant rate across frequency scaling and sleep
  // states, so it can back cycle-accurate node timing (constant_tsc + nonstop_tsc).
  bool has_invariant_tsc = false;
  std::string brand;

  int VectorLanesF32() const { return vector_bits / 32; }
};

// Detects the host once; subsequent calls return the cached result.
const CpuInfo& HostCpuInfo();

const char* SimdIsaName(SimdIsa isa);

}  // namespace neocpu

#endif  // NEOCPU_SRC_BASE_CPU_INFO_H_
