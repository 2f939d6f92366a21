#include "src/base/cpu_info.h"

#include <fstream>
#include <thread>

#ifdef __linux__
#include <unistd.h>
#endif

#include "src/base/isa.h"

namespace neocpu {
namespace {

CpuInfo Detect() {
  CpuInfo info;
#if defined(__ARM_NEON)
  info.isa = SimdIsa::kNeon;
  info.vector_bits = 128;
  info.num_vector_registers = 32;
#if defined(__ARM_FEATURE_FMA)
  info.has_fma = true;
#endif
#else
  // The x86 build is portable; the ISA is what the kernels dispatch to on this machine.
  const IsaTier tier = HostIsaTier();
  if (tier >= IsaTier::kAvx512) {
    info.isa = SimdIsa::kAvx512;
    info.vector_bits = 512;
    info.num_vector_registers = 32;
  } else if (tier == IsaTier::kAvx2) {
    info.isa = SimdIsa::kAvx2;
    info.vector_bits = 256;
  }
  info.has_fma = tier >= IsaTier::kAvx2;
  info.has_vnni = tier == IsaTier::kAvx512Vnni;
#endif

  unsigned hw = std::thread::hardware_concurrency();
  info.physical_cores = hw == 0 ? 1 : static_cast<int>(hw);

#ifdef __linux__
  long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l1 > 0) {
    info.l1d_bytes = static_cast<std::size_t>(l1);
  }
  if (l2 > 0) {
    info.l2_bytes = static_cast<std::size_t>(l2);
  }
  if (l3 > 0) {
    info.l3_bytes = static_cast<std::size_t>(l3);
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  bool constant_tsc = false, nonstop_tsc = false;
  while (std::getline(cpuinfo, line)) {
    if (info.brand.empty() && line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        info.brand = line.substr(colon + 2);
      }
    } else if (line.rfind("flags", 0) == 0) {
      constant_tsc = line.find(" constant_tsc") != std::string::npos;
      nonstop_tsc = line.find(" nonstop_tsc") != std::string::npos;
      break;  // flags follow the model name; one logical CPU is representative
    }
  }
  info.has_invariant_tsc = constant_tsc && nonstop_tsc;
#endif
  return info;
}

}  // namespace

const CpuInfo& HostCpuInfo() {
  static const CpuInfo info = Detect();
  return info;
}

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace neocpu
