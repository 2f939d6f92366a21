#include "src/base/isa.h"

#include <atomic>
#include <string_view>

namespace neocpu {
namespace {

IsaTier Probe() {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return IsaTier::kBaseline;
  }
  if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512vl") || !__builtin_cpu_supports("avx512dq")) {
    return IsaTier::kAvx2;
  }
  return __builtin_cpu_supports("avx512vnni") ? IsaTier::kAvx512Vnni : IsaTier::kAvx512;
#else
  return IsaTier::kBaseline;
#endif
}

// -1: auto (the host tier). Otherwise the pinned IsaTier.
std::atomic<int> g_override{-1};

}  // namespace

const char* IsaTierName(IsaTier tier) {
  static constexpr const char* kNames[kNumIsaTiers] = {"baseline", "avx2", "avx512",
                                                       "avx512vnni"};
  return kNames[static_cast<int>(tier)];
}

IsaTier HostIsaTier() {
  static const IsaTier tier = Probe();
  return tier;
}

IsaTier ActiveIsaTier() {
  const int pinned = g_override.load();
  return pinned >= 0 ? static_cast<IsaTier>(pinned) : HostIsaTier();
}

bool SetIsaOverride(const char* name) {
  if (name == nullptr || name[0] == '\0') {
    g_override.store(-1);
    return true;
  }
  for (int t = 0; t <= static_cast<int>(HostIsaTier()); ++t) {
    if (std::string_view(IsaTierName(static_cast<IsaTier>(t))) == name) {
      g_override.store(t);
      return true;
    }
  }
  return false;
}

}  // namespace neocpu
