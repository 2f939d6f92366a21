// Runtime ISA dispatch: one tier ladder, one cached cpuid probe, one override hook.
//
// The library builds for baseline x86-64. Each kernel family that gains from wider
// vectors (fp32 NCHWc conv, Winograd, s8/u8 conv, fp32 and u8·s8 packed GEMM) also
// compiles its kernel body once per tier: the body lives in `<family>_impl.h`, and
// CMake's neocpu_isa_variants() generates one variant TU per tier that instantiates it
// inside `namespace detail::<tier>` under explicit flags, and defines NEOCPU_HAVE_<TIER>
// on the family's portable TU. The portable TU instantiates `detail::baseline`, keeps
// validation and the ParallelFor fan-out, and calls the widest compiled variant at or
// below ActiveIsaTier() through an IsaVariants table.
#ifndef NEOCPU_SRC_BASE_ISA_H_
#define NEOCPU_SRC_BASE_ISA_H_

namespace neocpu {

enum class IsaTier { kBaseline, kAvx2, kAvx512, kAvx512Vnni };
inline constexpr int kNumIsaTiers = 4;

// "baseline", "avx2", "avx512", "avx512vnni".
const char* IsaTierName(IsaTier tier);

// Widest tier the running CPU and OS can execute, probed once: avx2 needs AVX2+FMA,
// avx512 needs AVX-512 F/BW/VL/DQ, avx512vnni adds VNNI. kBaseline off x86-64.
IsaTier HostIsaTier();

// The tier every family dispatches at: HostIsaTier() unless pinned by SetIsaOverride.
IsaTier ActiveIsaTier();

// Pins every kernel family to the named tier (parity tests, bench ablations); a family
// with no variant at that tier runs its widest narrower one. Returns false, leaving the
// dispatch untouched, for an unknown name or a tier the CPU lacks. nullptr or ""
// restores auto dispatch. Kernels already running keep the variant they started with.
bool SetIsaOverride(const char* name);

// One family's entry points indexed by IsaTier; null where the tier was not compiled.
// The baseline entry is always present.
template <typename Fn>
struct IsaVariants {
  Fn fn[kNumIsaTiers];

  // Widest compiled tier at or below the active one.
  IsaTier Tier() const {
    int t = static_cast<int>(ActiveIsaTier());
    while (fn[t] == nullptr) {
      --t;
    }
    return static_cast<IsaTier>(t);
  }
  Fn Get() const { return fn[static_cast<int>(Tier())]; }
};

}  // namespace neocpu

// For a family's portable TU: declares `decl` in every tier namespace, and builds the
// IsaVariants initializer from the tiers CMake compiled (NEOCPU_HAVE_<TIER>).
#define NEOCPU_DECLARE_ISA_VARIANTS(decl)                 \
  namespace baseline { decl; } namespace avx2 { decl; } \
  namespace avx512 { decl; } namespace avx512vnni { decl; }

#ifdef NEOCPU_HAVE_AVX2
#define NEOCPU_AVX2_VARIANT(fn) &avx2::fn
#else
#define NEOCPU_AVX2_VARIANT(fn) nullptr
#endif
#ifdef NEOCPU_HAVE_AVX512
#define NEOCPU_AVX512_VARIANT(fn) &avx512::fn
#else
#define NEOCPU_AVX512_VARIANT(fn) nullptr
#endif
#ifdef NEOCPU_HAVE_AVX512VNNI
#define NEOCPU_AVX512VNNI_VARIANT(fn) &avx512vnni::fn
#else
#define NEOCPU_AVX512VNNI_VARIANT(fn) nullptr
#endif
#define NEOCPU_ISA_VARIANTS(fn)                                        \
  {{&baseline::fn, NEOCPU_AVX2_VARIANT(fn), NEOCPU_AVX512_VARIANT(fn), \
    NEOCPU_AVX512VNNI_VARIANT(fn)}}

#endif  // NEOCPU_SRC_BASE_ISA_H_
