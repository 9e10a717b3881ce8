#include "common/simd_level.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace flood {
namespace simd {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = [] {
#if FLOOD_SIMD_X86
    // The 16-lane kernels shuffle bytes across a zmm register (vpshufb),
    // which is AVX-512BW, not F.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw")) {
      return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return level;
}

std::optional<SimdLevel> ParseSimdLevel(std::string_view name) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (name == SimdLevelName(level)) return level;
  }
  return std::nullopt;
}

namespace internal {

/// Benign race on first use: resolution is idempotent.
std::atomic<int> g_active_simd_level{-1};

SimdLevel ResolveActiveSimdLevel() {
  SimdLevel cap = SimdLevel::kAvx512;  // Unset: no cap.
  if (const char* env = std::getenv("FLOOD_SIMD_LEVEL")) {
    // A typo must not silently leave the vector kernel on (or off).
    const std::optional<SimdLevel> parsed = ParseSimdLevel(env);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "FLOOD_SIMD_LEVEL=%s: expected scalar|avx2|avx512\n", env);
      std::abort();
    }
    cap = *parsed;
  }
  SetSimdLevelForTest(cap);
  return static_cast<SimdLevel>(
      g_active_simd_level.load(std::memory_order_relaxed));
}

}  // namespace internal

void SetSimdLevelForTest(SimdLevel cap) {
  // The cap masks capabilities; it can never grant more than the hardware.
  internal::g_active_simd_level.store(
      static_cast<int>(std::min(DetectedSimdLevel(), cap)),
      std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace flood
