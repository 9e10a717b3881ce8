#ifndef FLOOD_COMMON_SIMD_LEVEL_H_
#define FLOOD_COMMON_SIMD_LEVEL_H_

#include <atomic>
#include <optional>
#include <string_view>

// The vector paths are x86-only and use per-function target attributes, so
// the library builds (and runtime-dispatches to scalar) on any compiler or
// architecture without -mavx2 in the global flags.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLOOD_SIMD_X86 1
#else
#define FLOOD_SIMD_X86 0
#endif

namespace flood {
namespace simd {

/// Vector ISA tiers the storage decoder and the scan kernels dispatch over.
/// Levels are ordered: every tier implies the ones below it, so "at least
/// kAvx2" is a simple comparison. kAvx512 means AVX-512F and AVX-512BW.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* SimdLevelName(SimdLevel level);

/// The tier a FLOOD_SIMD_LEVEL value names ("scalar", "avx2" or "avx512");
/// nullopt for anything else. ActiveSimdLevel() aborts on such a value.
std::optional<SimdLevel> ParseSimdLevel(std::string_view name);

/// What the hardware supports (cpuid, probed once per process): kAvx512
/// only with both avx512f and avx512bw. kScalar on non-x86 builds.
SimdLevel DetectedSimdLevel();

namespace internal {
/// ActiveSimdLevel()'s value once resolved; -1 before the first call.
extern std::atomic<int> g_active_simd_level;
/// Resolves and caches the level from the hardware and FLOOD_SIMD_LEVEL.
SimdLevel ResolveActiveSimdLevel();
}  // namespace internal

/// The level kernels may actually use: DetectedSimdLevel() capped by
/// FLOOD_SIMD_LEVEL=scalar|avx2|avx512 (read once) and by
/// SetSimdLevelForTest. The cap can only mask capabilities, never invent
/// them — forcing "avx512" on an AVX2-only host still yields kAvx2. After
/// the first call this is one relaxed load: the block decoder asks per
/// block.
inline SimdLevel ActiveSimdLevel() {
  const int level =
      internal::g_active_simd_level.load(std::memory_order_relaxed);
  return level >= 0 ? static_cast<SimdLevel>(level)
                    : internal::ResolveActiveSimdLevel();
}

/// Caps ActiveSimdLevel() below the detected tier (dispatch-fallback tests,
/// A/B benchmarks). Pass DetectedSimdLevel() to undo.
void SetSimdLevelForTest(SimdLevel cap);

}  // namespace simd
}  // namespace flood

#endif  // FLOOD_COMMON_SIMD_LEVEL_H_
