#include "util/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "table/value.h"
#include "util/hash.h"

// Tier targets. Off x86-64 every wrapper compiles for the base target and
// Detect() never leaves the scalar tier.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VER_SIMD_X86 1
#define VER_TARGET_AVX2 __attribute__((target("avx2")))
#define VER_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))
#else
#define VER_SIMD_X86 0
#define VER_TARGET_AVX2
#define VER_TARGET_AVX512
#endif

namespace ver {
namespace simd {

namespace {

// -1 = no override; otherwise the forced Level. Relaxed atomics: overrides
// are a single-threaded test/bench affordance, not a synchronization point.
std::atomic<int> g_forced_level{-1};

Level Detect() {
#if VER_SIMD_X86
  // The 512-bit tier needs DQ on top of F for the native 64-bit multiply
  // (vpmullq) and the double -> int64 conversion (vcvttpd2qq), and VL so
  // the remainder past the last 8-lane group runs them on 4 lanes too.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))
    return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level EnvCap(Level detected) {
  // VER_SIMD caps the tier: it can hold a machine *below* its detected
  // level (for A/B runs and scalar soak tests) but never raises one above
  // it — requesting avx512 on an AVX2 box still runs AVX2.
  const char* env = std::getenv("VER_SIMD");
  if (env == nullptr) return detected;
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "avx2") == 0)
    return detected < Level::kAvx2 ? detected : Level::kAvx2;
  return detected;  // "avx512" and unknown values keep the detected tier
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level kDetected = Detect();
  return kDetected;
}

Level ActiveLevel() {
  int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level kCapped = EnvCap(DetectedLevel());
  return kCapped;
}

void ForceLevel(Level level) {
  if (level > DetectedLevel()) level = DetectedLevel();
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetForcedLevel() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

// -------------------------------- bodies ---------------------------------
//
// Each kernel is written once, as its scalar reference loop, and inlined
// into one copy per tier (Dispatch below); the compiler (this file builds
// at -O3) vectorizes each copy to its target's lane width. Write a body as
// a plain loop whose iterations are independent: no intrinsics, no
// branches that a select cannot express, no early exits. Pointer
// parameters are __restrict (a call's arrays never overlap), so no copy
// needs a runtime overlap check.

namespace {

__attribute__((always_inline)) inline void CombineHashesBody(
    uint64_t* __restrict acc, const uint64_t* __restrict hashes, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] = HashCombine(acc[i], hashes[i]);
}

__attribute__((always_inline)) inline void HashInt64CellsBody(
    const int64_t* __restrict v, size_t n, uint64_t* __restrict out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashIntValue(v[i]);
}

__attribute__((always_inline)) inline void HashDoubleCellsBody(
    const double* __restrict v, size_t n, uint64_t* __restrict out) {
  for (size_t i = 0; i < n; ++i) {
    // HashDoubleValue with its branch turned into a select of the Mix64
    // input. Only a twin reaches the int64 conversion (a non-twin converts
    // 0.0), so the conversion is always exact and defined.
    const double d = v[i];
    const bool twin = std::nearbyint(d) == d && std::abs(d) < 9.2e18;
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    const uint64_t as_int =
        static_cast<uint64_t>(static_cast<int64_t>(twin ? d : 0.0));
    out[i] = Mix64(twin ? as_int ^ 0x1234abcdULL : bits ^ 0x9876fedcULL);
  }
}

__attribute__((always_inline)) inline void MinHashUpdateBody(
    uint64_t* __restrict slots, const uint64_t* __restrict seeds,
    size_t num_perms, const uint64_t* elems, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = elems[i];
    for (size_t j = 0; j < num_perms; ++j) {
      const uint64_t h = Mix64(x ^ seeds[j]);
      slots[j] = h < slots[j] ? h : slots[j];
    }
  }
}

// ------------------------------- dispatch --------------------------------
//
// One copy of `Body` per tier, and a table of the copies indexed by Level.

template <auto Body, typename... Args>
void Scalar(Args... args) { Body(args...); }

template <auto Body, typename... Args>
VER_TARGET_AVX2 void Avx2(Args... args) { Body(args...); }

template <auto Body, typename... Args>
VER_TARGET_AVX512 void Avx512(Args... args) { Body(args...); }

template <auto Body, typename... Args>
void Dispatch(Args... args) {
  using Fn = void (*)(Args...);
  static constexpr Fn kTiers[] = {Scalar<Body>, Avx2<Body>, Avx512<Body>};
  kTiers[static_cast<int>(ActiveLevel())](args...);
}

}  // namespace

void CombineHashes(uint64_t* acc, const uint64_t* hashes, size_t n) {
  Dispatch<CombineHashesBody>(acc, hashes, n);
}

void HashInt64Cells(const int64_t* v, size_t n, uint64_t* out) {
  Dispatch<HashInt64CellsBody>(v, n, out);
}

void HashDoubleCells(const double* v, size_t n, uint64_t* out) {
  Dispatch<HashDoubleCellsBody>(v, n, out);
}

void MinHashUpdate(uint64_t* slots, const uint64_t* seeds, size_t num_perms,
                   const uint64_t* elems, size_t n) {
  Dispatch<MinHashUpdateBody>(slots, seeds, num_perms, elems, n);
}

}  // namespace simd
}  // namespace ver
