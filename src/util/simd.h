// Vectorized kernel layer: the hash loops behind row hashing (the
// MATERIALIZER's tuple dedup, VIEW-DISTILLATION's row hashes) and MinHash
// sketching, plus the staging block size and prefetch hint the storage
// engine's blocked scans share.
//
// One body per kernel. Each kernel is written once, as its scalar
// reference loop (simd.cc), and compiled once per tier by target-attribute
// wrappers; the compiler vectorizes each copy to its target's lane width.
// There are no intrinsics, so a tier cannot drift from the reference: it
// is the reference, compiled for wider registers.
//
// Contract — bit identity. Every tier computes exactly the function its
// scalar reference computes. The storage-equivalence and query-fingerprint
// suites, plus tests/simd_kernels_test.cc, hold this line; a kernel that is
// fast but off by one bit is a bug.
//
// Dispatch. ActiveLevel() is detected once per process (AVX-512F+DQ+VL,
// then AVX2, via CPUID on x86-64; scalar elsewhere) and every kernel call
// picks its tier's copy from a table indexed by Level, once per call, not
// per element. VER_SIMD=scalar|avx2|avx512 (env) *caps* the tier at that
// level (never raises it above detection), and ScopedSimdLevel
// (tests/benches) forces one, so every supported tier stays exercised.
//
// Why not hardware CRC32/CLMUL: the bit-identity contract pins the hash
// family to the splitmix64-based mixers of util/hash.h — CRC32-based cell
// hashes would change every persisted profile, snapshot fingerprint and
// equivalence baseline.

#ifndef VER_UTIL_SIMD_H_
#define VER_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ver {
namespace simd {

/// Dispatch tier: the target each kernel's body is compiled for.
enum class Level : int {
  kScalar = 0,  // the base target (every platform)
  kAvx2 = 1,    // 4x64-bit lanes (x86-64 with AVX2)
  kAvx512 = 2,  // 8x64-bit lanes (x86-64 with AVX-512F+DQ+VL: native
                // 64-bit multiply and double -> int64 conversion)
};

const char* LevelName(Level level);

/// The tier kernels currently run at: the detected tier, unless overridden
/// by the VER_SIMD environment variable or a ScopedSimdLevel.
Level ActiveLevel();

/// Highest tier this CPU supports (ignores overrides).
Level DetectedLevel();

/// Test/bench hook: force a tier (clamped to DetectedLevel()) or reset to
/// detection. Not thread-safe against concurrent kernel calls; call it
/// from single-threaded test setup only.
void ForceLevel(Level level);
void ResetForcedLevel();

/// RAII override for tests: forces `level` for the scope's lifetime.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(Level level) { ForceLevel(level); }
  ~ScopedSimdLevel() { ResetForcedLevel(); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
};

/// Cells per kernel block: callers stage per-cell hashes through a stack
/// buffer of this many words, so blocked call sites never heap-allocate.
inline constexpr size_t kBlockCells = 256;

/// Prefetch a cache line for read. No-op where unsupported.
inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/1);
#else
  (void)addr;
#endif
}

// ---------------------------------------------------------------------------
// Kernels. Each documents its scalar reference; every tier is bit-identical
// to it. The arrays passed to one call must not overlap.
// ---------------------------------------------------------------------------

/// Row-hash combine: acc[i] = HashCombine(acc[i], hashes[i]) for i < n
/// (util/hash.h HashCombine — the Algorithm 3 row-hash accumulator).
void CombineHashes(uint64_t* acc, const uint64_t* hashes, size_t n);

/// Int-cell hashing: out[i] = HashIntValue(v[i]) for i < n
/// (table/value.h HashIntValue — Mix64 over the xored payload).
void HashInt64Cells(const int64_t* v, size_t n, uint64_t* out);

/// Double-cell hashing: out[i] = HashDoubleValue(v[i]) for i < n
/// (table/value.h), integral-twin rule included: the body selects the
/// Mix64 input (the twin's integer or the bit pattern) and then mixes once,
/// so the twin test is a lane mask rather than a branch.
void HashDoubleCells(const double* v, size_t n, uint64_t* out);

/// MinHash update: slots[j] = min(slots[j], Mix64(elems[i] ^ seeds[j]))
/// for every i < n and j < num_perms, elements outer, permutations inner
/// (the inner loop vectorizes across permutations).
void MinHashUpdate(uint64_t* slots, const uint64_t* seeds, size_t num_perms,
                   const uint64_t* elems, size_t n);

}  // namespace simd
}  // namespace ver

#endif  // VER_UTIL_SIMD_H_
