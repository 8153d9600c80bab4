// Runtime SIMD dispatch for the operator hot paths.
//
// The vectorized kernels (AVX2 batch hashing, fused probability
// accumulation) live next to their scalar reference implementations and
// are selected per call through UseAvx2(). Three independent gates
// compose:
//
//   - Compile time: the DISSODB_SIMD CMake option (default ON). When OFF,
//     DISSODB_SCALAR_BUILD is defined, no intrinsics are compiled, and
//     UseAvx2() is constant-false — the scalar-fallback CI job builds this
//     way (plus UBSan) so the reference path stays a complete build.
//   - Startup: the CPUID check keeps non-AVX2 machines on the scalar path.
//   - Test: SetSimdEnabledForTesting() flips dispatch mid-process so
//     differential tests can run both paths in one binary.
//
// Contract: hashing is bit-exact between paths (integer lanes); the fused
// probability accumulation is allowed a documented ULP tolerance (see
// ProjectIndependent) but is deterministic run-to-run — lane assignment
// and reduction order are fixed, never data- or thread-dependent.
#ifndef DISSODB_COMMON_SIMD_H_
#define DISSODB_COMMON_SIMD_H_

#if !defined(DISSODB_SCALAR_BUILD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DISSODB_SIMD_COMPILED 1
#else
#define DISSODB_SIMD_COMPILED 0
#endif

namespace dissodb {
namespace simd {

/// True iff the AVX2 kernels are compiled in, the CPU supports them, and
/// no test override forces scalar. A relaxed atomic load — cheap enough
/// to consult once per span/batch (never per element).
bool UseAvx2();

/// Forces dispatch for differential tests: `false` pins the scalar
/// reference path; `true` restores the startup decision (which may still
/// be scalar on non-AVX2 hardware).
void SetSimdEnabledForTesting(bool enabled);

}  // namespace simd
}  // namespace dissodb

#endif  // DISSODB_COMMON_SIMD_H_
