#include "src/common/simd.h"

#include <atomic>

namespace dissodb {
namespace simd {

namespace {

/// Startup decision, computed once; the test override only narrows it.
bool StartupAvx2() {
#if DISSODB_SIMD_COMPILED
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

std::atomic<bool>& TestOverrideOff() {
  static std::atomic<bool> off{false};
  return off;
}

}  // namespace

bool UseAvx2() {
  return StartupAvx2() && !TestOverrideOff().load(std::memory_order_relaxed);
}

void SetSimdEnabledForTesting(bool enabled) {
  TestOverrideOff().store(!enabled, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace dissodb
