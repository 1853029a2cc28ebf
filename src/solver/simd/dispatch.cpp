#include "solver/simd/dispatch.h"

namespace neuro::solver::simd {

namespace {

bool target_supported(DispatchTarget target) {
  switch (target) {
    case DispatchTarget::kScalar:
      return true;
    case DispatchTarget::kSse2:
#if defined(__x86_64__) || defined(_M_X64)
      return true;  // SSE2 is the x86-64 baseline; no runtime probe needed.
#else
      return false;
#endif
    case DispatchTarget::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case DispatchTarget::kNeon:
#if defined(__aarch64__)
      return true;  // AdvSIMD is mandatory on AArch64.
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

std::string_view dispatch_target_name(DispatchTarget target) {
  switch (target) {
    case DispatchTarget::kScalar:
      return "scalar";
    case DispatchTarget::kSse2:
      return "sse2";
    case DispatchTarget::kAvx2:
      return "avx2";
    case DispatchTarget::kNeon:
      return "neon";
  }
  return "unknown";
}

DispatchTarget detect_dispatch_target() {
  if (target_supported(DispatchTarget::kAvx2)) return DispatchTarget::kAvx2;
  if (target_supported(DispatchTarget::kNeon)) return DispatchTarget::kNeon;
  if (target_supported(DispatchTarget::kSse2)) return DispatchTarget::kSse2;
  return DispatchTarget::kScalar;
}

}  // namespace neuro::solver::simd
