// Host instruction-set probe. No kernel in the tree dispatches on it; the
// benchmarks record it as provenance, so a number measured on one vector ISA
// is never silently compared with one from another.
#pragma once

#include <cstdint>
#include <string_view>

namespace neuro::solver::simd {

/// Vector instruction set of the running CPU.
enum class DispatchTarget : std::uint8_t {
  kScalar,
  kSse2,
  kAvx2,
  kNeon,
};

/// Stable lowercase name ("scalar", "sse2", "avx2", "neon") — used in bench
/// context and CI job logs.
[[nodiscard]] std::string_view dispatch_target_name(DispatchTarget target);

/// Best target the running CPU supports (kScalar when no vector ISA is
/// available). A pure function of the CPU.
[[nodiscard]] DispatchTarget detect_dispatch_target();

}  // namespace neuro::solver::simd
