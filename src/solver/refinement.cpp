#include "solver/refinement.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace neuro::solver {

namespace {

/// r = b − A x in full double precision (collective via A.apply's halo).
void true_residual(const LinearOperator& A, const DistVector& b,
                   const DistVector& x, DistVector& r, par::Communicator& comm) {
  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
}

}  // namespace

SolveStats iterative_refinement(const LinearOperator& A, const DistVector& b,
                                DistVector& x, const Preconditioner& M,
                                KrylovKind kind, const SolverConfig& config,
                                const RefinementConfig& refinement,
                                par::Communicator& comm) {
  NEURO_REQUIRE(refinement.max_outer >= 1,
                "iterative_refinement: max_outer must be >= 1");
  NEURO_REQUIRE(refinement.inner_rtol_factor > 0.0 &&
                    refinement.inner_rtol_factor <= 1.0,
                "iterative_refinement: inner_rtol_factor must lie in (0, 1]");

  SolveStats stats;
  DistVector r(b.global_size(), b.range());
  true_residual(A, b, x, r, comm);
  double rnorm = r.norm2(comm);
  stats.initial_residual = rnorm;
  const double target = std::max(config.rtol * rnorm, config.atol);

  if (rnorm <= target) {
    stats.converged = true;
    stats.stop_reason = StopReason::kConverged;
    stats.final_residual = rnorm;
    return stats;
  }

  // Inner solves run against their own starting residual, slightly looser
  // than the outer goal; the outer double-precision test is authoritative.
  SolverConfig inner_config = config;
  inner_config.rtol = refinement.inner_rtol_factor * config.rtol;

  SolveStats last_inner;
  for (int outer = 0; outer < refinement.max_outer; ++outer) {
    DistVector d(b.global_size(), b.range());
    last_inner = solve(kind, A, r, d, M, inner_config, comm);
    stats.iterations += last_inner.iterations;
    if (config.record_history) {
      stats.history.insert(stats.history.end(), last_inner.history.begin(),
                           last_inner.history.end());
    }

    x.axpy(1.0, d, comm);
    true_residual(A, b, x, r, comm);
    rnorm = r.norm2(comm);

    if (!std::isfinite(rnorm)) {
      stats.stop_reason = StopReason::kNumericalInvalid;
      stats.stop_message = "iterative refinement: non-finite outer residual";
      stats.final_residual = rnorm;
      return stats;
    }
    if (rnorm <= target) {
      stats.converged = true;
      stats.stop_reason = StopReason::kConverged;
      stats.final_residual = rnorm;
      return stats;
    }
    // An inner breakdown/stall that left the outer residual short of target
    // will not fix itself by repeating: surface the inner reason.
    if (!last_inner.converged) break;
  }

  stats.stop_reason = last_inner.converged ? StopReason::kMaxIterations
                                           : last_inner.stop_reason;
  stats.stop_message = last_inner.converged
                           ? "iterative refinement: outer passes exhausted"
                           : last_inner.stop_message;
  stats.final_residual = rnorm;
  return stats;
}

}  // namespace neuro::solver
