// Iterative refinement around a mixed-precision-preconditioned Krylov solve.
//
// The outer loop is the classical Wilkinson scheme applied to a Krylov inner
// solver: compute the true residual r = b − A x in full double precision,
// solve the correction system A d = r with the (possibly mixed-precision
// preconditioned) inner Krylov method to a looser tolerance, apply x += d,
// and repeat until the *true* double-precision residual meets the caller's
// tolerance. Because convergence is always judged on the double residual, the
// composite solve reaches exactly the same tolerance as an all-double solve —
// the float factors only steer the correction, they never touch the
// convergence test (docs/perf.md, "Mixed-precision accuracy contract").
#pragma once

#include "par/communicator.h"
#include "solver/dist_vector.h"
#include "solver/krylov.h"
#include "solver/operator.h"
#include "solver/preconditioner.h"

namespace neuro::solver {

struct RefinementConfig {
  /// Outer correction passes before giving up. Each pass multiplies the
  /// residual by roughly the inner tolerance, so a handful suffices.
  int max_outer = 4;
  /// Inner solves target inner_rtol_factor × config.rtol relative to their
  /// own starting residual — slightly looser than the outer goal, so the
  /// final outer pass lands under it after the double-precision correction.
  double inner_rtol_factor = 0.5;
};

/// Solves A x = b by iterative refinement: inner `kind` solves
/// preconditioned by `M` (any precision), outer residual and correction in
/// double. Collective on `comm`; every decision derives from collective norms
/// so control flow is rank-consistent. The returned stats aggregate inner
/// iterations and report the true double-precision residual; `converged` is
/// judged against max(config.rtol × ‖b − A x₀‖₂, config.atol).
SolveStats iterative_refinement(const LinearOperator& A, const DistVector& b,
                                DistVector& x, const Preconditioner& M,
                                KrylovKind kind, const SolverConfig& config,
                                const RefinementConfig& refinement,
                                par::Communicator& comm);

}  // namespace neuro::solver
