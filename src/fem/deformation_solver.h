// High-level driver: the paper's "biomechanical simulation of volumetric
// brain deformation" step. Given the tetrahedral mesh, a material map and
// prescribed surface displacements, it partitions the mesh, runs the SPMD
// assemble → boundary-condition → Krylov-solve sequence on the requested
// number of ranks, and returns the volumetric displacement field together
// with per-phase, per-rank work records (the input to the scaling model) and
// measured wall-clock per phase.
#pragma once

#include <utility>
#include <vector>

#include "base/vec3.h"
#include "fem/boundary.h"
#include "fem/material.h"
#include "mesh/partition.h"
#include "mesh/tet_mesh.h"
#include "par/work_counter.h"
#include "solver/krylov.h"
#include "solver/refinement.h"

namespace neuro::fem {

/// The solver's Krylov method enum, under the name FEM callers use.
using KrylovKind = solver::KrylovKind;
/// Which assembled matrix carries the system through the solve. Both give
/// bit-identical fields.
enum class MatrixBackend {
  kCsrReference,  ///< scalar CSR, the reference path
  kBsr,           ///< 3x3 block CSR with overlapped halo exchange
};
enum class PartitionKind {
  kNodeBalanced,          ///< the paper's: equal node counts
  kConnectivityBalanced,  ///< future-work: balance assembly work
  kFreeNodeBalanced,      ///< future-work: balance post-BC solve work
};

struct DeformationSolveOptions {
  int nranks = 1;
  PartitionKind partition = PartitionKind::kNodeBalanced;
  solver::PreconditionerKind preconditioner =
      solver::PreconditionerKind::kBlockJacobiIlu0;
  int schwarz_overlap = 1;  ///< used by kAdditiveSchwarzIlu0 only
  KrylovKind krylov = KrylovKind::kGmres;  ///< the paper's solver
  MatrixBackend backend = MatrixBackend::kCsrReference;
  /// Store the additive-Schwarz ILU(0) factors in float (solved with double
  /// accumulation) and wrap the Krylov solve in a double-precision iterative-
  /// refinement outer loop, converging to the same tolerance as the all-double
  /// path. Requires preconditioner == kAdditiveSchwarzIlu0.
  bool mixed_precision = false;
  solver::RefinementConfig refinement;  ///< mixed_precision outer loop knobs
  solver::SolverConfig solver;
  Vec3 body_force{};  ///< optional gravity-style load

  /// Seeded fault campaign applied to the SPMD run (par/fault_inject.h);
  /// inactive by default. Tests and benches use this to exercise the
  /// degradation ladder deterministically.
  par::FaultConfig fault_injection;

  /// Concentrated nodal forces (e.g. from fem::traction_loads /
  /// fem::pressure_loads), added to the right-hand side after assembly.
  std::vector<std::pair<mesh::NodeId, Vec3>> nodal_loads;
};

struct DeformationResult {
  std::vector<Vec3> node_displacements;  ///< full field, every node
  solver::SolveStats stats;
  par::PhaseWork work;  ///< phases "assemble", "bc", "solve"
  double wall_assemble_s = 0.0;
  double wall_bc_s = 0.0;
  double wall_solve_s = 0.0;
  double wall_init_s = 0.0;  ///< topology + partition construction
  int num_equations = 0;
  int num_fixed_dofs = 0;
  std::vector<int> nodes_per_rank;
  std::vector<int> fixed_dofs_per_rank;
};

/// Solves K u = f with the displacements of `prescribed` nodes fixed.
/// `prescribed` must pin enough of the boundary to make the system
/// non-singular (the pipeline fixes the full brain surface).
[[nodiscard]] DeformationResult solve_deformation(
    const mesh::TetMesh& mesh, const MaterialMap& materials,
    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
    const DeformationSolveOptions& options);

/// Builds the partition an options struct asks for (exposed for benches).
[[nodiscard]] mesh::Partition make_partition(const mesh::TetMesh& mesh, const DirichletSet& bc,
                               PartitionKind kind, int nranks);

}  // namespace neuro::fem
