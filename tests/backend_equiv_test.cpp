// Solver-configuration tests across 1/2/4 ranks: run-to-run determinism of
// both assembled backends {kCsrReference, kBsr}, the mixed-precision
// iterative-refinement contract, and the binary-search entry lookups of the
// assembled matrices. Labelled `perf` (sanitizer CI runs this suite) and
// `determinism` (the double-run test). CSR == BSR to the bit is pinned by
// bsr_test (BsrSolveTest.DeformationBackendMatchesReference).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "fem/assembly.h"
#include "fem/boundary.h"
#include "fem/deformation_solver.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "par/communicator.h"
#include "solver/bsr_matrix.h"
#include "solver/dist_matrix.h"

namespace neuro::fem {
namespace {

/// Small solid block phantom; enough nodes to split across 4 ranks.
const mesh::TetMesh& shared_mesh() {
  static const mesh::TetMesh mesh = [] {
    ImageL labels({9, 9, 9}, 1, {2.0, 2.0, 2.0});
    mesh::MesherConfig cfg;
    cfg.stride = 2;
    return mesh::mesh_labeled_volume(labels, cfg);
  }();
  return mesh;
}

/// Nonuniform displacement on the whole boundary (definite system with a
/// nontrivial solution).
std::vector<std::pair<mesh::NodeId, Vec3>> boundary_displacements() {
  const auto surface = mesh::extract_boundary_surface(shared_mesh(), {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = shared_mesh().nodes[n];
    bcs.emplace_back(n, Vec3{0.02 * p.z, -0.01 * p.x, 0.015 * p.y});
  }
  return bcs;
}

DeformationSolveOptions base_options(int nranks) {
  DeformationSolveOptions opt;
  opt.nranks = nranks;
  opt.solver.rtol = 1e-10;
  return opt;
}

DeformationResult run(const DeformationSolveOptions& opt,
                      const MaterialMap& materials = MaterialMap::homogeneous_brain()) {
  return solve_deformation(shared_mesh(), materials, boundary_displacements(),
                           opt);
}

/// Bitwise displacement-field comparison (memcmp via the raw doubles).
void expect_bit_identical(const DeformationResult& a, const DeformationResult& b) {
  ASSERT_EQ(a.node_displacements.size(), b.node_displacements.size());
  for (std::size_t i = 0; i < a.node_displacements.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.node_displacements[i], &b.node_displacements[i],
                          sizeof(Vec3)),
              0)
        << "node " << i;
  }
}

void expect_close(const DeformationResult& a, const DeformationResult& b,
                  double tol) {
  ASSERT_EQ(a.node_displacements.size(), b.node_displacements.size());
  for (std::size_t i = 0; i < a.node_displacements.size(); ++i) {
    EXPECT_NEAR(norm(a.node_displacements[i] - b.node_displacements[i]), 0.0,
                tol)
        << "node " << i;
  }
}

TEST(BackendEquivTest, DoubleRunIsBitIdenticalPerConfiguration) {
  // Determinism within a configuration: whatever the backend and rank count,
  // running the same solve twice must replay bit for bit (fixed traversal
  // order, owned-rows-only accumulation, one halo plan).
  for (const MatrixBackend backend :
       {MatrixBackend::kCsrReference, MatrixBackend::kBsr}) {
    for (const int P : {1, 2, 4}) {
      auto opt = base_options(P);
      opt.backend = backend;
      const DeformationResult first = run(opt);
      const DeformationResult second = run(opt);
      const std::string where =
          std::string(backend == MatrixBackend::kBsr ? "bsr" : "csr") + " P=" +
          std::to_string(P);
      ASSERT_TRUE(first.stats.converged) << where;
      EXPECT_EQ(first.stats.iterations, second.stats.iterations) << where;
      EXPECT_EQ(first.stats.final_residual, second.stats.final_residual) << where;
      expect_bit_identical(first, second);
    }
  }
}

TEST(BackendEquivTest, MixedPrecisionReachesDoubleToleranceNearIncompressible) {
  // Near-incompressible phantom (nu = 0.49): the stiffest configuration the
  // pipeline meets, and the one where float factors lose the most digits —
  // the iterative-refinement outer loop must still land on the double
  // tolerance because convergence is judged on the double residual.
  const MaterialMap stiff{Material{3000.0, 0.49}};
  for (const int P : {1, 2, 4}) {
    auto opt = base_options(P);
    opt.preconditioner = solver::PreconditionerKind::kAdditiveSchwarzIlu0;
    const DeformationResult dbl = run(opt, stiff);
    opt.mixed_precision = true;
    const DeformationResult mixed = run(opt, stiff);
    ASSERT_TRUE(dbl.stats.converged) << "P=" << P;
    ASSERT_TRUE(mixed.stats.converged) << "P=" << P;
    // Same tolerance: the refinement loop reports the true double residual.
    EXPECT_LE(mixed.stats.final_residual,
              opt.solver.rtol * mixed.stats.initial_residual * (1 + 1e-12))
        << "P=" << P;
    expect_close(mixed, dbl, 1e-8);
  }
}

TEST(BackendEquivTest, MixedPrecisionIterationsStayWithinOneOfDouble) {
  // The float factors perturb only the preconditioner (same sparsity, same
  // elimination order), so on the standard phantom the aggregate inner
  // iteration count stays within ±1 of the all-double solve.
  auto opt = base_options(2);
  opt.preconditioner = solver::PreconditionerKind::kAdditiveSchwarzIlu0;
  const DeformationResult dbl = run(opt);
  opt.mixed_precision = true;
  const DeformationResult mixed = run(opt);
  ASSERT_TRUE(dbl.stats.converged);
  ASSERT_TRUE(mixed.stats.converged);
  EXPECT_LE(std::abs(mixed.stats.iterations - dbl.stats.iterations), 1);
  expect_close(mixed, dbl, 1e-8);
}

// --- Binary-search entry lookups (dist_matrix / bsr_matrix) -----------------

TEST(EntryLookupTest, CsrValueAtHitMissAndFixedRows) {
  const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), 2);
  const MeshTopology topo = MeshTopology::build(shared_mesh());
  const DirichletSet bc =
      DirichletSet::from_node_displacements(boundary_displacements());
  par::run_spmd(2, [&](par::Communicator& comm) {
    LocalSystem csr = assemble_elasticity(
        shared_mesh(), topo, MaterialMap::homogeneous_brain(), part, {}, comm);
    apply_dirichlet(csr, bc, comm);
    const auto [rb, re] = csr.A.range();
    for (solver::GlobalRow row = rb; row < re; ++row) {
      const auto r = static_cast<std::size_t>(row - rb);
      const int pb = csr.A.row_ptr()[r];
      const int pe = csr.A.row_ptr()[r + 1];
      ASSERT_GT(pe, pb);
      // Hits: first, middle and last stored column of the row.
      for (const int p : {pb, (pb + pe) / 2, pe - 1}) {
        const solver::GlobalRow col{
            csr.A.global_cols()[static_cast<std::size_t>(p)]};
        EXPECT_EQ(csr.A.value_at(row, col),
                  csr.A.values()[static_cast<std::size_t>(p)]);
        EXPECT_EQ(csr.A.find_entry(row, col),
                  &csr.A.values()[static_cast<std::size_t>(p)]);
      }
      // Miss: a column past every stored one in this row.
      const solver::GlobalRow beyond{csr.A.global_size() + 5};
      EXPECT_EQ(csr.A.value_at(row, beyond), 0.0);
      EXPECT_EQ(csr.A.find_entry(row, beyond), nullptr);
    }
    // A fixed row is an identity row: unit diagonal, zero off-diagonals.
    const solver::GlobalRow fixed_row{row_of(bc.dofs().front()).value()};
    if (csr.A.range().contains(fixed_row)) {
      EXPECT_EQ(csr.A.value_at(fixed_row, fixed_row), 1.0);
    }
  });
}

TEST(EntryLookupTest, BsrValueAtMatchesCsrIncludingOffDiagonalBlocks) {
  const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), 2);
  const MeshTopology topo = MeshTopology::build(shared_mesh());
  par::run_spmd(2, [&](par::Communicator& comm) {
    const LocalSystem csr = assemble_elasticity(
        shared_mesh(), topo, MaterialMap::homogeneous_brain(), part, {}, comm);
    LocalBsrSystem bsr = assemble_elasticity_bsr(
        shared_mesh(), topo, MaterialMap::homogeneous_brain(), part, {}, comm);
    const auto [rb, re] = bsr.A.range();
    Rng rng(20260808u + static_cast<std::uint64_t>(comm.rank()));
    for (int trial = 0; trial < 200; ++trial) {
      const solver::GlobalRow row =
          rb + static_cast<int>(rng.uniform_index(
                   static_cast<std::uint64_t>(re - rb)));
      const solver::GlobalRow col{static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(bsr.A.global_size())))};
      // The blocked lookup must agree with the scalar reference everywhere:
      // stored scalar (hit), stored block with zero scalar, absent block.
      EXPECT_EQ(bsr.A.value_at(row, col), csr.A.value_at(row, col))
          << "row " << row << " col " << col;
      double* entry = bsr.A.find_entry(row, col);
      if (entry != nullptr) {
        EXPECT_EQ(*entry, csr.A.value_at(row, col));
      } else {
        // Absent block -> the scalar reference holds no nonzero there either.
        EXPECT_EQ(csr.A.value_at(row, col), 0.0)
            << "row " << row << " col " << col;
      }
    }
    // Off-diagonal block hit: pick the second block of the first block row.
    const auto& bcols = bsr.A.block_cols();
    if (bsr.A.block_row_ptr()[solver::LocalBlockRow{0} + 1] > 1) {
      const int cbase = bcols[1].value() * 3;
      for (int ca = 0; ca < 3; ++ca) {
        for (int cb = 0; cb < 3; ++cb) {
          const solver::GlobalRow row = rb + ca;
          const solver::GlobalRow col{cbase + cb};
          EXPECT_EQ(bsr.A.value_at(row, col), csr.A.value_at(row, col));
        }
      }
    }
  });
}

}  // namespace
}  // namespace neuro::fem
