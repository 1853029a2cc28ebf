// Equivalence tests for the block-CSR backend (solver/bsr_matrix.h) against
// the scalar CSR reference: native assembly vs. regrouping, mat-vec to the
// bit across rank counts (the kernels share one association order), classical
// vs. modified Gram-Schmidt GMRES, and the fused Krylov reduction counts.
// Labelled `perf` so the sanitizer CI jobs can run exactly this suite.
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
#include "solver/krylov.h"
#include "solver/preconditioner.h"

namespace neuro::fem {
namespace {

/// Small solid block phantom; enough nodes to split across 8 ranks.
const mesh::TetMesh& shared_mesh() {
  static const mesh::TetMesh mesh = [] {
    ImageL labels({9, 9, 9}, 1, {2.0, 2.0, 2.0});
    mesh::MesherConfig cfg;
    cfg.stride = 2;
    return mesh::mesh_labeled_volume(labels, cfg);
  }();
  return mesh;
}

const MeshTopology& shared_topo() {
  static const MeshTopology topo = MeshTopology::build(shared_mesh());
  return topo;
}

/// Prescribes a nonuniform displacement on the whole boundary (definite
/// system with a nontrivial solution).
DirichletSet boundary_bc() {
  const auto surface = mesh::extract_boundary_surface(shared_mesh(), {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = shared_mesh().nodes[n];
    bcs.emplace_back(n, Vec3{0.02 * p.z, -0.01 * p.x, 0.015 * p.y});
  }
  return DirichletSet::from_node_displacements(bcs);
}

/// Deterministic rank-independent test vector (seeded per global row).
solver::DistVector random_vector(int global_size, solver::RowRange range,
                                 std::uint64_t seed) {
  solver::DistVector x(global_size, range);
  for (const solver::GlobalRow g : range) {
    Rng rng(seed + static_cast<std::uint64_t>(g.value()));
    x[g] = rng.uniform(-1.0, 1.0);
  }
  return x;
}

TEST(BsrAssemblyTest, NativeMatchesRegroupedCsr) {
  for (const int P : {1, 2, 4}) {
    const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), P);
    par::run_spmd(P, [&](par::Communicator& comm) {
      const LocalSystem csr =
          assemble_elasticity(shared_mesh(), shared_topo(),
                              MaterialMap::homogeneous_brain(), part, {}, comm);
      const LocalBsrSystem bsr = assemble_elasticity_bsr(
          shared_mesh(), shared_topo(), MaterialMap::homogeneous_brain(), part,
          {}, comm);
      const solver::DistBsrMatrix regrouped =
          solver::DistBsrMatrix::from_csr(csr.A);
      // Identical structure and bit-identical values: the native assembly
      // accumulates element contributions in the same order as the scalar one.
      ASSERT_EQ(bsr.A.block_row_ptr().raw(), regrouped.block_row_ptr().raw());
      ASSERT_EQ(bsr.A.block_cols(), regrouped.block_cols());
      ASSERT_EQ(bsr.A.values(), regrouped.values());
      ASSERT_EQ(bsr.b.local(), csr.b.local());
    });
  }
}

TEST(BsrMatvecTest, MatchesCsrToTheBitAcrossRanks) {
  for (const int P : {1, 2, 4, 8}) {
    const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), P);
    const DirichletSet bc = boundary_bc();
    par::run_spmd(P, [&](par::Communicator& comm) {
      LocalSystem csr =
          assemble_elasticity(shared_mesh(), shared_topo(),
                              MaterialMap::homogeneous_brain(), part, {}, comm);
      LocalBsrSystem bsr = assemble_elasticity_bsr(
          shared_mesh(), shared_topo(), MaterialMap::homogeneous_brain(), part,
          {}, comm);
      apply_dirichlet(csr, bc, comm);
      apply_dirichlet(bsr, bc, comm);
      ASSERT_EQ(bsr.b.local(), csr.b.local());

      csr.A.drop_zeros();
      csr.A.setup_ghosts(comm);
      bsr.A.drop_zero_blocks();
      bsr.A.setup_ghosts(comm);

      const solver::DistVector x =
          random_vector(csr.b.global_size(), csr.b.range(), 99);
      solver::DistVector y_csr(csr.b.global_size(), csr.b.range());
      solver::DistVector y_bsr(csr.b.global_size(), csr.b.range());
      csr.A.apply(x, y_csr, comm);
      bsr.A.apply(x, y_bsr, comm);
      for (const solver::GlobalRow g : csr.b.range()) {
        // Same association order per scalar row -> identical doubles (the
        // blocked kernel only adds exact zeros the CSR path dropped).
        ASSERT_DOUBLE_EQ(y_bsr[g], y_csr[g]) << "P=" << P << " row " << g;
      }
    });
  }
}

TEST(BsrMatvecTest, InteriorBoundarySplitCoversAllRows) {
  const int P = 4;
  const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), P);
  par::run_spmd(P, [&](par::Communicator& comm) {
    LocalBsrSystem bsr = assemble_elasticity_bsr(
        shared_mesh(), shared_topo(), MaterialMap::homogeneous_brain(), part,
        {}, comm);
    bsr.A.setup_ghosts(comm);
    const auto& interior = bsr.A.interior_rows();
    const auto& boundary = bsr.A.boundary_rows();
    ASSERT_EQ(static_cast<int>(interior.size() + boundary.size()),
              bsr.A.local_block_rows());
    std::vector<char> seen(static_cast<std::size_t>(bsr.A.local_block_rows()), 0);
    for (const auto br : interior) seen[br.index()] += 1;
    for (const auto br : boundary) seen[br.index()] += 1;
    for (const char c : seen) EXPECT_EQ(c, 1);  // disjoint and complete
    // Boundary rows exist on every rank of a connected partitioned mesh.
    if (comm.size() > 1) {
      EXPECT_FALSE(boundary.empty());
    }
    // Boundary rows genuinely reference ghost slots.
    const int nb = bsr.A.local_block_rows();
    for (const auto br : boundary) {
      bool touches_ghost = false;
      for (std::int32_t p = bsr.A.block_row_ptr()[br];
           p < bsr.A.block_row_ptr()[br + 1]; ++p) {
        const auto col = bsr.A.block_cols()[static_cast<std::size_t>(p)];
        if (!bsr.A.block_range().contains(col)) touches_ghost = true;
      }
      EXPECT_TRUE(touches_ghost) << "nb=" << nb;
    }
  });
}

TEST(BsrRoundTripTest, ToCsrReproducesDroppedReferencePattern) {
  const int P = 2;
  const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), P);
  const DirichletSet bc = boundary_bc();
  par::run_spmd(P, [&](par::Communicator& comm) {
    LocalSystem csr =
        assemble_elasticity(shared_mesh(), shared_topo(),
                            MaterialMap::homogeneous_brain(), part, {}, comm);
    LocalBsrSystem bsr = assemble_elasticity_bsr(
        shared_mesh(), shared_topo(), MaterialMap::homogeneous_brain(), part,
        {}, comm);
    apply_dirichlet(csr, bc, comm);
    apply_dirichlet(bsr, bc, comm);
    csr.A.drop_zeros();
    bsr.A.drop_zero_blocks();
    const solver::DistCsrMatrix back = bsr.A.to_csr();
    ASSERT_EQ(back.row_ptr(), csr.A.row_ptr());
    ASSERT_EQ(back.global_cols(), csr.A.global_cols());
    ASSERT_EQ(back.values(), csr.A.values());
  });
}

/// Builds the post-BC system pair for the Krylov tests (P ranks) and returns
/// via out-params inside the SPMD region.
template <typename Fn>
void with_solver_system(int P, Fn&& fn) {
  const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), P);
  const DirichletSet bc = boundary_bc();
  par::run_spmd(P, [&](par::Communicator& comm) {
    LocalSystem csr =
        assemble_elasticity(shared_mesh(), shared_topo(),
                            MaterialMap::homogeneous_brain(), part, {}, comm);
    apply_dirichlet(csr, bc, comm);
    csr.A.drop_zeros();
    csr.A.setup_ghosts(comm);
    fn(csr, comm);
  });
}

TEST(KrylovBatchingTest, ClassicalGramSchmidtConvergesLikeModified) {
  with_solver_system(2, [](LocalSystem& sys, par::Communicator& comm) {
    const auto M = solver::make_preconditioner(
        solver::PreconditionerKind::kBlockJacobiIlu0, sys.A, comm, 1);
    solver::SolverConfig cfg;
    cfg.rtol = 1e-9;

    solver::DistVector x_mgs(sys.b.global_size(), sys.b.range());
    cfg.gmres_orthogonalization = solver::GramSchmidtKind::kModified;
    const auto mgs = solver::gmres(sys.A, sys.b, x_mgs, *M, cfg, comm);

    solver::DistVector x_cgs(sys.b.global_size(), sys.b.range());
    cfg.gmres_orthogonalization = solver::GramSchmidtKind::kClassical;
    const auto cgs = solver::gmres(sys.A, sys.b, x_cgs, *M, cfg, comm);

    solver::DistVector x_dgks(sys.b.global_size(), sys.b.range());
    cfg.gmres_reorthogonalize = true;
    const auto dgks = solver::gmres(sys.A, sys.b, x_dgks, *M, cfg, comm);

    ASSERT_TRUE(mgs.converged);
    ASSERT_TRUE(cgs.converged);
    ASSERT_TRUE(dgks.converged);
    // Same tolerance reached; batched orthogonalization may differ in
    // rounding but not in convergence behaviour on this well-conditioned
    // system.
    const double target = 1e-9 * mgs.initial_residual;
    EXPECT_LE(solver::true_residual_norm(sys.A, sys.b, x_mgs, comm), 10 * target);
    EXPECT_LE(solver::true_residual_norm(sys.A, sys.b, x_cgs, comm), 10 * target);
    EXPECT_LE(solver::true_residual_norm(sys.A, sys.b, x_dgks, comm), 10 * target);
    // Reorthogonalization can only help (never more iterations than plain
    // CGS + a small slack for tie-breaking).
    EXPECT_LE(dgks.iterations, cgs.iterations + 1);
    // Solutions agree to solver tolerance.
    for (const solver::GlobalRow g : sys.b.range()) {
      EXPECT_NEAR(x_cgs[g], x_mgs[g], 1e-7);
      EXPECT_NEAR(x_dgks[g], x_mgs[g], 1e-7);
    }
  });
}

TEST(KrylovBatchingTest, ClassicalUsesOneAllreducePerIterationPlusGuard) {
  with_solver_system(2, [](LocalSystem& sys, par::Communicator& comm) {
    const auto M = solver::make_preconditioner(
        solver::PreconditionerKind::kBlockJacobiIlu0, sys.A, comm, 1);
    solver::SolverConfig cfg;
    cfg.rtol = 1e-9;

    auto rounds_for = [&](solver::GramSchmidtKind kind) {
      cfg.gmres_orthogonalization = kind;
      solver::DistVector x(sys.b.global_size(), sys.b.range());
      comm.work().take();
      const auto stats = solver::gmres(sys.A, sys.b, x, *M, cfg, comm);
      const par::WorkRecord w = comm.work().take();
      EXPECT_TRUE(stats.converged);
      return std::pair<double, int>{w.coll_rounds, stats.iterations};
    };

    const auto [mgs_rounds, mgs_iters] =
        rounds_for(solver::GramSchmidtKind::kModified);
    const auto [cgs_rounds, cgs_iters] =
        rounds_for(solver::GramSchmidtKind::kClassical);
    // MGS: j+2 allreduces in iteration j. CGS: 1, plus the occasional
    // cancellation-guard norm and the per-cycle setup/restart reductions.
    EXPECT_GT(mgs_rounds / std::max(1, mgs_iters), 3.0);
    EXPECT_LE(cgs_rounds / std::max(1, cgs_iters), 3.0);
    EXPECT_LT(cgs_rounds, mgs_rounds);
  });
}

TEST(KrylovBatchingTest, FusedKrylovUsesFewerCollectives) {
  // docs/perf.md, "Communication-batched Krylov": fused reductions take fewer
  // allreduce rounds than there are reduced scalars. CG issues 2 rounds per
  // iteration (pᵀAp; ‖r‖² fused with rᵀz), BiCGStab 4 (r0ᵀv; ‖s‖; tᵀt
  // fused with tᵀs; ‖r‖² fused with the next r0ᵀr). Setup adds at most two
  // (CG: ‖r0‖ and r0ᵀz0; BiCGStab: ‖r0‖²). One more reduction per scalar in
  // any iteration breaks the bound.
  with_solver_system(2, [](LocalSystem& sys, par::Communicator& comm) {
    constexpr double kSetupRounds = 2.0;
    const auto M = solver::make_preconditioner(
        solver::PreconditionerKind::kBlockJacobiIlu0, sys.A, comm, 1);
    for (const bool use_cg : {true, false}) {
      solver::SolverConfig cfg;
      cfg.rtol = 1e-9;
      solver::DistVector x(sys.b.global_size(), sys.b.range());
      comm.work().take();
      const auto stats = use_cg ? solver::cg(sys.A, sys.b, x, *M, cfg, comm)
                                : solver::bicgstab(sys.A, sys.b, x, *M, cfg, comm);
      const double rounds = comm.work().take().coll_rounds;
      ASSERT_TRUE(stats.converged) << "cg=" << use_cg;
      ASSERT_GE(stats.iterations, 5) << "cg=" << use_cg;
      const double per_iteration = use_cg ? 2.0 : 4.0;
      EXPECT_LE(rounds, per_iteration * stats.iterations + kSetupRounds)
          << "cg=" << use_cg << " iterations=" << stats.iterations;
      // The counter sees the solve at all: at least one round per iteration.
      EXPECT_GE(rounds, static_cast<double>(stats.iterations)) << "cg=" << use_cg;
    }
  });
}

TEST(BsrSolveTest, GmresOnBsrMatchesCsrWithinTolerance) {
  for (const int P : {1, 2, 4}) {
    const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), P);
    const DirichletSet bc = boundary_bc();
    par::run_spmd(P, [&](par::Communicator& comm) {
      LocalSystem csr =
          assemble_elasticity(shared_mesh(), shared_topo(),
                              MaterialMap::homogeneous_brain(), part, {}, comm);
      LocalBsrSystem bsr = assemble_elasticity_bsr(
          shared_mesh(), shared_topo(), MaterialMap::homogeneous_brain(), part,
          {}, comm);
      apply_dirichlet(csr, bc, comm);
      apply_dirichlet(bsr, bc, comm);
      csr.A.drop_zeros();
      csr.A.setup_ghosts(comm);
      bsr.A.drop_zero_blocks();
      bsr.A.setup_ghosts(comm);

      solver::SolverConfig cfg;
      cfg.rtol = 1e-10;
      const auto M_csr = solver::make_preconditioner(
          solver::PreconditionerKind::kBlockJacobiIlu0, csr.A, comm, 1);
      const auto M_bsr = solver::make_preconditioner(
          solver::PreconditionerKind::kBlockJacobiIlu0, bsr.A, comm, 1);
      solver::DistVector x_csr(csr.b.global_size(), csr.b.range());
      solver::DistVector x_bsr(csr.b.global_size(), csr.b.range());
      const auto s_csr =
          solver::gmres(csr.A, csr.b, x_csr, *M_csr, cfg, comm);
      const auto s_bsr =
          solver::gmres(bsr.A, bsr.b, x_bsr, *M_bsr, cfg, comm);
      ASSERT_TRUE(s_csr.converged);
      ASSERT_TRUE(s_bsr.converged);
      for (const solver::GlobalRow g : csr.b.range()) {
        EXPECT_NEAR(x_bsr[g], x_csr[g], 1e-8) << "P=" << P;
      }
    });
  }
}

TEST(BsrSolveTest, DeformationBackendMatchesReference) {
  // The BSR kernels keep the scalar association order, so the whole solve
  // replays the CSR reference to the bit, for every Krylov method and rank
  // count.
  const auto surface = mesh::extract_boundary_surface(shared_mesh(), {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = shared_mesh().nodes[n];
    bcs.emplace_back(n, Vec3{0.01 * p.z, 0.0, -0.02 * p.x});
  }
  const std::pair<const char*, KrylovKind> methods[] = {
      {"gmres", KrylovKind::kGmres},
      {"cg", KrylovKind::kCg},
      {"bicgstab", KrylovKind::kBicgstab},
  };
  for (const auto& [name, krylov] : methods) {
    for (const int P : {1, 2, 4}) {
      DeformationSolveOptions opt;
      opt.nranks = P;
      opt.krylov = krylov;
      opt.solver.rtol = 1e-10;
      opt.backend = MatrixBackend::kCsrReference;
      const DeformationResult ref =
          solve_deformation(shared_mesh(), MaterialMap::homogeneous_brain(), bcs, opt);
      opt.backend = MatrixBackend::kBsr;
      const DeformationResult fast =
          solve_deformation(shared_mesh(), MaterialMap::homogeneous_brain(), bcs, opt);
      const std::string where = std::string(name) + " P=" + std::to_string(P);
      ASSERT_TRUE(ref.stats.converged) << where;
      ASSERT_TRUE(fast.stats.converged) << where;
      EXPECT_EQ(fast.stats.iterations, ref.stats.iterations) << where;
      ASSERT_EQ(fast.node_displacements.size(), ref.node_displacements.size());
      EXPECT_EQ(std::memcmp(fast.node_displacements.data(), ref.node_displacements.data(),
                            ref.node_displacements.size() * sizeof(Vec3)),
                0)
          << where;
    }
  }
}

}  // namespace
}  // namespace neuro::fem
