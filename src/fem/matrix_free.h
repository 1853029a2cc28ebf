// Matrix-free elasticity operator: y = K x through the explicitly vectorized
// block micro-kernels of src/solver/simd/, with no scalar matrix in the
// per-iteration hot path.
//
// Storage: one 3x3 block per node-adjacency edge (the BSR layout, assembled
// bit-identically to MatrixBackend::kBsr), applied through a symmetric-upper
// compression: only blocks (n, m) with m >= n are streamed and each
// off-diagonal block serves both y_n += A x_m and y_m += Aᵀ x_n. At the smoke
// mesh's ~12 blocks/row that cuts the apply's value traffic ~46% — the apply
// is memory-bound, so the cut is the speedup (docs/perf.md, "Matrix-free cost
// model"). Under kScalar dispatch the apply instead delegates to the wrapped
// DistBsrMatrix, bit-identical to the kBsr backend.
//
// Pipeline contract (mirrors the assembled backends):
//   assemble_elasticity_matrix_free → apply_dirichlet → finalize → apply…
// finalize() is collective: it builds the wrapped matrix's halo-exchange plan,
// which every dispatch target shares, and, under vector dispatch, the
// compressed symmetric arrays.
//
// Determinism: each rank accumulates into its owned rows only, in ascending
// block-row order, so repeated applies are bit-identical for every dispatch
// target. Cross-backend: kScalar equals kBsr bit for bit; the vector targets
// are tolerance-equivalent (their kernels reorder per-row reductions).
#pragma once

#include <cstdint>
#include <vector>

#include "fem/boundary.h"
#include "fem/material.h"
#include "mesh/partition.h"
#include "mesh/tet_mesh.h"
#include "par/communicator.h"
#include "solver/bsr_matrix.h"
#include "solver/dist_vector.h"
#include "solver/operator.h"
#include "solver/simd/dispatch.h"

namespace neuro::fem {

// Cost-model terms (docs/perf.md, "Matrix-free cost model"); the apply's work
// accounting uses exactly these, so the perf model and the counters agree.
inline constexpr double kMfSymFlopsPerLogicalBlock = 18.0;  ///< same math as BSR
inline constexpr double kMfSymBytesPerStoredBlock = 76.0;   ///< 9 vals + col idx
inline constexpr double kMfSymBytesPerRow = 16.0;           ///< x load + y store

/// One rank's piece of the system under the matrix-free backend.
struct LocalMatrixFreeSystem;

/// Matrix-free analogue of assemble_elasticity[_bsr]: same element traversal,
/// same right-hand side, and a wrapped block matrix bit-identical to the kBsr
/// backend's. `dispatch` is resolved immediately (kAuto probes the CPU); pass
/// kScalar for the bitwise-reference path.
[[nodiscard]] LocalMatrixFreeSystem assemble_elasticity_matrix_free(
    const mesh::TetMesh& mesh, const MeshTopology& topo,
    const MaterialMap& materials, const mesh::Partition& partition,
    const Vec3& body_force, par::Communicator& comm,
    solver::simd::DispatchTarget dispatch);

class MatrixFreeOperator final : public solver::LinearOperator {
 public:
  MatrixFreeOperator(solver::DistBsrMatrix matrix,
                     solver::simd::DispatchTarget dispatch);

  [[nodiscard]] int global_size() const override { return inner_.global_size(); }
  [[nodiscard]] solver::RowRange range() const override { return inner_.range(); }

  /// y = A x (collective). Requires finalize(). Ghost x values travel over
  /// the wrapped matrix's halo plan while the halo-free part of the apply
  /// computes (the BSR backend's VecScatterBegin/End overlap).
  void apply(const solver::DistVector& x, solver::DistVector& y,
             par::Communicator& comm) const override;

  [[nodiscard]] double value_at(solver::GlobalRow global_row,
                                solver::GlobalRow global_col) const override {
    return inner_.value_at(global_row, global_col);
  }

  void extract_diagonal_block(std::vector<int>& row_ptr, std::vector<int>& cols,
                              std::vector<double>& values) const override {
    inner_.extract_diagonal_block(row_ptr, cols, values);
  }

  /// Dirichlet substitution in the wrapped block matrix (bit-identical to the
  /// kBsr path). Call before finalize().
  void apply_dirichlet(const DirichletSet& bc, solver::DistVector& b,
                       par::Communicator& comm);

  /// Collective: builds the halo plan and the dispatch-target-specific apply
  /// arrays. Must be called (on every rank simultaneously) before apply().
  void finalize(par::Communicator& comm);

  /// The wrapped block matrix: the assembled values every preconditioner
  /// (Schwarz included) is built from.
  [[nodiscard]] const solver::DistBsrMatrix& matrix() const { return inner_; }
  /// The resolved dispatch target the apply kernels run on (never kAuto).
  [[nodiscard]] solver::simd::DispatchTarget dispatch() const { return target_; }

 private:
  void apply_node_pair(const solver::DistVector& x, solver::DistVector& y,
                       par::Communicator& comm) const;

  // The wrapped block matrix (assembled values, halo plan, and the bit-exact
  // scalar-dispatch apply) plus the compressed symmetric arrays the vector
  // kernels stream. valuesT arrays are transposed per block and padded four
  // doubles past the last block (kernel contract, block_kernels.h).
  solver::DistBsrMatrix inner_;
  solver::simd::DispatchTarget target_;
  bool finalized_ = false;
  std::vector<std::int32_t> sym_row_ptr_;  ///< diag-first, then paired m > n
  std::vector<std::int32_t> sym_cols_;
  std::vector<double> sym_valuesT_;
  std::vector<std::int32_t> ext_row_ptr_;  ///< pattern-unpaired owned blocks
  std::vector<std::int32_t> ext_cols_;
  std::vector<double> ext_valuesT_;
  std::vector<std::int32_t> ghost_row_ptr_;  ///< off-rank block columns
  std::vector<std::int32_t> ghost_cols_;     ///< the wrapped matrix's ghost slots
  std::vector<double> ghost_valuesT_;
};

struct LocalMatrixFreeSystem {
  MatrixFreeOperator A;
  solver::DistVector b;
};

}  // namespace neuro::fem
