// Distributed 3x3 block compressed-sparse-row matrix.
//
// 3-D elasticity couples the three dofs of a node as a unit: the assembled
// system is structurally a node-adjacency graph of dense 3x3 blocks. Storing
// it that way (PETSc's BAIJ) keeps one column index per block instead of one
// per scalar entry (~3x less index traffic) and lets the mat-vec kernel hold
// a block's x-entries in registers across three output rows.
//
// The mat-vec also overlaps its halo exchange: each rank's block rows are
// split into an *interior* set (no ghost columns) and a *boundary* set, and
// apply() posts nonblocking ghost sends/receives, computes the interior rows
// while the messages are in flight, then completes the receives and finishes
// the boundary rows — the VecScatterBegin/End pattern of the paper's PETSc
// solver. The scalar DistCsrMatrix remains the reference backend; both
// implement LinearOperator and are equivalence-tested against each other.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/strong_id.h"
#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/dist_vector.h"
#include "solver/operator.h"

namespace neuro::solver {

/// A block row/column of the global blocked system: the image of a mesh node
/// (global scalar row / 3).
using GlobalBlockRow = base::StrongId<struct GlobalBlockRowTag>;
/// Offset into one rank's owned block rows; ghost block columns are mapped
/// into the same space after the owned run (slot >= local block count).
using LocalBlockRow = base::StrongId<struct LocalBlockRowTag>;
/// The contiguous run of global block rows one rank owns.
using BlockRowRange = base::IdRange<GlobalBlockRow>;

class DistBsrMatrix : public LinearOperator {
 public:
  static constexpr int kBlock = 3;

  /// Builds the local block rows from BSR arrays with *global* block column
  /// indices. `range` is the scalar row range (must be kBlock-aligned);
  /// `block_row_ptr` has (range.size()/kBlock + 1) entries and `values` holds
  /// kBlock*kBlock doubles per block, row-major.
  DistBsrMatrix(int global_size, RowRange range,
                std::vector<std::int32_t> block_row_ptr,
                std::vector<GlobalBlockRow> block_cols,
                std::vector<double> values);

  /// Groups a scalar CSR matrix into 3x3 blocks (union pattern per block,
  /// zero-filled). Requires a kBlock-aligned row range; the source matrix's
  /// ghost state is irrelevant (global columns are used).
  [[nodiscard]] static DistBsrMatrix from_csr(const DistCsrMatrix& csr);

  /// Expands back to a scalar CSR matrix, skipping explicitly-zero entries
  /// except the scalar diagonal — the same entry set DistCsrMatrix holds
  /// after drop_zeros(), so downstream consumers (Additive Schwarz) see the
  /// reference sparsity.
  [[nodiscard]] DistCsrMatrix to_csr() const;

  [[nodiscard]] int global_size() const override { return global_size_; }
  [[nodiscard]] RowRange range() const override { return range_; }
  [[nodiscard]] BlockRowRange block_range() const { return block_range_; }
  [[nodiscard]] int local_rows() const { return range_.size(); }
  [[nodiscard]] int local_block_rows() const { return block_range_.size(); }
  [[nodiscard]] std::size_t local_blocks() const { return block_cols_.size(); }
  /// Scalar entries stored (9 per block, zero fill included).
  [[nodiscard]] std::size_t local_nnz() const { return values_.size(); }

  /// Removes off-diagonal blocks whose 9 entries are all zero (diagonal
  /// blocks are always kept). The blocked analogue of
  /// DistCsrMatrix::drop_zeros() after boundary-condition substitution:
  /// a fully-fixed neighbour node leaves an all-zero block behind.
  /// Must be called before setup_ghosts().
  void drop_zero_blocks();

  /// Collective: builds the block-granular ghost exchange plan, remaps block
  /// columns to local+ghost slots, and splits the owned block rows into
  /// interior rows (no ghost columns) and boundary rows (at least one).
  void setup_ghosts(par::Communicator& comm);

  /// y = A x (collective). With more than one rank this posts nonblocking
  /// ghost receives and sends (Communicator::irecv/isend), computes interior
  /// rows while the halo is in flight, then waits and finishes boundary rows.
  void apply(const DistVector& x, DistVector& y,
             par::Communicator& comm) const override;

  [[nodiscard]] double value_at(GlobalRow global_row,
                                GlobalRow global_col) const override;

  /// Mutable access used by boundary-condition substitution. Row is owned.
  /// Returns nullptr when the 3x3 block is not in the sparsity pattern.
  [[nodiscard]] double* find_entry(GlobalRow global_row, GlobalRow global_col);

  /// Scalar diagonal-block extraction (see LinearOperator): skips explicit
  /// zeros except the scalar diagonal, matching the reference CSR path.
  void extract_diagonal_block(std::vector<int>& row_ptr, std::vector<int>& cols,
                              std::vector<double>& values) const override;

  /// Raw local block structure (global block columns, 9 values per block).
  [[nodiscard]] const base::IdVector<LocalBlockRow, std::int32_t>& block_row_ptr() const {
    return block_row_ptr_;
  }
  [[nodiscard]] const std::vector<GlobalBlockRow>& block_cols() const {
    return block_cols_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::vector<double>& values() { return values_; }

  /// Interior/boundary split (valid after setup_ghosts; before it, every row
  /// is interior).
  [[nodiscard]] const std::vector<LocalBlockRow>& interior_rows() const {
    return interior_rows_;
  }
  [[nodiscard]] const std::vector<LocalBlockRow>& boundary_rows() const {
    return boundary_rows_;
  }

 private:
  /// apply()'s halo exchange, split so the interior rows compute while it is
  /// in flight. begin posts the ghost receives and ships owned x blocks
  /// nonblocking; finish waits and writes the ghost x values into `xg` from
  /// slot local_block_rows() on. Both are no-ops without ghosts (one rank).
  [[nodiscard]] std::vector<par::Communicator::PendingRecv> begin_halo_exchange(
      const DistVector& x, par::Communicator& comm) const;
  void finish_halo_exchange(std::vector<par::Communicator::PendingRecv>& pending,
                            double* xg, par::Communicator& comm) const;
  void compute_rows(const std::vector<LocalBlockRow>& rows, const double* xg,
                    DistVector& y) const;

  int global_size_;
  RowRange range_;
  BlockRowRange block_range_;
  base::IdVector<LocalBlockRow, std::int32_t> block_row_ptr_;
  std::vector<GlobalBlockRow> block_cols_;
  std::vector<double> values_;  ///< 9 per block, row-major within the block

  // Ghost plan (built by setup_ghosts).
  bool ghosts_ready_ = false;
  std::vector<LocalBlockRow> local_block_cols_;  ///< owned → [0, nb), ghosts after
  std::vector<GlobalBlockRow> ghost_blocks_;     ///< global block per ghost slot
  struct Exchange {
    Rank rank;
    std::vector<LocalBlockRow> local_indices;  ///< owned blocks to ship to `rank`
  };
  std::vector<Exchange> sends_;
  struct Receive {
    Rank rank;
    int ghost_offset;  ///< first ghost slot filled by this rank
    int count;
  };
  std::vector<Receive> recvs_;
  std::vector<LocalBlockRow> interior_rows_;
  std::vector<LocalBlockRow> boundary_rows_;
};

}  // namespace neuro::solver
