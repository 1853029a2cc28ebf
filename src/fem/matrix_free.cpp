#include "fem/matrix_free.h"

#include <algorithm>
#include <cstddef>

#include "base/check.h"
#include "fem/assembly.h"
#include "solver/simd/block_kernels.h"

namespace neuro::fem {

namespace {

/// Appends one 3x3 block in transposed (column-contiguous) layout.
void push_transposed(std::vector<double>& dst, const double* a) {
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) {
      dst.push_back(a[3 * r + c]);
    }
  }
}

/// Vector-kernel padding contract (block_kernels.h): values arrays must
/// extend four doubles past the last block.
void pad_values(std::vector<double>& v) { v.insert(v.end(), 4, 0.0); }

}  // namespace

LocalMatrixFreeSystem assemble_elasticity_matrix_free(
    const mesh::TetMesh& mesh, const MeshTopology& topo,
    const MaterialMap& materials, const mesh::Partition& partition,
    const Vec3& body_force, par::Communicator& comm,
    solver::simd::DispatchTarget dispatch) {
  // The operator wraps the natively assembled block matrix: values
  // bit-identical to MatrixBackend::kBsr, and the scalar-dispatch apply
  // delegates to it outright.
  LocalBsrSystem sys = assemble_elasticity_bsr(mesh, topo, materials, partition,
                                               body_force, comm);
  return LocalMatrixFreeSystem{MatrixFreeOperator(std::move(sys.A), dispatch),
                               std::move(sys.b)};
}

MatrixFreeOperator::MatrixFreeOperator(solver::DistBsrMatrix matrix,
                                       solver::simd::DispatchTarget dispatch)
    : inner_(std::move(matrix)),
      target_(solver::simd::resolve_dispatch_target(dispatch)) {}

void MatrixFreeOperator::apply_dirichlet(const DirichletSet& bc,
                                         solver::DistVector& b,
                                         par::Communicator& comm) {
  NEURO_REQUIRE(!finalized_, "MatrixFreeOperator::apply_dirichlet after finalize");
  fem::apply_dirichlet(inner_, b, bc, comm);
}

void MatrixFreeOperator::finalize(par::Communicator& comm) {
  NEURO_REQUIRE(!finalized_, "MatrixFreeOperator::finalize called twice");
  inner_.drop_zero_blocks();
  // One halo plan for every dispatch target: the scalar path delegates the
  // whole apply to the wrapped matrix, the vector paths exchange over it.
  inner_.setup_ghosts(comm);
  finalized_ = true;
  if (target_ == solver::simd::DispatchTarget::kScalar) return;

  const solver::BlockRowRange brange = inner_.block_range();
  const auto& brp = inner_.block_row_ptr();
  const auto& bcols = inner_.block_cols();
  const auto& lcols = inner_.local_block_cols();
  const auto& vals = inner_.values();
  const int nb = inner_.local_block_rows();

  const auto row_has = [&](int m, solver::GlobalBlockRow want) {
    const auto b = bcols.begin() + brp[solver::LocalBlockRow{m}];
    const auto e = bcols.begin() + brp[solver::LocalBlockRow{m} + 1];
    const auto it = std::lower_bound(b, e, want);
    return it != e && *it == want;
  };

  // Compress to symmetric-upper: each owned pattern-paired block (n, m),
  // m > n, is stored once and applied twice (direct + transposed). Unpaired
  // owned blocks — possible only when drop_zero_blocks kept one side of an
  // exact-zero-cancelled pair — fall back to the broadcast kernel, as do all
  // ghost-column blocks (their mirror row lives on another rank).
  sym_row_ptr_.assign(static_cast<std::size_t>(nb) + 1, 0);
  ext_row_ptr_.assign(static_cast<std::size_t>(nb) + 1, 0);
  ghost_row_ptr_.assign(static_cast<std::size_t>(nb) + 1, 0);
  for (int n = 0; n < nb; ++n) {
    const solver::GlobalBlockRow gdiag = brange.first + n;
    const std::int32_t pb = brp[solver::LocalBlockRow{n}];
    const std::int32_t pe = brp[solver::LocalBlockRow{n} + 1];
    // Diagonal first: the symmetric kernel's layout contract.
    for (std::int32_t p = pb; p < pe; ++p) {
      if (bcols[static_cast<std::size_t>(p)] == gdiag) {
        sym_cols_.push_back(static_cast<std::int32_t>(n));
        push_transposed(sym_valuesT_, &vals[static_cast<std::size_t>(p) * 9U]);
        break;
      }
    }
    NEURO_REQUIRE(sym_cols_.size() ==
                      static_cast<std::size_t>(sym_row_ptr_[static_cast<std::size_t>(n)]) + 1,
                  "finalize: diagonal block missing from block row " << n);
    for (std::int32_t p = pb; p < pe; ++p) {
      const solver::GlobalBlockRow c = bcols[static_cast<std::size_t>(p)];
      if (c == gdiag) continue;
      const double* a = &vals[static_cast<std::size_t>(p) * 9U];
      if (!brange.contains(c)) {
        ghost_cols_.push_back(lcols[static_cast<std::size_t>(p)].value());
        push_transposed(ghost_valuesT_, a);
        continue;
      }
      const int m = brange.offset_of(c);
      if (m > n) {
        if (row_has(m, gdiag)) {
          sym_cols_.push_back(static_cast<std::int32_t>(m));
          push_transposed(sym_valuesT_, a);
        } else {
          ext_cols_.push_back(static_cast<std::int32_t>(m));
          push_transposed(ext_valuesT_, a);
        }
      } else if (!row_has(m, gdiag)) {
        ext_cols_.push_back(static_cast<std::int32_t>(m));
        push_transposed(ext_valuesT_, a);
      }
      // m < n with a pair: mirrored by row m's symmetric entry.
    }
    sym_row_ptr_[static_cast<std::size_t>(n) + 1] =
        static_cast<std::int32_t>(sym_cols_.size());
    ext_row_ptr_[static_cast<std::size_t>(n) + 1] =
        static_cast<std::int32_t>(ext_cols_.size());
    ghost_row_ptr_[static_cast<std::size_t>(n) + 1] =
        static_cast<std::int32_t>(ghost_cols_.size());
  }
  pad_values(sym_valuesT_);
  pad_values(ext_valuesT_);
  pad_values(ghost_valuesT_);
}

void MatrixFreeOperator::apply_node_pair(const solver::DistVector& x,
                                         solver::DistVector& y,
                                         par::Communicator& comm) const {
  const int nb = inner_.local_block_rows();

  // One padded gather buffer: owned x first, ghost slots after, plus the one
  // overhang double the 4-lane loads may read (block_kernels.h contract).
  std::vector<double> xg(
      (static_cast<std::size_t>(nb) + inner_.ghost_block_count()) * 3U + 1U, 0.0);
  std::copy(x.local().begin(), x.local().end(), xg.begin());
  auto pending = inner_.begin_halo_exchange(x, comm);

  // Halo-free work first (the overlap): the symmetric and unpaired passes
  // touch owned columns only. The kernels accumulate, so y starts at zero.
  std::fill(y.local().begin(), y.local().end(), 0.0);
  solver::simd::block3_sym_apply(target_, sym_valuesT_.data(),
                                 sym_row_ptr_.data(), sym_cols_.data(), nb,
                                 xg.data(), y.local().data());
  solver::simd::block3_accum_apply(target_, ext_valuesT_.data(),
                                   ext_row_ptr_.data(), ext_cols_.data(), nb,
                                   xg.data(), y.local().data());

  inner_.finish_halo_exchange(pending, xg.data(), comm);
  solver::simd::block3_accum_apply(target_, ghost_valuesT_.data(),
                                   ghost_row_ptr_.data(), ghost_cols_.data(), nb,
                                   xg.data(), y.local().data());

  // Logical work equals the BSR apply's; streamed bytes cover only the
  // stored (compressed) blocks — that gap is the compression's speedup.
  const double stored = static_cast<double>(sym_cols_.size() + ext_cols_.size() +
                                            ghost_cols_.size());
  comm.work().add_flops(kMfSymFlopsPerLogicalBlock *
                        static_cast<double>(inner_.local_blocks()));
  comm.work().add_mem_bytes(kMfSymBytesPerStoredBlock * stored +
                            kMfSymBytesPerRow *
                                static_cast<double>(inner_.local_rows()));
}

void MatrixFreeOperator::apply(const solver::DistVector& x, solver::DistVector& y,
                               par::Communicator& comm) const {
  NEURO_REQUIRE(finalized_, "MatrixFreeOperator::apply before finalize");
  NEURO_REQUIRE(x.range() == range() && y.range() == range(),
                "MatrixFreeOperator::apply: vector layout mismatch");
  if (target_ == solver::simd::DispatchTarget::kScalar) {
    inner_.apply(x, y, comm);  // bit-identical to MatrixBackend::kBsr
    return;
  }
  apply_node_pair(x, y, comm);
}

}  // namespace neuro::fem
