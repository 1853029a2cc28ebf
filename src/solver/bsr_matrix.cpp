#include "solver/bsr_matrix.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>

#include "base/check.h"
#include "base/numerics_annotations.h"

namespace neuro::solver {

namespace {

constexpr int kB = DistBsrMatrix::kBlock;
constexpr int kHaloTag = 702;  ///< distinct from Schwarz's 911

/// Register-blocked y = A x over a list of block rows. Each scalar row
/// accumulates its products in the same association order as the scalar CSR
/// kernel, so the two backends agree to rounding.
NEURO_BITEXACT
template <class ColId>
void bsr_rows_kernel(const std::vector<double>& values,
                     const base::IdVector<LocalBlockRow, std::int32_t>& row_ptr,
                     const std::vector<ColId>& cols,
                     const std::vector<LocalBlockRow>& rows, const double* xg,
                     std::vector<double>& y_local) {
  for (const LocalBlockRow br : rows) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = &values[static_cast<std::size_t>(p) * 9U];
      const double* xb = xg + cols[static_cast<std::size_t>(p)].index() * 3U;
      acc0 += a[0] * xb[0];
      acc0 += a[1] * xb[1];
      acc0 += a[2] * xb[2];
      acc1 += a[3] * xb[0];
      acc1 += a[4] * xb[1];
      acc1 += a[5] * xb[2];
      acc2 += a[6] * xb[0];
      acc2 += a[7] * xb[1];
      acc2 += a[8] * xb[2];
    }
    const std::size_t out = br.index() * 3U;
    y_local[out + 0] = acc0;
    y_local[out + 1] = acc1;
    y_local[out + 2] = acc2;
  }
}

}  // namespace

DistBsrMatrix::DistBsrMatrix(int global_size, RowRange range,
                             std::vector<std::int32_t> block_row_ptr,
                             std::vector<GlobalBlockRow> block_cols,
                             std::vector<double> values)
    : global_size_(global_size),
      range_(range),
      block_range_{GlobalBlockRow{range.first.value() / kB},
                   GlobalBlockRow{range.second.value() / kB}},
      block_row_ptr_(std::move(block_row_ptr)),
      block_cols_(std::move(block_cols)),
      values_(std::move(values)) {
  NEURO_REQUIRE(global_size_ % kB == 0,
                "DistBsrMatrix: global size not divisible by block size");
  NEURO_REQUIRE(range_.first.value() % kB == 0 && range_.second.value() % kB == 0,
                "DistBsrMatrix: row range not block-aligned");
  NEURO_REQUIRE(range_.first >= GlobalRow{0} && range_.second >= range_.first &&
                    range_.second <= GlobalRow{global_size_},
                "DistBsrMatrix: bad row range");
  NEURO_REQUIRE(static_cast<int>(block_row_ptr_.size()) == local_block_rows() + 1,
                "DistBsrMatrix: block_row_ptr size mismatch");
  NEURO_REQUIRE(values_.size() == block_cols_.size() * 9U,
                "DistBsrMatrix: cols/values size mismatch");
  NEURO_REQUIRE(block_row_ptr_.raw().front() == 0 &&
                    block_row_ptr_.raw().back() ==
                        static_cast<std::int32_t>(block_cols_.size()),
                "DistBsrMatrix: block_row_ptr bounds inconsistent");
  interior_rows_.reserve(static_cast<std::size_t>(local_block_rows()));
  for (LocalBlockRow br{0}; br < LocalBlockRow{local_block_rows()}; ++br) {
    interior_rows_.push_back(br);
  }
}

DistBsrMatrix DistBsrMatrix::from_csr(const DistCsrMatrix& csr) {
  const RowRange range = csr.range();
  NEURO_REQUIRE(csr.global_size() % kB == 0 && range.first.value() % kB == 0 &&
                    range.second.value() % kB == 0,
                "from_csr: row range not block-aligned");
  const int nb = range.size() / kB;
  const auto& rp = csr.row_ptr();
  const auto& cols = csr.global_cols();
  const auto& vals = csr.values();

  std::vector<std::int32_t> brp(static_cast<std::size_t>(nb) + 1, 0);
  std::vector<GlobalBlockRow> bcols;
  std::vector<double> bvals;
  std::vector<GlobalBlockRow> row_blocks;
  for (int br = 0; br < nb; ++br) {
    // Union of the block columns referenced by the three scalar rows.
    row_blocks.clear();
    for (int sr = kB * br; sr < kB * (br + 1); ++sr) {
      for (int p = rp[static_cast<std::size_t>(sr)];
           p < rp[static_cast<std::size_t>(sr) + 1]; ++p) {
        row_blocks.push_back(GlobalBlockRow{cols[static_cast<std::size_t>(p)] / kB});
      }
    }
    std::sort(row_blocks.begin(), row_blocks.end());
    row_blocks.erase(std::unique(row_blocks.begin(), row_blocks.end()),
                     row_blocks.end());
    const std::size_t base_block = bcols.size();
    bcols.insert(bcols.end(), row_blocks.begin(), row_blocks.end());
    bvals.resize(bvals.size() + row_blocks.size() * 9U, 0.0);
    for (int ca = 0; ca < kB; ++ca) {
      const int sr = kB * br + ca;
      for (int p = rp[static_cast<std::size_t>(sr)];
           p < rp[static_cast<std::size_t>(sr) + 1]; ++p) {
        const int c = cols[static_cast<std::size_t>(p)];
        const GlobalBlockRow bc{c / kB};
        const auto it = std::lower_bound(row_blocks.begin(), row_blocks.end(), bc);
        const std::size_t pos =
            base_block + static_cast<std::size_t>(it - row_blocks.begin());
        bvals[pos * 9U + static_cast<std::size_t>(kB * ca + c % kB)] +=
            vals[static_cast<std::size_t>(p)];
      }
    }
    brp[static_cast<std::size_t>(br) + 1] = static_cast<std::int32_t>(bcols.size());
  }
  return DistBsrMatrix(csr.global_size(), range, std::move(brp), std::move(bcols),
                       std::move(bvals));
}

DistCsrMatrix DistBsrMatrix::to_csr() const {
  const int nb = local_block_rows();
  std::vector<int> rp(static_cast<std::size_t>(local_rows()) + 1, 0);
  std::vector<int> cols;
  std::vector<double> vals;
  for (int br = 0; br < nb; ++br) {
    const std::int32_t pb = block_row_ptr_[LocalBlockRow{br}];
    const std::int32_t pe = block_row_ptr_[LocalBlockRow{br + 1}];
    for (int ca = 0; ca < kB; ++ca) {
      const int grow = range_.first.value() + kB * br + ca;
      for (std::int32_t p = pb; p < pe; ++p) {
        const int cbase = kB * block_cols_[static_cast<std::size_t>(p)].value();
        for (int cb = 0; cb < kB; ++cb) {
          const double v =
              values_[static_cast<std::size_t>(p) * 9U +
                      static_cast<std::size_t>(kB * ca + cb)];
          // NEURO_NONDET_OK(structural-zero drop: exact 0.0 is a stored sentinel, not a computed value)
          if (v != 0.0 || cbase + cb == grow) {
            cols.push_back(cbase + cb);
            vals.push_back(v);
          }
        }
      }
      rp[static_cast<std::size_t>(kB * br + ca) + 1] = static_cast<int>(cols.size());
    }
  }
  return DistCsrMatrix(global_size_, range_, std::move(rp), std::move(cols),
                       std::move(vals));
}

void DistBsrMatrix::drop_zero_blocks() {
  NEURO_REQUIRE(!ghosts_ready_, "drop_zero_blocks after setup_ghosts");
  const int nb = local_block_rows();
  std::vector<std::int32_t> new_rp(static_cast<std::size_t>(nb) + 1, 0);
  std::vector<GlobalBlockRow> new_cols;
  std::vector<double> new_vals;
  new_cols.reserve(block_cols_.size());
  new_vals.reserve(values_.size());
  for (int br = 0; br < nb; ++br) {
    const GlobalBlockRow diag = block_range_.first + br;
    for (std::int32_t p = block_row_ptr_[LocalBlockRow{br}];
         p < block_row_ptr_[LocalBlockRow{br + 1}]; ++p) {
      const double* a = &values_[static_cast<std::size_t>(p) * 9U];
      bool keep = block_cols_[static_cast<std::size_t>(p)] == diag;
      // NEURO_NONDET_OK(structural-zero drop: exact 0.0 is a stored sentinel, not a computed value)
      for (int k = 0; k < 9 && !keep; ++k) keep = a[k] != 0.0;
      if (keep) {
        new_cols.push_back(block_cols_[static_cast<std::size_t>(p)]);
        new_vals.insert(new_vals.end(), a, a + 9);
      }
    }
    new_rp[static_cast<std::size_t>(br) + 1] = static_cast<std::int32_t>(new_cols.size());
  }
  block_row_ptr_ = base::IdVector<LocalBlockRow, std::int32_t>(std::move(new_rp));
  block_cols_ = std::move(new_cols);
  values_ = std::move(new_vals);
}

void DistBsrMatrix::setup_ghosts(par::Communicator& comm) {
  NEURO_REQUIRE(!ghosts_ready_, "setup_ghosts called twice");
  const int nb = local_block_rows();

  // Referenced off-range (ghost) block columns, sorted & unique.
  std::vector<GlobalBlockRow> ghosts;
  for (const GlobalBlockRow c : block_cols_) {
    if (!block_range_.contains(c)) ghosts.push_back(c);
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  ghost_blocks_ = ghosts;

  // Remap block columns to local slots: owned → [0, nb), ghost → nb + slot.
  local_block_cols_.resize(block_cols_.size());
  for (std::size_t i = 0; i < block_cols_.size(); ++i) {
    const GlobalBlockRow c = block_cols_[i];
    if (block_range_.contains(c)) {
      local_block_cols_[i] = LocalBlockRow{block_range_.offset_of(c)};
    } else {
      const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), c);
      NEURO_REQUIRE(it != ghosts.end() && *it == c,
                    "setup_ghosts: ghost block missing from slot table");
      local_block_cols_[i] = LocalBlockRow{nb + static_cast<int>(it - ghosts.begin())};
    }
  }

  // Everyone learns everyone's block ranges and ghost needs.
  std::array<std::int32_t, 2> my_range{block_range_.first.value(),
                                       block_range_.second.value()};
  auto ranges = comm.allgather_parts(
      std::span<const std::int32_t>(my_range.data(), 2));
  auto needs = comm.allgather_parts(
      std::span<const GlobalBlockRow>(ghosts.data(), ghosts.size()));

  const Rank me = comm.rank_id();
  // Receives: my ghosts grouped by owning rank (sorted ghosts + ordered
  // contiguous ranges ⇒ contiguous runs).
  {
    std::size_t pos = 0;
    for (Rank r{0}; r < Rank{comm.size()}; ++r) {
      if (r == me) continue;
      const BlockRowRange owned{GlobalBlockRow{ranges[r.index()][0]},
                                GlobalBlockRow{ranges[r.index()][1]}};
      const int offset = static_cast<int>(pos);
      int count = 0;
      while (pos < ghosts.size() && owned.contains(ghosts[pos])) {
        ++pos;
        ++count;
      }
      if (count > 0) recvs_.push_back({r, offset, count});
    }
    NEURO_REQUIRE(pos == ghosts.size(),
                  "setup_ghosts: ghost block not owned by any rank");
  }
  // Sends: blocks of mine that other ranks listed as ghosts.
  for (Rank r{0}; r < Rank{comm.size()}; ++r) {
    if (r == me) continue;
    Exchange ex;
    ex.rank = r;
    for (const GlobalBlockRow g : needs[r.index()]) {
      if (block_range_.contains(g)) {
        ex.local_indices.push_back(LocalBlockRow{block_range_.offset_of(g)});
      }
    }
    if (!ex.local_indices.empty()) sends_.push_back(std::move(ex));
  }

  // Interior rows reference only owned block columns; everything else is a
  // boundary row and must wait for the halo.
  interior_rows_.clear();
  boundary_rows_.clear();
  for (LocalBlockRow br{0}; br < LocalBlockRow{nb}; ++br) {
    bool boundary = false;
    for (std::int32_t p = block_row_ptr_[br]; p < block_row_ptr_[br + 1]; ++p) {
      if (local_block_cols_[static_cast<std::size_t>(p)].value() >= nb) {
        boundary = true;
        break;
      }
    }
    (boundary ? boundary_rows_ : interior_rows_).push_back(br);
  }

  ghosts_ready_ = true;
}

void DistBsrMatrix::compute_rows(const std::vector<LocalBlockRow>& rows,
                                 const double* xg, DistVector& y) const {
  if (ghosts_ready_) {
    bsr_rows_kernel(values_, block_row_ptr_, local_block_cols_, rows, xg, y.local());
  } else {
    bsr_rows_kernel(values_, block_row_ptr_, block_cols_, rows, xg, y.local());
  }
}

std::vector<par::Communicator::PendingRecv> DistBsrMatrix::begin_halo_exchange(
    const DistVector& x, par::Communicator& comm) const {
  std::vector<par::Communicator::PendingRecv> pending;
  pending.reserve(recvs_.size());
  for (const auto& rc : recvs_) pending.push_back(comm.irecv(rc.rank, kHaloTag));
  std::vector<double> payload;
  for (const auto& ex : sends_) {
    payload.resize(ex.local_indices.size() * 3U);
    for (std::size_t i = 0; i < ex.local_indices.size(); ++i) {
      const std::size_t src = ex.local_indices[i].index() * 3U;
      payload[3 * i + 0] = x.local()[src + 0];
      payload[3 * i + 1] = x.local()[src + 1];
      payload[3 * i + 2] = x.local()[src + 2];
    }
    comm.isend(ex.rank, kHaloTag,
               std::span<const double>(payload.data(), payload.size()));
  }
  return pending;
}

void DistBsrMatrix::finish_halo_exchange(
    std::vector<par::Communicator::PendingRecv>& pending, double* xg,
    par::Communicator& comm) const {
  const std::size_t nb = static_cast<std::size_t>(local_block_rows());
  for (std::size_t i = 0; i < recvs_.size(); ++i) {
    const auto& rc = recvs_[i];
    auto data = comm.wait<double>(pending[i]);
    NEURO_REQUIRE(static_cast<int>(data.size()) == 3 * rc.count,
                  "DistBsrMatrix: ghost payload size mismatch");
    std::copy(data.begin(), data.end(),
              xg + (nb + static_cast<std::size_t>(rc.ghost_offset)) * 3U);
  }
}

void DistBsrMatrix::apply(const DistVector& x, DistVector& y,
                          par::Communicator& comm) const {
  NEURO_REQUIRE(ghosts_ready_ || comm.size() == 1,
                "DistBsrMatrix::apply before setup_ghosts");
  NEURO_REQUIRE(x.range() == range_ && y.range() == range_,
                "DistBsrMatrix::apply: vector layout mismatch");
  const std::size_t nb = static_cast<std::size_t>(local_block_rows());

  std::vector<double> xg((nb + ghost_blocks_.size()) * 3U);
  std::copy(x.local().begin(), x.local().end(), xg.begin());

  // VecScatterBegin, then the interior rows (no ghosts) while the messages
  // are in flight; VecScatterEnd, then the boundary rows.
  auto pending = begin_halo_exchange(x, comm);
  compute_rows(interior_rows_, xg.data(), y);
  finish_halo_exchange(pending, xg.data(), comm);
  compute_rows(boundary_rows_, xg.data(), y);

  const double nblocks = static_cast<double>(block_cols_.size());
  comm.work().add_flops(18.0 * nblocks);
  comm.work().add_mem_bytes(76.0 * nblocks + 16.0 * static_cast<double>(local_rows()));
}

double DistBsrMatrix::value_at(GlobalRow global_row, GlobalRow global_col) const {
  NEURO_REQUIRE(range_.contains(global_row), "value_at: row not owned");
  const GlobalBlockRow bcol{global_col.value() / kB};
  const LocalBlockRow br{block_range_.offset_of(GlobalBlockRow{global_row.value() / kB})};
  // Block columns are sorted per row (the node adjacency is sorted and both
  // from_csr and drop_zero_blocks preserve order): binary search, not scan.
  const auto begin = block_cols_.begin() + block_row_ptr_[br];
  const auto end = block_cols_.begin() + block_row_ptr_[br + 1];
  const auto it = std::lower_bound(begin, end, bcol);
  if (it != end && *it == bcol) {
    return values_[static_cast<std::size_t>(it - block_cols_.begin()) * 9U +
                   static_cast<std::size_t>(kB * (global_row.value() % kB) +
                                            global_col.value() % kB)];
  }
  return 0.0;
}

double* DistBsrMatrix::find_entry(GlobalRow global_row, GlobalRow global_col) {
  NEURO_REQUIRE(range_.contains(global_row), "find_entry: row not owned");
  const GlobalBlockRow brow{global_row.value() / kB};
  const GlobalBlockRow bcol{global_col.value() / kB};
  const LocalBlockRow br{block_range_.offset_of(brow)};
  const auto begin = block_cols_.begin() + block_row_ptr_[br];
  const auto end = block_cols_.begin() + block_row_ptr_[br + 1];
  const auto it = std::lower_bound(begin, end, bcol);
  if (it != end && *it == bcol) {
    return &values_[static_cast<std::size_t>(it - block_cols_.begin()) * 9U +
                    static_cast<std::size_t>(kB * (global_row.value() % kB) +
                                             global_col.value() % kB)];
  }
  return nullptr;
}

void DistBsrMatrix::extract_diagonal_block(std::vector<int>& row_ptr,
                                           std::vector<int>& cols,
                                           std::vector<double>& values) const {
  const int nb = local_block_rows();
  row_ptr.assign(static_cast<std::size_t>(local_rows()) + 1, 0);
  cols.clear();
  values.clear();
  for (int br = 0; br < nb; ++br) {
    const std::int32_t pb = block_row_ptr_[LocalBlockRow{br}];
    const std::int32_t pe = block_row_ptr_[LocalBlockRow{br + 1}];
    for (int ca = 0; ca < kB; ++ca) {
      const int grow = range_.first.value() + kB * br + ca;
      for (std::int32_t p = pb; p < pe; ++p) {
        const GlobalBlockRow gbc = block_cols_[static_cast<std::size_t>(p)];
        if (!block_range_.contains(gbc)) continue;
        const int cbase = kB * gbc.value();
        for (int cb = 0; cb < kB; ++cb) {
          const double v = values_[static_cast<std::size_t>(p) * 9U +
                                   static_cast<std::size_t>(kB * ca + cb)];
          // Keep the entry set the reference path keeps: nonzeros plus the
          // scalar diagonal (DistCsrMatrix::drop_zeros semantics), so the
          // local preconditioners factor the identical matrix.
          // NEURO_NONDET_OK(structural-zero drop: exact 0.0 is a stored sentinel, not a computed value)
          if (v != 0.0 || cbase + cb == grow) {
            cols.push_back(range_.offset_of(GlobalRow{cbase + cb}));
            values.push_back(v);
          }
        }
      }
      row_ptr[static_cast<std::size_t>(kB * br + ca) + 1] = static_cast<int>(cols.size());
    }
  }
}

}  // namespace neuro::solver
