// Explicitly vectorized 3x3 block micro-kernels.
//
// This directory is the only place in the tree allowed to touch raw SIMD
// intrinsics (tools/lint/check_sources.py, "intrinsics confinement"); every
// other layer programs against these kernels plus the DispatchTarget knob.
// Each kernel family ships a scalar fallback whose association order is fixed
// and annotated NEURO_BITEXACT — the vector variants reorder the per-row
// reductions (lane-parallel accumulators, transposed storage) and are
// tolerance-equivalent, never bit-equivalent, to the scalar reference
// (docs/perf.md, "SIMD dispatch").
//
// Storage layout: transposed 3x3 blocks, 9 doubles per block with
// A(r, c) = a[3c + r] — columns contiguous so a vector fmadd consumes a whole
// column per broadcast lane. The scalar fallbacks read the same layout.
//
// Padding contract for the vector kernels: the values array must extend at
// least 4 doubles past the last block and xg at least 1 double past its last
// entry (4-lane loads overhang a 9-double block / 3-double x panel; the
// overhanging lane is multiplied by zero or discarded, never stored).
#pragma once

#include <cstdint>

#include "solver/simd/dispatch.h"

namespace neuro::solver::simd {

/// Symmetric-upper compressed apply over transposed storage. Per block row n
/// the stored blocks are the diagonal (n, n) first — cols[row_ptr[n]] must
/// equal n — then blocks (n, m) with m > n. For each off-diagonal block the
/// kernel adds both y_n += A x_m and y_m += A^T x_n, so only the upper half
/// of a structurally symmetric matrix is streamed (~46% less block traffic
/// at the smoke mesh's ~12 blocks/row). Accumulates into y; caller zeroes.
void block3_sym_apply(DispatchTarget target, const double* valuesT,
                      const std::int32_t* row_ptr, const std::int32_t* cols,
                      int nrows, const double* xg, double* y);

/// Broadcast accumulate kernel over transposed storage:
/// y[3r..3r+2] += sum_p A_p x(cols[p]). Used for the ghost-column and
/// pattern-unpaired blocks the symmetric pass cannot mirror.
void block3_accum_apply(DispatchTarget target, const double* valuesT,
                        const std::int32_t* row_ptr, const std::int32_t* cols,
                        int nrows, const double* xg, double* y);

}  // namespace neuro::solver::simd
