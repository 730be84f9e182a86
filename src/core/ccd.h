// Cyclic coordinate descent refinement (Algorithm 4, SVDCCD) and its
// block-parallel version (Algorithm 8, PSVDCCD). Each iteration fixes Y and
// sweeps the rows of Xf / Xb (updating residual rows Sf[vi], Sb[vi] in O(d),
// Equations 13-14 / 16 / 18-19), then fixes Xf / Xb and sweeps the rows of Y
// (updating residual columns in O(n), Equations 15 / 17 / 20).
//
// The residuals live in FactorSlabs (the former F' / B' slabs, which init
// overwrote in place). Phase 1 streams row blocks (zero-copy
// under either backing, pages released as blocks finish when spilled).
// Phase 2 needs residual columns, which are hostile to a row-major slab, so
// it copies a strip of columns into contiguous strip buffers, updates every
// attribute row of the strip against them, and copies the strip back. One
// sequential scan over the rows does both copies between two strips: each
// row writes strip s back, then loads strip s + 1 into the same buffer
// slots. The strip width is the caller's (Pane::Train takes it from its
// memory plan, PlanMemory in src/core/pane.h), and since the copies are
// pure copying the results are bitwise identical for every strip width,
// backing, and thread count.
//
// Both phases run rows in groups over the coordinates whose denominator is
// not skipped: 4 node rows (8 residual rows, sf and sb) in phase 1, 8 strip
// columns in phase 2. A group starts with one MatrixKernels::dot_rows for
// its first coordinate; each coordinate l then takes one fused
// axpy_dot_rows, which applies l's residual update to every row of the
// group and, in the same pass, computes the dots for the next coordinate.
// Rows in a phase never depend on each other, and each row still sees its
// coordinates in ascending order, so grouping only interleaves independent
// work. The kernels give every row dot's own partial sums and axpy's own
// multiply-then-add, so each residual, factor entry and denominator is
// bitwise what one Dot and one Axpy per row and coordinate would produce:
// no artifact byte depends on the group sizes.
#pragma once

#include <cstdint>

#include "src/common/status.h"
#include "src/core/greedy_init.h"

namespace pane {

class ThreadPool;

/// \brief How one CcdRefine call sized its streaming state and where its
/// time went. The three times are wall seconds summed over iterations, each
/// read once per phase (per strip in phase 2), never per row; transposes,
/// denominators and the objective trace fall outside them.
struct CcdStats {
  int64_t strip_width = 0;    ///< residual columns copied per strip
  int64_t scratch_bytes = 0;  ///< the two strip buffers: 2 x 8 x n x strip
  double node_sweep_seconds = 0.0;       ///< phase 1: Xf / Xb row updates
  double attribute_sweep_seconds = 0.0;  ///< phase 2: Y row updates
  double strip_copy_seconds = 0.0;       ///< phase 2 strip copies
};

struct CcdOptions {
  /// Number of full CCD sweeps (the t of Algorithm 1 by default).
  int iterations = 5;
  /// Worker pool: node-row blocks in phase 1; in phase 2 the pool
  /// row-parallelizes the strip copy scans and splits the strip's
  /// attribute rows across workers (Algorithm 8). nullptr => serial
  /// Algorithm 4.
  ThreadPool* pool = nullptr;
  /// Residual columns per phase-2 strip; 0 => one strip of every column.
  /// Affects residency and locality only — never the arithmetic.
  int64_t strip_width = 0;
  /// Optional per-iteration objective trace (appended; Figures 7-8).
  std::vector<double>* objective_trace = nullptr;
  /// Optional streaming diagnostics.
  CcdStats* stats = nullptr;
};

/// \brief Refines `state` in place. The residuals sf / sb are maintained
/// incrementally and remain consistent with (xf, xb, y) on return.
Status CcdRefine(EmbeddingState* state, const CcdOptions& options);

}  // namespace pane
