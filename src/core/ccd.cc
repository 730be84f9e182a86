#include "src/core/ccd.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/matrix/matrix_kernels.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// Coordinate directions whose denominator underflows are skipped: they can
// arise when k/2 exceeds the rank of the affinity matrices and a Y (or X)
// column is identically zero.
constexpr double kDenominatorFloor = 1e-300;

// Row groups: phase 1 runs 4 node rows at once, which hands the kernels 8
// residual rows (their sf and sb rows); phase 2 runs 8 strip columns at
// once, one kernel call for their sf columns and one for their sb columns.
constexpr int64_t kNodeGroup = 4;
constexpr int64_t kStripGroup = 8;

// The coordinates l whose denominator clears kDenominatorFloor, ascending.
std::vector<int64_t> ActiveCoordinates(const std::vector<double>& denoms) {
  std::vector<int64_t> active;
  for (size_t l = 0; l < denoms.size(); ++l) {
    if (denoms[l] >= kDenominatorFloor) {
      active.push_back(static_cast<int64_t>(l));
    }
  }
  return active;
}

// Phase 1 over node rows [begin, end): for each vi and active l, the
// updates of Equations (13), (14), (16), (18), (19). `yt` is Y^T (k/2 x d,
// rows contiguous) and `y_denoms[l] = Y[:,l] . Y[:,l]`, both fixed this
// phase. Residual rows are touched in place through the slab (zero-copy
// under either backing). A group's dots for its first coordinate come from
// dot_rows; each coordinate's Equation (18)/(19) updates are then fused
// with the dots for the next one.
void UpdateNodeRows(EmbeddingState* state, const DenseMatrix& yt,
                    const std::vector<double>& y_denoms,
                    const std::vector<int64_t>& active, int64_t begin,
                    int64_t end) {
  if (active.empty()) return;
  const MatrixKernels& kernels = GetMatrixKernels();
  const int64_t d = state->sf.cols();
  double* rows[2 * kNodeGroup];
  double dots[2 * kNodeGroup];
  double steps[2 * kNodeGroup];
  for (int64_t group = begin; group < end; group += kNodeGroup) {
    const int64_t m = std::min(kNodeGroup, end - group);
    for (int64_t j = 0; j < m; ++j) {
      rows[j] = state->sf.Row(group + j);
      rows[m + j] = state->sb.Row(group + j);
    }
    kernels.dot_rows(rows, 2 * m, yt.Row(active[0]), d, dots);
    for (size_t t = 0; t < active.size(); ++t) {
      const int64_t l = active[t];
      const double denom = y_denoms[static_cast<size_t>(l)];
      for (int64_t j = 0; j < m; ++j) {
        const double mu_f = dots[j] / denom;      // Equation (16)
        const double mu_b = dots[m + j] / denom;
        state->xf.Row(group + j)[l] -= mu_f;      // Equation (13)
        state->xb.Row(group + j)[l] -= mu_b;      // Equation (14)
        steps[j] = -mu_f;
        steps[m + j] = -mu_b;
      }
      const double* next =
          t + 1 < active.size() ? yt.Row(active[t + 1]) : nullptr;
      kernels.axpy_dot_rows(rows, 2 * m, steps, yt.Row(l), next, d,
                            dots);                // Equations (18), (19)
    }
  }
}

// Phase 2 updates for the strip's attribute rows [strip_begin, strip_end)
// (local indices into the gathered buffers): Equations (15), (17), (20)
// for each active l. `xft` / `xbt` are Xf^T / Xb^T (k/2 x n) and
// `x_denoms[l] = Xf[:,l].Xf[:,l] + Xb[:,l].Xb[:,l]`, fixed this phase. Each
// gathered column is a contiguous length-n buffer, exactly the scratch
// shape the unstreamed implementation staged per attribute row.
void UpdateStripAttributeRows(EmbeddingState* state, const DenseMatrix& xft,
                              const DenseMatrix& xbt,
                              const std::vector<double>& x_denoms,
                              const std::vector<int64_t>& active,
                              int64_t col_begin, double* sf_strip,
                              double* sb_strip, int64_t strip_begin,
                              int64_t strip_end) {
  if (active.empty()) return;
  const MatrixKernels& kernels = GetMatrixKernels();
  const int64_t n = state->sf.rows();
  double* f_cols[kStripGroup];
  double* b_cols[kStripGroup];
  double f_dots[kStripGroup];
  double b_dots[kStripGroup];
  double steps[kStripGroup];
  for (int64_t group = strip_begin; group < strip_end; group += kStripGroup) {
    const int64_t m = std::min(kStripGroup, strip_end - group);
    for (int64_t j = 0; j < m; ++j) {
      f_cols[j] = sf_strip + (group + j) * n;
      b_cols[j] = sb_strip + (group + j) * n;
    }
    kernels.dot_rows(f_cols, m, xft.Row(active[0]), n, f_dots);
    kernels.dot_rows(b_cols, m, xbt.Row(active[0]), n, b_dots);
    for (size_t t = 0; t < active.size(); ++t) {
      const int64_t l = active[t];
      const double denom = x_denoms[static_cast<size_t>(l)];
      for (int64_t j = 0; j < m; ++j) {
        const double mu_y = (f_dots[j] + b_dots[j]) / denom;  // Eq. (17)
        state->y.Row(col_begin + group + j)[l] -= mu_y;       // Eq. (15)
        steps[j] = -mu_y;
      }
      const bool last = t + 1 == active.size();
      kernels.axpy_dot_rows(f_cols, m, steps, xft.Row(l),
                            last ? nullptr : xft.Row(active[t + 1]), n,
                            f_dots);                          // Eq. (20)
      kernels.axpy_dot_rows(b_cols, m, steps, xbt.Row(l),
                            last ? nullptr : xbt.Row(active[t + 1]), n,
                            b_dots);
    }
  }
}

std::vector<double> ColumnSquaredNorms(const DenseMatrix& transposed) {
  std::vector<double> out(static_cast<size_t>(transposed.rows()));
  for (int64_t l = 0; l < transposed.rows(); ++l) {
    out[static_cast<size_t>(l)] =
        SquaredNorm(transposed.Row(l), transposed.cols());
  }
  return out;
}

}  // namespace

Status CcdRefine(EmbeddingState* state, const CcdOptions& options) {
  if (state == nullptr) return Status::InvalidArgument("null state");
  const int64_t n = state->xf.rows();
  const int64_t d = state->y.rows();
  const int64_t h = state->xf.cols();
  if (state->xb.rows() != n || state->xb.cols() != h ||
      state->y.cols() != h || state->sf.rows() != n || state->sf.cols() != d ||
      state->sb.rows() != n || state->sb.cols() != d) {
    return Status::InvalidArgument("inconsistent embedding state shapes");
  }
  if (options.iterations < 0) {
    return Status::InvalidArgument("iterations must be >= 0");
  }
  if (options.strip_width < 0) {
    return Status::InvalidArgument("strip_width must be >= 0");
  }

  ThreadPool* pool = options.pool;
  const int nb = pool != nullptr ? pool->num_threads() : 1;
  const std::vector<Range> node_blocks = PartitionRange(n, nb);

  const int64_t strip = std::max<int64_t>(
      1, options.strip_width > 0 ? std::min(options.strip_width, d) : d);
  if (options.stats != nullptr) {
    options.stats->strip_width = strip;
    options.stats->scratch_bytes =
        2 * strip * n * static_cast<int64_t>(sizeof(double));
  }
  std::vector<double> sf_strip(static_cast<size_t>(strip * n));
  std::vector<double> sb_strip(static_cast<size_t>(strip * n));
  double node_sweep_seconds = 0.0;
  double attribute_sweep_seconds = 0.0;
  double strip_copy_seconds = 0.0;

  // Copies between residual rows [begin, end) and the strip buffers: each
  // row writes the `put_cols` buffered columns back from `put_begin`, then
  // loads `get_cols` columns from `get_begin`. A row's buffer slots belong
  // to that row alone, so each row stores its old strip before its new one
  // lands in the same slots.
  const auto copy_rows = [&](int64_t begin, int64_t end, int64_t put_begin,
                             int64_t put_cols, int64_t get_begin,
                             int64_t get_cols) {
    for (int64_t i = begin; i < end; ++i) {
      double* sf_row = state->sf.Row(i);
      double* sb_row = state->sb.Row(i);
      for (int64_t l = 0; l < put_cols; ++l) {
        sf_row[put_begin + l] = sf_strip[static_cast<size_t>(l * n + i)];
        sb_row[put_begin + l] = sb_strip[static_cast<size_t>(l * n + i)];
      }
      for (int64_t l = 0; l < get_cols; ++l) {
        sf_strip[static_cast<size_t>(l * n + i)] = sf_row[get_begin + l];
        sb_strip[static_cast<size_t>(l * n + i)] = sb_row[get_begin + l];
      }
    }
  };
  // One streamed row pass of copy_rows over every row.
  const auto copy_strips = [&](int64_t put_begin, int64_t put_cols,
                               int64_t get_begin, int64_t get_cols) {
    ScopedTimer timer(&strip_copy_seconds);
    ParallelFor(pool, 0, n, [&](int64_t begin, int64_t end) {
      StreamRows({&state->sf, &state->sb}, begin, end, put_cols > 0,
                 [&](int64_t chunk, int64_t chunk_end) {
                   copy_rows(chunk, chunk_end, put_begin, put_cols,
                             get_begin, get_cols);
                 });
    });
  };

  // The strip whose columns sit in the buffers, updated but not yet written
  // back: the last strip of an iteration stays there until the next node
  // sweep reaches its rows (or the final write-back below).
  int64_t pending_begin = 0;
  int64_t pending_cols = 0;
  const int64_t first_cols = std::min(strip, d);
  for (int iter = 0; iter < options.iterations; ++iter) {
    // ----- Phase 1 (Algorithm 4 lines 3-9 / Algorithm 8 lines 3-10): Y
    // fixed, sweep Xf / Xb rows. Each streamed chunk first takes back the
    // pending strip, then is updated, then loads the first strip of phase
    // 2, so these two copies ride on the sweep's own pass over the rows;
    // spilled residual rows are dropped as each chunk finishes so phase-1
    // residency stays at the chunk level.
    const DenseMatrix yt = state->y.Transposed();
    const std::vector<double> y_denoms = ColumnSquaredNorms(yt);
    const std::vector<int64_t> y_active = ActiveCoordinates(y_denoms);
    const auto phase1_rows = [&](int64_t begin, int64_t end) {
      StreamRows({&state->sf, &state->sb}, begin, end, /*dirty=*/true,
                 [&](int64_t chunk, int64_t chunk_end) {
                   copy_rows(chunk, chunk_end, pending_begin, pending_cols, 0,
                             0);
                   UpdateNodeRows(state, yt, y_denoms, y_active, chunk,
                                  chunk_end);
                   copy_rows(chunk, chunk_end, 0, 0, 0, first_cols);
                 });
    };
    {
      ScopedTimer timer(&node_sweep_seconds);
      if (nb == 1) {
        phase1_rows(0, n);
      } else {
        pool->RunBlocks(nb, [&](int b) {
          const Range& blk = node_blocks[static_cast<size_t>(b)];
          if (blk.size() > 0) phase1_rows(blk.begin, blk.end);
        });
      }
    }
    pending_cols = 0;

    // ----- Phase 2 (Algorithm 4 lines 10-14 / Algorithm 8 lines 11-16):
    // Xf / Xb fixed, sweep Y rows. Residual columns are updated a strip at
    // a time in the contiguous strip buffers; one sequential row scan
    // between two strips writes one back and loads the next
    // (slab-friendly).
    const DenseMatrix xft = state->xf.Transposed();
    const DenseMatrix xbt = state->xb.Transposed();
    std::vector<double> x_denoms = ColumnSquaredNorms(xft);
    {
      const std::vector<double> xb_denoms = ColumnSquaredNorms(xbt);
      for (size_t l = 0; l < x_denoms.size(); ++l) {
        x_denoms[l] += xb_denoms[l];
      }
    }
    const std::vector<int64_t> x_active = ActiveCoordinates(x_denoms);
    for (int64_t col_begin = 0; col_begin < d; col_begin += strip) {
      const int64_t col_end = std::min(col_begin + strip, d);
      const int64_t c = col_end - col_begin;
      {
        ScopedTimer timer(&attribute_sweep_seconds);
        const auto update = [&](int64_t begin, int64_t end) {
          UpdateStripAttributeRows(state, xft, xbt, x_denoms, x_active,
                                   col_begin, sf_strip.data(),
                                   sb_strip.data(), begin, end);
        };
        if (nb == 1) {
          update(0, c);
        } else {
          const std::vector<Range> strip_blocks = PartitionRange(c, nb);
          pool->RunBlocks(nb, [&](int b) {
            const Range& blk = strip_blocks[static_cast<size_t>(b)];
            if (blk.size() > 0) update(blk.begin, blk.end);
          });
        }
      }
      if (col_end < d) {
        copy_strips(col_begin, c, col_end, std::min(strip, d - col_end));
      } else {
        pending_begin = col_begin;
        pending_cols = c;
      }
    }

    if (options.objective_trace != nullptr) {
      copy_strips(pending_begin, pending_cols, 0, 0);
      pending_cols = 0;
      options.objective_trace->push_back(Objective(*state));
    }
  }
  if (pending_cols > 0) copy_strips(pending_begin, pending_cols, 0, 0);
  if (options.stats != nullptr) {
    options.stats->node_sweep_seconds = node_sweep_seconds;
    options.stats->attribute_sweep_seconds = attribute_sweep_seconds;
    options.stats->strip_copy_seconds = strip_copy_seconds;
  }
  return Status::OK();
}

}  // namespace pane
