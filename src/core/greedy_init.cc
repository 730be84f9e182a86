#include "src/core/greedy_init.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/matrix/gemm.h"
#include "src/matrix/matrix_kernels.h"
#include "src/matrix/rand_svd.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

Status ValidateInit(const AffinitySlabs& affinity, const InitOptions& options) {
  if (options.k < 2 || options.k % 2 != 0) {
    return Status::InvalidArgument("space budget k must be even and >= 2");
  }
  if (affinity.forward.rows() != affinity.backward.rows() ||
      affinity.forward.cols() != affinity.backward.cols()) {
    return Status::InvalidArgument("F' and B' shapes differ");
  }
  if (options.max_inflight_blocks < 0) {
    return Status::InvalidArgument("max_inflight_blocks must be >= 0");
  }
  return Status::OK();
}

// Rows [begin, end) of out = F * y through Gemm's i-k-j skip-zero kernel,
// streaming F from the slab — identical arithmetic wherever the slab keeps
// the bytes.
void ProjectRows(const FactorSlab& f, const DenseMatrix& y, DenseMatrix* out,
                 int64_t begin, int64_t end) {
  const auto gemm_rows = GetMatrixKernels().gemm_rows;
  StreamRows({&f}, begin, end, /*dirty=*/false,
             [&](int64_t chunk, int64_t chunk_end) {
               gemm_rows(f.Row(chunk), y.data(), out->Row(chunk),
                         chunk_end - chunk, f.cols(), y.cols());
             });
}

// Rows [begin, end) of f <- x y^T - f in place, bitwise GemmTransB(x, y)
// followed by Sub(f), with f streamed through its slab. Each row's d dots
// come from one dot_rows call (the d rows of y against the row of x,
// bitwise Dot(x_row, y.Row(j), h)) before the row is overwritten.
void ResidualRows(const DenseMatrix& x, const DenseMatrix& y, FactorSlab* f,
                  int64_t begin, int64_t end) {
  const auto dot_rows = GetMatrixKernels().dot_rows;
  const int64_t h = x.cols();
  const int64_t d = f->cols();
  std::vector<const double*> y_rows(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) y_rows[static_cast<size_t>(j)] = y.Row(j);
  std::vector<double> dots(static_cast<size_t>(d));
  StreamRows({f}, begin, end, /*dirty=*/true,
             [&](int64_t chunk, int64_t chunk_end) {
               for (int64_t i = chunk; i < chunk_end; ++i) {
                 double* f_row = f->Row(i);
                 dot_rows(y_rows.data(), d, x.Row(i), h, dots.data());
                 for (int64_t j = 0; j < d; ++j) {
                   f_row[j] = dots[static_cast<size_t>(j)] - f_row[j];
                 }
               }
             });
}

// m <- m diag(sigma): column j of m scaled by sigma[j] (U Sigma, Phi Sigma).
void ScaleColumns(const std::vector<double>& sigma, DenseMatrix* m) {
  for (int64_t i = 0; i < m->rows(); ++i) {
    double* row = m->Row(i);
    for (int64_t j = 0; j < m->cols(); ++j) {
      row[j] *= sigma[static_cast<size_t>(j)];
    }
  }
}

// Every row of f <- x y^T - f, row-parallel on `pool`.
void BuildResiduals(const DenseMatrix& x, const DenseMatrix& y, FactorSlab* f,
                    ThreadPool* pool) {
  ParallelFor(pool, 0, f->rows(), [&](int64_t begin, int64_t end) {
    ResidualRows(x, y, f, begin, end);
  });
}

// Algorithm 3 (GreedyInit).
Result<EmbeddingState> SerialGreedyInit(AffinitySlabs affinity,
                                        const InitOptions& options) {
  const int h = options.k / 2;
  const int64_t n = affinity.forward.rows();

  // Line 1: U, Sigma, V <- RandSVD(F', k/2, t), streamed from the slab.
  RandSvdOptions svd_options;
  svd_options.power_iters = options.t;
  svd_options.seed = options.seed;
  DenseMatrix u;
  std::vector<double> sigma;
  DenseMatrix v;
  PANE_RETURN_NOT_OK(
      RandSvd(affinity.forward.View(), h, svd_options, &u, &sigma, &v));

  // Line 2: Y <- V, Xf <- U Sigma, Xb <- B' Y.
  EmbeddingState state;
  state.y = std::move(v);
  state.xf = std::move(u);
  ScaleColumns(sigma, &state.xf);
  state.xb.Resize(n, h);
  ProjectRows(affinity.backward, state.y, &state.xb, 0, n);

  // Line 3: Sf <- Xf Y^T - F', Sb <- Xb Y^T - B', in place.
  ResidualRows(state.xf, state.y, &affinity.forward, 0, n);
  ResidualRows(state.xb, state.y, &affinity.backward, 0, n);
  state.sf = std::move(affinity.forward);
  state.sb = std::move(affinity.backward);
  return state;
}

// Algorithm 7 (SMGreedyInit) over one F' row block per pool worker.
Result<EmbeddingState> SplitMergeGreedyInit(AffinitySlabs affinity,
                                            const InitOptions& options) {
  ThreadPool* pool = options.pool;
  const int nb = pool->num_threads();
  const int h = options.k / 2;
  const int64_t n = affinity.forward.rows();
  const int64_t d = affinity.forward.cols();
  const std::vector<Range> node_blocks = PartitionRange(n, nb);

  // Lines 1-3: per block, Phi, Sigma, Vi <- RandSVD(F'[Vi]) over a
  // zero-copy row view of the slab, and Ui = Phi Sigma. At most
  // max_inflight_blocks blocks run at once, so a spilled F' never has more
  // blocks' pages in flight.
  std::vector<DenseMatrix> u_blocks(static_cast<size_t>(nb));
  std::vector<DenseMatrix> v_blocks(static_cast<size_t>(nb));
  std::vector<Status> block_status(static_cast<size_t>(nb));
  const int wave =
      options.max_inflight_blocks > 0
          ? static_cast<int>(std::min<int64_t>(options.max_inflight_blocks, nb))
          : nb;
  for (int first = 0; first < nb; first += wave) {
    pool->RunBlocks(std::min(wave, nb - first), [&](int i) {
      const int b = first + i;
      const Range& blk = node_blocks[static_cast<size_t>(b)];
      if (blk.size() == 0) return;
      RandSvdOptions svd_options;
      svd_options.power_iters = options.t;
      svd_options.seed = options.seed + static_cast<uint64_t>(b) + 1;
      std::vector<double> sigma;
      DenseMatrix& ui = u_blocks[static_cast<size_t>(b)];
      Status& status = block_status[static_cast<size_t>(b)];
      status = RandSvd(affinity.forward.ViewRows(blk.begin, blk.end), h,
                       svd_options, &ui, &sigma,
                       &v_blocks[static_cast<size_t>(b)]);
      if (!status.ok()) return;
      ScaleColumns(sigma, &ui);
      // The block's F' pages are not read again until its residual rows:
      // drop them before the next wave maps its own.
      affinity.forward.DropRows(blk.begin, blk.end, /*dirty=*/false);
    });
  }
  for (const Status& status : block_status) PANE_RETURN_NOT_OK(status);

  // Line 4: V <- [V1 ... Vnb]^T, the (nb k/2) x d stack of the right
  // factors (an empty block leaves its rows zero). It is allocated after
  // the waves, not before: on glibc the earlier allocation changed the heap
  // layout enough to raise a spilled run's peak RSS (in CCD) by ~2 MiB.
  DenseMatrix v_stack(static_cast<int64_t>(nb) * h, d);
  for (int b = 0; b < nb; ++b) {
    v_stack.SetBlock(static_cast<int64_t>(b) * h, 0,
                     v_blocks[static_cast<size_t>(b)].Transposed());
  }

  // Lines 5-6: RandSVD of the stack; W = Phi Sigma, Y = right factor.
  EmbeddingState state;
  DenseMatrix w;
  {
    RandSvdOptions svd_options;
    svd_options.power_iters = options.t;
    svd_options.seed = options.seed;
    std::vector<double> sigma;
    PANE_RETURN_NOT_OK(RandSvd(v_stack, h, svd_options, &w, &sigma, &state.y));
    ScaleColumns(sigma, &w);
  }

  // Lines 7-11: assemble per block: Xf[Vi] = Ui W[(i-1)k/2 : i k/2],
  // Xb[Vi] = B'[Vi] Y, then the block's residual rows overwrite its F' / B'
  // rows, whose last reads (the block SVD, the Xb projection) are done.
  state.xf.Resize(n, h);
  state.xb.Resize(n, h);
  pool->RunBlocks(nb, [&](int b) {
    const Range& blk = node_blocks[static_cast<size_t>(b)];
    if (blk.size() == 0) return;
    const DenseMatrix w_block = w.RowBlock(static_cast<int64_t>(b) * h,
                                           static_cast<int64_t>(b + 1) * h);
    DenseMatrix xf_block;
    Gemm(u_blocks[static_cast<size_t>(b)], w_block, &xf_block);
    state.xf.SetBlock(blk.begin, 0, xf_block);
    ProjectRows(affinity.backward, state.y, &state.xb, blk.begin, blk.end);
    ResidualRows(state.xf, state.y, &affinity.forward, blk.begin, blk.end);
    ResidualRows(state.xb, state.y, &affinity.backward, blk.begin, blk.end);
  });
  state.sf = std::move(affinity.forward);
  state.sb = std::move(affinity.backward);
  return state;
}

}  // namespace

Result<EmbeddingState> GreedyInit(AffinitySlabs affinity,
                                  const InitOptions& options) {
  PANE_RETURN_NOT_OK(ValidateInit(affinity, options));
  if (options.pool == nullptr || options.pool->num_threads() == 1) {
    return SerialGreedyInit(std::move(affinity), options);
  }
  return SplitMergeGreedyInit(std::move(affinity), options);
}

Result<EmbeddingState> RandomInit(AffinitySlabs affinity,
                                  const InitOptions& options) {
  PANE_RETURN_NOT_OK(ValidateInit(affinity, options));
  const int h = options.k / 2;
  const int64_t n = affinity.forward.rows();
  const int64_t d = affinity.forward.cols();
  Rng rng(options.seed);
  EmbeddingState state;
  state.xf.Resize(n, h);
  state.xb.Resize(n, h);
  state.y.Resize(d, h);
  const double scale = 1.0 / std::sqrt(static_cast<double>(h));
  state.xf.FillGaussian(&rng, 0.0, scale);
  state.xb.FillGaussian(&rng, 0.0, scale);
  state.y.FillGaussian(&rng, 0.0, scale);
  BuildResiduals(state.xf, state.y, &affinity.forward, options.pool);
  BuildResiduals(state.xb, state.y, &affinity.backward, options.pool);
  state.sf = std::move(affinity.forward);
  state.sb = std::move(affinity.backward);
  return state;
}

Status ValidateWarmStart(const PaneEmbedding& previous, int64_t n, int64_t d,
                         int k) {
  const int64_t h = k / 2;
  const int64_t n_prev = previous.xf.rows();
  const auto shape = [](const DenseMatrix& m) {
    return std::to_string(m.rows()) + " x " + std::to_string(m.cols());
  };
  if (previous.y.rows() != d || previous.y.cols() != h) {
    return Status::InvalidArgument(
        "warm start y is " + shape(previous.y) + "; it must be " +
        std::to_string(d) + " x " + std::to_string(h) +
        " (d x k/2: a warm start requires a fixed attribute set)");
  }
  if (n_prev == 0 || n_prev > n || previous.xf.cols() != h) {
    return Status::InvalidArgument(
        "warm start xf is " + shape(previous.xf) + "; it must be n_prev x " +
        std::to_string(h) + " (k/2) with 0 < n_prev <= " + std::to_string(n) +
        " nodes (compact/remap ids before a warm start on a shrunk graph)");
  }
  if (previous.xb.rows() != n_prev || previous.xb.cols() != h) {
    return Status::InvalidArgument("warm start xb is " + shape(previous.xb) +
                                   "; it must match xf: " +
                                   std::to_string(n_prev) + " x " +
                                   std::to_string(h));
  }
  return Status::OK();
}

Result<EmbeddingState> WarmInit(AffinitySlabs affinity,
                                const PaneEmbedding& previous,
                                const InitOptions& options) {
  PANE_RETURN_NOT_OK(ValidateInit(affinity, options));
  const int64_t n = affinity.forward.rows();
  const int64_t d = affinity.forward.cols();
  PANE_RETURN_NOT_OK(ValidateWarmStart(previous, n, d, options.k));
  const int64_t n_prev = previous.xf.rows();
  const int h = options.k / 2;
  EmbeddingState state;
  state.y = previous.y;
  state.xf.Resize(n, h);
  state.xb.Resize(n, h);
  state.xf.SetBlock(0, 0, previous.xf);
  state.xb.SetBlock(0, 0, previous.xb);
  ParallelFor(options.pool, n_prev, n, [&](int64_t begin, int64_t end) {
    ProjectRows(affinity.forward, state.y, &state.xf, begin, end);
    ProjectRows(affinity.backward, state.y, &state.xb, begin, end);
  });
  BuildResiduals(state.xf, state.y, &affinity.forward, options.pool);
  BuildResiduals(state.xb, state.y, &affinity.backward, options.pool);
  state.sf = std::move(affinity.forward);
  state.sb = std::move(affinity.backward);
  return state;
}

double Objective(const EmbeddingState& state) {
  const double sf_norm = state.sf.FrobeniusNorm();
  const double sb_norm = state.sb.FrobeniusNorm();
  return sf_norm * sf_norm + sb_norm * sb_norm;
}

}  // namespace pane
