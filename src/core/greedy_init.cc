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
// reading F from the slab — identical arithmetic wherever the slab keeps
// the bytes. Consumed slab rows are released as each chunk finishes.
void ProjectRows(const FactorSlab& f, const DenseMatrix& y, DenseMatrix* out,
                 int64_t begin, int64_t end) {
  const auto gemm_rows = GetMatrixKernels().gemm_rows;
  for (int64_t chunk = begin; chunk < end; chunk += kStreamChunkRows) {
    const int64_t chunk_end = std::min(chunk + kStreamChunkRows, end);
    gemm_rows(f.Row(chunk), y.data(), out->Row(chunk), chunk_end - chunk,
              f.cols(), y.cols());
    ReleaseRowsOrWarn(f, chunk, chunk_end, /*dirty=*/false);
  }
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
  for (int64_t chunk = begin; chunk < end; chunk += kStreamChunkRows) {
    const int64_t chunk_end = std::min(chunk + kStreamChunkRows, end);
    for (int64_t i = chunk; i < chunk_end; ++i) {
      double* f_row = f->Row(i);
      dot_rows(y_rows.data(), d, x.Row(i), h, dots.data());
      for (int64_t j = 0; j < d; ++j) {
        f_row[j] = dots[static_cast<size_t>(j)] - f_row[j];
      }
    }
    ReleaseRowsOrWarn(*f, chunk, chunk_end, /*dirty=*/true);
  }
}

// Every row of f <- x y^T - f, row-parallel on `pool`.
void BuildResiduals(const DenseMatrix& x, const DenseMatrix& y, FactorSlab* f,
                    ThreadPool* pool) {
  ParallelFor(pool, 0, f->rows(), [&](int64_t begin, int64_t end) {
    ResidualRows(x, y, f, begin, end);
  });
}

}  // namespace

Result<EmbeddingState> GreedyInit(AffinitySlabs affinity,
                                  const InitOptions& options) {
  PANE_RETURN_NOT_OK(ValidateInit(affinity, options));
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
  for (int64_t i = 0; i < state.xf.rows(); ++i) {
    double* row = state.xf.Row(i);
    for (int j = 0; j < h; ++j) row[j] *= sigma[static_cast<size_t>(j)];
  }
  state.xb.Resize(n, h);
  ProjectRows(affinity.backward, state.y, &state.xb, 0, n);

  // Line 3: Sf <- Xf Y^T - F', Sb <- Xb Y^T - B', in place.
  ResidualRows(state.xf, state.y, &affinity.forward, 0, n);
  ResidualRows(state.xb, state.y, &affinity.backward, 0, n);
  state.sf = std::move(affinity.forward);
  state.sb = std::move(affinity.backward);
  return state;
}

EngineAwareInit::EngineAwareInit(AffinitySlabs* affinity,
                                 const InitOptions& options)
    : affinity_(affinity), options_(options) {
  setup_status_ = affinity_ == nullptr
                      ? Status::InvalidArgument("null affinity slabs")
                      : ValidateInit(*affinity_, options_);
  if (!setup_status_.ok()) return;
  h_ = options_.k / 2;
  nb_ = (options_.pool != nullptr && options_.pool->num_threads() > 1)
            ? options_.pool->num_threads()
            : 1;
  if (nb_ == 1) return;  // serial: Finish delegates to GreedyInit
  u_blocks_.resize(static_cast<size_t>(nb_));
  v_blocks_.resize(static_cast<size_t>(nb_));
  block_status_.resize(static_cast<size_t>(nb_));
}

EngineAwareInit::~EngineAwareInit() {
  if (helper_.joinable()) helper_.join();
}

void EngineAwareInit::RunBlock(int b) {
  const int64_t n = affinity_->forward.rows();
  const int64_t d = affinity_->forward.cols();
  const std::vector<Range> node_blocks = PartitionRange(n, nb_);
  const Range& blk = node_blocks[static_cast<size_t>(b)];
  if (blk.size() == 0) {
    u_blocks_[static_cast<size_t>(b)].Resize(0, h_);
    v_blocks_[static_cast<size_t>(b)].Resize(d, h_);
    return;
  }
  // Lines 1-3 of Algorithm 7: RandSVD of F'[Vi]; Ui = Phi Sigma. The block
  // is a zero-copy row view of the slab, spilled or not.
  RandSvdOptions svd_options;
  svd_options.power_iters = options_.t;
  svd_options.seed = options_.seed + static_cast<uint64_t>(b) + 1;
  DenseMatrix phi, vi;
  std::vector<double> sg;
  block_status_[static_cast<size_t>(b)] =
      RandSvd(affinity_->forward.ViewRows(blk.begin, blk.end), h_,
              svd_options, &phi, &sg, &vi);
  if (!block_status_[static_cast<size_t>(b)].ok()) return;
  for (int64_t i = 0; i < phi.rows(); ++i) {
    double* row = phi.Row(i);
    for (int j = 0; j < h_; ++j) row[j] *= sg[static_cast<size_t>(j)];
  }
  u_blocks_[static_cast<size_t>(b)] = std::move(phi);
  v_blocks_[static_cast<size_t>(b)] = std::move(vi);
  ReleaseRowsOrWarn(affinity_->forward, blk.begin, blk.end, /*dirty=*/false);
}

void EngineAwareInit::ClaimLoop(bool overlapped) {
  for (;;) {
    const int b = next_block_.fetch_add(1, std::memory_order_relaxed);
    if (b >= nb_) return;
    // A block counts as overlapped only when the helper claims it before
    // Finish() starts draining — i.e. while the engine is still streaming
    // backward panels. Claims the helper wins after that are ordinary
    // drain-phase work and must not inflate the stat.
    const bool count_overlapped =
        overlapped && !draining_.load(std::memory_order_relaxed);
    if (options_.max_inflight_blocks > 0) {
      MutexLock lock(&inflight_mutex_);
      while (inflight_blocks_ >= options_.max_inflight_blocks) {
        inflight_cv_.Wait(&inflight_mutex_);
      }
      ++inflight_blocks_;
    }
    RunBlock(b);
    if (options_.max_inflight_blocks > 0) {
      {
        MutexLock lock(&inflight_mutex_);
        --inflight_blocks_;
      }
      inflight_cv_.Signal();
    }
    if (count_overlapped) overlapped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EngineAwareInit::OnForwardSlabComplete() {
  if (!setup_status_.ok() || nb_ == 1) return;
  if (helper_started_.exchange(true)) return;
  // One helper thread claims block SVDs while the engine's pool is still
  // streaming the backward panels — the overlap Algorithm 7 leaves on the
  // table when init waits for the whole affinity phase.
  helper_ = std::thread([this] { ClaimLoop(/*overlapped=*/true); });
}

Result<EmbeddingState> EngineAwareInit::Finish() {
  PANE_RETURN_NOT_OK(setup_status_);
  if (nb_ == 1) return GreedyInit(std::move(*affinity_), options_);

  const int64_t n = affinity_->forward.rows();
  const int64_t d = affinity_->forward.cols();
  const std::vector<Range> node_blocks = PartitionRange(n, nb_);

  // Drain whatever the helper has not claimed; the caller and the pool
  // workers pull from the same counter.
  draining_.store(true, std::memory_order_relaxed);
  options_.pool->RunBlocks(nb_, [this](int) { ClaimLoop(false); });
  if (helper_.joinable()) helper_.join();
  for (const Status& s : block_status_) PANE_RETURN_NOT_OK(s);
  // The per-block factors die with this call, not with the instance: they
  // were allocated on the pool threads, and held through CCD they would pin
  // those threads' allocator arenas, block SVD temporaries included.
  const std::vector<DenseMatrix> u_blocks = std::move(u_blocks_);
  const std::vector<DenseMatrix> v_blocks = std::move(v_blocks_);

  // Line 4: V <- [V1 ... Vnb]^T, a (nb * k/2) x d stack of the per-block
  // right factors.
  DenseMatrix v_stack(static_cast<int64_t>(nb_) * h_, d);
  for (int b = 0; b < nb_; ++b) {
    const DenseMatrix vt = v_blocks[static_cast<size_t>(b)].Transposed();
    v_stack.SetBlock(static_cast<int64_t>(b) * h_, 0, vt);
  }

  // Lines 5-6: RandSVD of the stack; W = Phi Sigma, Y = right factor.
  EmbeddingState state;
  DenseMatrix w;
  {
    RandSvdOptions svd_options;
    svd_options.power_iters = options_.t;
    svd_options.seed = options_.seed;
    std::vector<double> sg;
    PANE_RETURN_NOT_OK(RandSvd(v_stack, h_, svd_options, &w, &sg, &state.y));
    for (int64_t i = 0; i < w.rows(); ++i) {
      double* row = w.Row(i);
      for (int j = 0; j < h_; ++j) row[j] *= sg[static_cast<size_t>(j)];
    }
  }

  // Lines 7-11: assemble per block: Xf[Vi] = Ui W[(i-1)k/2 : i k/2],
  // Xb[Vi] = B'[Vi] Y, then the block's residual rows overwrite its F' / B'
  // rows, whose last reads (the block SVD, the Xb projection) are done.
  state.xf.Resize(n, h_);
  state.xb.Resize(n, h_);
  options_.pool->RunBlocks(nb_, [&](int b) {
    const Range& blk = node_blocks[static_cast<size_t>(b)];
    if (blk.size() == 0) return;
    const DenseMatrix w_block = w.RowBlock(
        static_cast<int64_t>(b) * h_, static_cast<int64_t>(b + 1) * h_);
    DenseMatrix xf_block;
    Gemm(u_blocks[static_cast<size_t>(b)], w_block, &xf_block);
    state.xf.SetBlock(blk.begin, 0, xf_block);
    ProjectRows(affinity_->backward, state.y, &state.xb, blk.begin, blk.end);
    ResidualRows(state.xf, state.y, &affinity_->forward, blk.begin,
                 blk.end);
    ResidualRows(state.xb, state.y, &affinity_->backward, blk.begin,
                 blk.end);
  });
  state.sf = std::move(affinity_->forward);
  state.sb = std::move(affinity_->backward);
  return state;
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
