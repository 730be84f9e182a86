#include "src/core/affinity_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/matrix/spmm.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// term + next, doubles.
constexpr int64_t kScratchBuffersPerPanel = 2;

Status ValidateEngineInputs(const CsrMatrix& p, const CsrMatrix& pt,
                            const CsrMatrix& r,
                            const AffinityEngineOptions& options) {
  if (p.rows() != p.cols()) {
    return Status::InvalidArgument("P must be square");
  }
  if (pt.rows() != p.rows() || pt.cols() != p.cols()) {
    return Status::InvalidArgument("P^T shape must match P");
  }
  if (p.rows() != r.rows()) {
    return Status::InvalidArgument("P and R row counts differ");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (options.t < 1) return Status::InvalidArgument("t must be >= 1");
  if (options.panel_width < 0) {
    return Status::InvalidArgument("panel_width must be >= 0");
  }
  return Status::OK();
}

// One direction-tagged column panel [begin, end) of the attribute set.
struct PanelTask {
  bool forward = true;
  int64_t begin = 0;
  int64_t end = 0;
};

}  // namespace

Status ComputeAffinityIntoSlabs(const CsrMatrix& p,
                                const CsrMatrix& p_transposed,
                                const CsrMatrix& r,
                                const AffinityEngineOptions& options,
                                AffinitySlabs* out,
                                AffinityEngineStats* stats) {
  if (out == nullptr) return Status::InvalidArgument("null output slabs");
  PANE_RETURN_NOT_OK(ValidateEngineInputs(p, p_transposed, r, options));
  const int64_t n = r.rows();
  const int64_t d = r.cols();
  const double alpha = options.alpha;

  // The caller creates the slabs, so the caller decides whether they spill.
  for (const FactorSlab* slab : {&out->forward, &out->backward}) {
    if (slab->rows() != n || slab->cols() != d) {
      return Status::InvalidArgument("output slab shape must be n x d");
    }
  }
  const bool spilled = out->forward.spilled() || out->backward.spilled();

  AffinityEngineStats local_stats;
  AffinityEngineStats* st = stats != nullptr ? stats : &local_stats;
  *st = AffinityEngineStats{};
  st->output_bytes = 2 * n * d * static_cast<int64_t>(sizeof(double));
  st->spilled = spilled;
  if (n == 0 || d == 0) return Status::OK();

  ThreadPool* pool =
      (options.pool != nullptr && options.pool->num_threads() > 1)
          ? options.pool
          : nullptr;
  const int64_t nb = pool != nullptr ? pool->num_threads() : 1;

  // Two-level parallelism: when there are enough panels to occupy the pool,
  // panels run across workers (each serial inside, the Algorithm 6 shape),
  // and with the caller draining alongside them up to nb + 1 hold scratch
  // at once; otherwise panels run in sequence and the pool row-partitions
  // the SpMM inside each panel. Either way each output element is produced
  // by exactly one thread with unchanged per-element summation order, so
  // the result is bitwise independent of the decomposition — including the
  // spilled shape, which always runs panels sequentially so it can return
  // each finished panel's pages before starting the next.
  const int64_t width =
      options.panel_width > 0 ? std::min(options.panel_width, d) : d;
  const int64_t num_panels = (d + width - 1) / width;
  const bool panel_parallel = !spilled && nb > 1 && 2 * num_panels >= nb;
  const int64_t in_flight =
      panel_parallel ? std::min(nb + 1, 2 * num_panels) : 1;
  ThreadPool* row_pool = panel_parallel ? nullptr : pool;

  st->panel_width = width;
  st->num_panels = num_panels;
  st->panel_parallel = panel_parallel;
  st->scratch_bytes = in_flight * kScratchBuffersPerPanel *
                      static_cast<int64_t>(sizeof(double)) * n * width;

  const CsrMatrix rr = r.RowNormalized();
  const CsrMatrix rc = r.ColNormalized();

  std::vector<PanelTask> tasks;
  tasks.reserve(static_cast<size_t>(2 * num_panels));
  for (const bool forward : {true, false}) {
    for (int64_t begin = 0; begin < d; begin += width) {
      tasks.push_back(PanelTask{forward, begin, std::min(begin + width, d)});
    }
  }

  const auto run_panel = [&](const PanelTask& task) {
    const CsrMatrix& m = task.forward ? p : p_transposed;
    const CsrMatrix& r0 = task.forward ? rr : rc;
    FactorSlab* slab = task.forward ? &out->forward : &out->backward;
    const int64_t w = task.end - task.begin;

    // Scratch: the panel's current series term and the next-iteration
    // buffer. The running sum lives directly in the output slab stripe.
    DenseMatrix term = r0.ColSlice(task.begin, task.end).ToDense();
    DenseMatrix next;

    // l = 0 term of Equation (6): stripe = alpha * R0 panel (slab is
    // zero-initialized).
    const auto seed_rows = [&](int64_t row_begin, int64_t row_end) {
      for (int64_t i = row_begin; i < row_end; ++i) {
        double* slab_row = slab->Row(i) + task.begin;
        const double* term_row = term.Row(i);
        for (int64_t j = 0; j < w; ++j) slab_row[j] += alpha * term_row[j];
      }
    };
    if (row_pool != nullptr) {
      ParallelFor(row_pool, 0, n, seed_rows);
    } else {
      seed_rows(0, n);
    }

    // Lines 4-5 of Algorithm 2, fused: term <- (1-alpha) * M * term and
    // stripe += alpha * term in one pass per iteration.
    for (int l = 1; l <= options.t; ++l) {
      SpMMPanelStep(m, term, 1.0 - alpha, &next, alpha, slab->data(),
                    slab->cols(), task.begin, row_pool);
      std::swap(term, next);
    }

    if (task.forward) {
      // Fused SPMI transform (Equation 7, forward side): the column sums of
      // a column panel are panel-local, so F' can be finished in place here
      // without ever materializing the probability matrix.
      std::vector<double> col_sums(static_cast<size_t>(w), 0.0);
      for (int64_t i = 0; i < n; ++i) {
        const double* slab_row = slab->Row(i) + task.begin;
        for (int64_t j = 0; j < w; ++j) {
          col_sums[static_cast<size_t>(j)] += slab_row[j];
        }
      }
      const auto transform_rows = [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          double* slab_row = slab->Row(i) + task.begin;
          for (int64_t j = 0; j < w; ++j) {
            const double cs = col_sums[static_cast<size_t>(j)];
            slab_row[j] = cs > 0.0 ? std::log1p(n * slab_row[j] / cs) : 0.0;
          }
        }
      };
      if (row_pool != nullptr) {
        ParallelFor(row_pool, 0, n, transform_rows);
      } else {
        transform_rows(0, n);
      }
    }

    // Spilled panels run in order, forward then backward, so a direction's
    // last panel is the last to write its slab: drop the slab's pages then,
    // once. (The page cache keeps the bytes; the backward SPMI pass
    // refaults what it touches.) Dropping after every panel would refault
    // the whole slab for each of the next ones.
    if (task.end == d) slab->DropResidency();
  };

  if (panel_parallel) {
    pool->RunBlocks(static_cast<int>(tasks.size()),
                    [&](int b) { run_panel(tasks[static_cast<size_t>(b)]); });
  } else {
    for (const PanelTask& task : tasks) run_panel(task);
  }

  // SPMI transform, backward side: row sums span every panel, so B' is
  // finished with one in-place row-parallel pass over the completed slab,
  // streamed so a spilled slab drops each chunk of rows as it finishes.
  const auto backward_rows = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      double* row = out->backward.Row(i);
      double rs = 0.0;
      for (int64_t j = 0; j < d; ++j) rs += row[j];
      if (rs > 0.0) {
        for (int64_t j = 0; j < d; ++j) {
          row[j] = std::log1p(d * row[j] / rs);
        }
      } else {
        // A row can sum to <= 0 with nonzero entries when attribute
        // weights carry mixed signs; the unfused reference defines B' as
        // all-zero there, and the raw accumulated probabilities must not
        // leak out.
        std::fill(row, row + d, 0.0);
      }
    }
  };
  ParallelFor(pool, 0, n, [&](int64_t row_begin, int64_t row_end) {
    StreamRows({&out->backward}, row_begin, row_end, /*dirty=*/true,
               backward_rows);
  });
  return Status::OK();
}

Result<AffinitySlabs> ComputeAffinitySlabs(const CsrMatrix& p,
                                           const CsrMatrix& p_transposed,
                                           const CsrMatrix& r,
                                           const AffinityEngineOptions& options,
                                           AffinityEngineStats* stats) {
  AffinitySlabs out;
  PANE_ASSIGN_OR_RETURN(out.forward, FactorSlab::Create(r.rows(), r.cols()));
  PANE_ASSIGN_OR_RETURN(out.backward, FactorSlab::Create(r.rows(), r.cols()));
  PANE_RETURN_NOT_OK(
      ComputeAffinityIntoSlabs(p, p_transposed, r, options, &out, stats));
  return out;
}

Status ComputeGraphAffinityIntoSlabs(const AttributedGraph& graph,
                                     const AffinityEngineOptions& options,
                                     AffinitySlabs* out,
                                     AffinityEngineStats* stats) {
  // The one place P and P^T are constructed per embedding run; every caller
  // that used to build its own transposed copy now funnels through here.
  const CsrMatrix p = graph.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  return ComputeAffinityIntoSlabs(p, pt, graph.attributes(), options, out,
                                  stats);
}

}  // namespace pane
