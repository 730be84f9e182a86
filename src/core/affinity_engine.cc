#include "src/core/affinity_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/sync.h"
#include "src/matrix/spmm.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// term + next, doubles.
constexpr int64_t kScratchBuffersPerPanel = 2;

// Row granularity at which spilled slabs give pages back during streaming
// passes (release calls are no-ops for in-RAM slabs).
constexpr int64_t kSpillReleaseRows = 4096;

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
  PANE_RETURN_NOT_OK(ValidateMemoryBudgetMb(options.memory_budget_mb));
  if (options.panel_width < 0) {
    return Status::InvalidArgument("panel_width must be >= 0");
  }
  return Status::OK();
}

// How one run decomposes: panel width, count, and which level of the pool
// the parallelism lives at.
struct PanelDecomposition {
  int64_t width = 0;
  int64_t num_panels = 0;
  bool panel_parallel = false;  // panels across workers vs rows within panel
  int64_t in_flight = 1;        // panels holding scratch concurrently
  bool clamped = false;
};

int64_t NumPanels(int64_t d, int64_t width) {
  return (d + width - 1) / width;
}

// Decides panel width and parallelism level from the explicit override, the
// memory budget, or the historical defaults. `num_workers` is the pool size
// (1 when serial). When panels run across workers, the caller of RunBlocks
// drains alongside them, so up to num_workers + 1 panels hold scratch at
// once and the budget is divided accordingly; when panels run in sequence
// (row-parallel SpMM inside each), a single panel owns all the scratch and
// gets the whole budget. Spilled runs force the sequential shape: finished
// panels immediately return their slab pages, so exactly one panel's pages
// plus one panel's scratch are resident at a time.
PanelDecomposition DecomposePanels(int64_t n, int64_t d, int64_t num_workers,
                                   const AffinityEngineOptions& options,
                                   bool allow_panel_parallel) {
  PanelDecomposition out;
  const int64_t bytes_per_column =
      kScratchBuffersPerPanel * static_cast<int64_t>(sizeof(double)) * n;
  const int64_t max_in_flight = num_workers > 1 ? num_workers + 1 : 1;

  const auto finish = [&](int64_t width) {
    out.width = width;
    out.num_panels = NumPanels(d, width);
    out.panel_parallel = allow_panel_parallel && num_workers > 1 &&
                         2 * out.num_panels >= num_workers;
    out.in_flight = out.panel_parallel
                        ? std::min(max_in_flight, 2 * out.num_panels)
                        : 1;
  };

  if (options.panel_width > 0) {
    finish(std::min(options.panel_width, d));
    return out;
  }
  if (options.memory_budget_mb <= 0) {
    // Unbounded: whole attribute set when serial (APMI), one block per
    // worker when pooled (PAPMI), narrowed so the panels in flight fit the
    // unbounded scratch cap.
    const int64_t historical =
        num_workers <= 1 ? d : (d + num_workers - 1) / num_workers;
    const int64_t in_flight = allow_panel_parallel ? max_in_flight : 1;
    finish(std::min(historical,
                    std::max(kUnboundedScratchMinColumns,
                             kUnboundedScratchBytes /
                                 (bytes_per_column * in_flight))));
    return out;
  }

  const int64_t budget_bytes = options.memory_budget_mb << 20;
  // First assume a single in-flight panel (the row-parallel shape, which
  // uses the whole budget). Only when that already yields enough panels to
  // occupy the pool does the engine try panel-parallel execution, which
  // re-divides the budget across the concurrent panels.
  const int64_t solo_width = std::min(budget_bytes / bytes_per_column, d);
  if (!allow_panel_parallel) {
    if (solo_width >= 1) {
      out.width = solo_width;
      out.num_panels = NumPanels(d, out.width);
      return out;
    }
  } else {
    if (num_workers > 1 && solo_width >= 1 &&
        2 * NumPanels(d, solo_width) < num_workers) {
      finish(solo_width);
      return out;
    }
    const int64_t divided_width =
        budget_bytes / (bytes_per_column * max_in_flight);
    if (divided_width >= 1) {
      finish(std::min(divided_width, d));
      return out;
    }
    // The budget admits sequential panels but not one panel per in-flight
    // worker: respect the budget and keep the parallelism at the row level
    // inside each panel.
    if (solo_width >= 1) {
      out.width = std::min(solo_width, d);
      out.num_panels = NumPanels(d, out.width);
      return out;
    }
  }
  // Below even one sequential width-1 panel: clamp, and run sequentially so
  // the overshoot is a single panel's scratch, not max_in_flight of them.
  out.clamped = true;
  PANE_LOG(WARNING) << "affinity memory budget " << options.memory_budget_mb
                    << " MiB is below one width-1 panel ("
                    << bytes_per_column
                    << " bytes); clamping to one sequential width-1 panel";
  out.width = 1;
  out.num_panels = d;
  return out;
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

  // The caller creates the slabs (so a consumer can hold a stable pointer
  // during the run, and so the caller decides whether they spill).
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
  // panels run across workers (each serial inside, the Algorithm 6 shape);
  // otherwise panels run in sequence and the pool row-partitions the SpMM
  // inside each panel. Either way each output element is produced by exactly
  // one thread with unchanged per-element summation order, so the result is
  // bitwise independent of the decomposition — including the spilled shape,
  // which always runs panels sequentially so it can return each finished
  // panel's pages before starting the next.
  const PanelDecomposition decomp =
      DecomposePanels(n, d, nb, options, /*allow_panel_parallel=*/!spilled);
  const int64_t width = decomp.width;
  const bool panel_parallel = decomp.panel_parallel;
  ThreadPool* row_pool = panel_parallel ? nullptr : pool;

  st->panel_width = width;
  st->num_panels = decomp.num_panels;
  st->budget_clamped = decomp.clamped;
  st->panel_parallel = panel_parallel;
  st->scratch_bytes = decomp.in_flight * kScratchBuffersPerPanel *
                      static_cast<int64_t>(sizeof(double)) * n * width;

  const CsrMatrix rr = r.RowNormalized();
  const CsrMatrix rc = r.ColNormalized();

  std::vector<PanelTask> tasks;
  tasks.reserve(static_cast<size_t>(2 * decomp.num_panels));
  for (const bool forward : {true, false}) {
    for (int64_t begin = 0; begin < d; begin += width) {
      tasks.push_back(PanelTask{forward, begin, std::min(begin + width, d)});
    }
  }

  // Panel-completion bookkeeping for the consumer callback. The mutex
  // guards the done counters and serializes consumer invocations (the
  // consumer contract: at most one callback at a time).
  Mutex consumer_mutex;
  int64_t forward_done = 0;
  int64_t backward_done = 0;
  const auto notify = [&](const PanelTask& task) {
    if (!options.panel_consumer) return;
    MutexLock lock(&consumer_mutex);
    AffinityPanelEvent event;
    event.forward = task.forward;
    event.col_begin = task.begin;
    event.col_end = task.end;
    event.num_panels = decomp.num_panels;
    int64_t& done = task.forward ? forward_done : backward_done;
    event.panels_done = ++done;
    event.forward_complete =
        task.forward && event.panels_done == decomp.num_panels;
    options.panel_consumer(event);
  };

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

    // Spilled panels run sequentially, so the finished panel can hand every
    // resident page of its slab back to the pool before the next panel
    // starts — this is what keeps affinity-phase RSS near the scratch budget
    // instead of 2 n d. (The pages stay authoritative in the page cache;
    // later panels and the backward SPMI pass refault what they touch.)
    DropResidencyOrWarn(*slab);
    notify(task);
  };

  if (panel_parallel) {
    pool->RunBlocks(static_cast<int>(tasks.size()),
                    [&](int b) { run_panel(tasks[static_cast<size_t>(b)]); });
  } else {
    for (const PanelTask& task : tasks) run_panel(task);
  }

  // SPMI transform, backward side: row sums span every panel, so B' is
  // finished with one in-place row-parallel pass over the completed slab.
  // Rows are contiguous, so a spilled slab streams this pass in chunks that
  // release their pages as they finish.
  const auto backward_rows = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t chunk = row_begin; chunk < row_end;
         chunk += kSpillReleaseRows) {
      const int64_t chunk_end = std::min(chunk + kSpillReleaseRows, row_end);
      for (int64_t i = chunk; i < chunk_end; ++i) {
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
      ReleaseRowsOrWarn(out->backward, chunk, chunk_end, /*dirty=*/true);
    }
  };
  if (pool != nullptr) {
    ParallelFor(pool, 0, n, backward_rows);
  } else {
    backward_rows(0, n);
  }
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
