#include "src/core/pane.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/greedy_init.h"
#include "src/parallel/thread_pool.h"

namespace pane {

Status ValidatePaneOptions(const PaneOptions& options) {
  if (options.k < 2 || options.k % 2 != 0) {
    return Status::InvalidArgument("k must be even and >= 2");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.ccd_iterations < 0) {
    return Status::InvalidArgument("ccd_iterations must be >= 0");
  }
  return ValidateMemoryBudgetMb(options.memory_budget_mb);
}

MemoryPlan PlanMemory(int64_t n, int64_t d, int threads,
                      int64_t memory_budget_mb) {
  MemoryPlan plan;
  const int64_t budget_bytes = memory_budget_mb << 20;
  const int64_t double_bytes = static_cast<int64_t>(sizeof(double));
  const bool spill =
      budget_bytes > 0 && 2 * n * d * double_bytes > budget_bytes;
  if (spill) plan.pool_bytes = budget_bytes / 2;

  // Panels and strips both hold two n-double buffers per column.
  const int64_t bytes_per_column = 2 * double_bytes * std::max<int64_t>(n, 1);
  const int64_t share =
      budget_bytes > 0 ? budget_bytes : kUnboundedScratchBytes;
  const int64_t min_columns =
      budget_bytes > 0 ? 1 : kUnboundedScratchMinColumns;
  const auto fit = [&](int64_t columns, int64_t in_flight) {
    const int64_t fitted = share / (bytes_per_column * in_flight);
    return std::max<int64_t>(
        1, std::min(columns, std::max(min_columns, fitted)));
  };
  const bool pooled_panels = threads > 1 && !spill;
  const int64_t panel_in_flight = pooled_panels ? threads + 1 : 1;
  plan.panel_width =
      fit(pooled_panels ? (d + threads - 1) / threads : d, panel_in_flight);
  plan.strip_width = fit(d, 1);
  plan.clamped =
      budget_bytes > 0 && share < bytes_per_column * panel_in_flight;
  if (plan.clamped) {
    PANE_LOG(WARNING) << "memory budget " << memory_budget_mb
                      << " MiB is below one width-1 affinity panel ("
                      << bytes_per_column * panel_in_flight
                      << " bytes in flight); running width-1 panels over it";
  }

  if (spill && threads > 1) {
    const int64_t block_bytes = std::max<int64_t>(
        1, (n + threads - 1) / threads * d * double_bytes);
    plan.max_inflight_blocks =
        std::clamp<int64_t>(budget_bytes / block_bytes, 1, threads);
  }
  return plan;
}

Result<PaneEmbedding> Pane::Train(const AttributedGraph& graph,
                                  PaneStats* stats,
                                  const PaneEmbedding* warm_start) const {
  const PaneOptions& opt = options_;
  PANE_RETURN_NOT_OK(ValidatePaneOptions(opt));
  if (graph.num_nodes() == 0 || graph.num_attributes() == 0) {
    return Status::InvalidArgument("graph must have nodes and attributes");
  }
  if (warm_start != nullptr) {
    PANE_RETURN_NOT_OK(ValidateWarmStart(*warm_start, graph.num_nodes(),
                                         graph.num_attributes(), opt.k));
  }
  if (opt.k / 2 > graph.num_attributes()) {
    PANE_LOG(WARNING) << "k/2 = " << opt.k / 2 << " exceeds d = "
                      << graph.num_attributes()
                      << "; surplus dimensions carry no signal";
  }
  const int t = ComputeIterationCount(opt.epsilon, opt.alpha);
  const int ccd_iters = opt.ccd_iterations > 0 ? opt.ccd_iterations : t;
  PaneStats local_stats;
  PaneStats* out_stats = stats != nullptr ? stats : &local_stats;
  *out_stats = PaneStats{};
  out_stats->t = t;

  WallTimer total_timer;
  std::unique_ptr<ThreadPool> pool;
  if (opt.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(opt.num_threads);
  }

  // The run's one memory plan: every phase below takes its sizes from it.
  const int64_t n = graph.num_nodes();
  const int64_t d = graph.num_attributes();
  const MemoryPlan plan = PlanMemory(n, d, opt.num_threads,
                                     opt.memory_budget_mb);
  std::unique_ptr<store::BufferPool> buffer_pool;
  if (plan.pool_bytes > 0) {
    store::BufferPool::Options pool_options;
    pool_options.budget_bytes = plan.pool_bytes;
    buffer_pool = std::make_unique<store::BufferPool>(pool_options);
  }
  out_stats->slabs_spilled = buffer_pool != nullptr;
  out_stats->slab_bytes = 2 * n * d * static_cast<int64_t>(sizeof(double));

  // Phase 1: affinity approximation (Algorithm 2 / 6) via the
  // panel-streamed engine; P and P^T are built once inside it. The slabs
  // are created up front so the engine-aware init can watch them fill.
  AffinitySlabs affinity;
  PANE_ASSIGN_OR_RETURN(
      affinity.forward,
      FactorSlab::Create(n, d, buffer_pool.get(), opt.spill_dir));
  PANE_ASSIGN_OR_RETURN(
      affinity.backward,
      FactorSlab::Create(n, d, buffer_pool.get(), opt.spill_dir));

  InitOptions init_options;
  init_options.k = opt.k;
  init_options.t = t;
  init_options.seed = opt.seed;
  init_options.pool = pool.get();
  init_options.max_inflight_blocks = plan.max_inflight_blocks;

  // Declared after `affinity` so its destructor (which joins the helper
  // thread reading the slabs) runs first on every exit path.
  std::optional<EngineAwareInit> streamed_init;
  if (warm_start == nullptr && opt.greedy_init && pool != nullptr) {
    streamed_init.emplace(&affinity, init_options);
  }

  {
    ScopedTimer timer(&out_stats->affinity_seconds);
    AffinityEngineOptions engine_options;
    engine_options.alpha = opt.alpha;
    engine_options.t = t;
    engine_options.pool = pool.get();
    engine_options.panel_width = plan.panel_width;
    if (streamed_init.has_value()) {
      // Fold Algorithm 7's per-block F' SVDs into the panel stream: they
      // start the moment the forward slab is final, while the backward
      // panels are still running.
      engine_options.panel_consumer = [&](const AffinityPanelEvent& event) {
        if (event.forward_complete) streamed_init->OnForwardSlabComplete();
      };
    }
    PANE_RETURN_NOT_OK(ComputeGraphAffinityIntoSlabs(
        graph, engine_options, &affinity, &out_stats->affinity));
  }

  // Phase 2a: seeding (a warm start, Algorithm 3 / 7, or random for
  // PANE-R). Each takes the affinity slabs and returns them as Sf / Sb.
  EmbeddingState state;
  {
    ScopedTimer timer(&out_stats->init_seconds);
    if (warm_start != nullptr) {
      PANE_ASSIGN_OR_RETURN(
          state, WarmInit(std::move(affinity), *warm_start, init_options));
    } else if (!opt.greedy_init) {
      PANE_ASSIGN_OR_RETURN(state,
                            RandomInit(std::move(affinity), init_options));
    } else if (streamed_init.has_value()) {
      PANE_ASSIGN_OR_RETURN(state, streamed_init->Finish());
      out_stats->init_blocks_overlapped = streamed_init->blocks_overlapped();
    } else {
      PANE_ASSIGN_OR_RETURN(state,
                            GreedyInit(std::move(affinity), init_options));
    }
  }
  out_stats->objective_initial = Objective(state);

  // Phase 2b: CCD refinement (Algorithm 4 / 8).
  {
    ScopedTimer timer(&out_stats->ccd_seconds);
    CcdOptions ccd_options;
    ccd_options.iterations = ccd_iters;
    ccd_options.pool = pool.get();
    ccd_options.strip_width = plan.strip_width;
    ccd_options.stats = &out_stats->ccd;
    PANE_RETURN_NOT_OK(CcdRefine(&state, ccd_options));
  }
  out_stats->objective_final = Objective(state);
  out_stats->total_seconds = total_timer.ElapsedSeconds();
  if (buffer_pool != nullptr) out_stats->pool = buffer_pool->stats();

  PaneEmbedding embedding;
  embedding.xf = std::move(state.xf);
  embedding.xb = std::move(state.xb);
  embedding.y = std::move(state.y);
  return embedding;
}

}  // namespace pane
