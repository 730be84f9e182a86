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
  const int64_t budget_mb = opt.memory_budget_mb;

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

  // One budget, one spill decision: the pipeline's resident factor cost is
  // two n x d slabs, F' and B' through affinity and init, which init turns
  // into Sf and Sb in place for CCD; when that exceeds the budget both are
  // spilled through one pool.
  const int64_t n = graph.num_nodes();
  const int64_t d = graph.num_attributes();
  const int64_t slab_bytes =
      2 * n * d * static_cast<int64_t>(sizeof(double));
  const std::unique_ptr<store::BufferPool> buffer_pool =
      MakeSpillPool(opt.slab_policy, budget_mb, slab_bytes);
  out_stats->slabs_spilled = buffer_pool != nullptr;
  out_stats->slab_bytes = slab_bytes;

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
  init_options.memory_budget_mb = budget_mb;

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
    engine_options.memory_budget_mb = budget_mb;
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
    ccd_options.memory_budget_mb = budget_mb;
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
