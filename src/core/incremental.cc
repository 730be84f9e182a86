#include "src/core/incremental.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/greedy_init.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"

namespace pane {

Result<PaneEmbedding> RefreshEmbedding(const AttributedGraph& updated_graph,
                                       const PaneEmbedding& previous,
                                       const RefreshOptions& options,
                                       RefreshStats* stats) {
  const int64_t n = updated_graph.num_nodes();
  const int64_t d = updated_graph.num_attributes();
  const int64_t h = previous.xf.cols();
  if (previous.y.rows() != d) {
    return Status::InvalidArgument(
        "attribute count changed; refresh requires a fixed attribute set");
  }
  if (previous.xf.rows() > n) {
    return Status::InvalidArgument(
        "node count shrank; compact/remap ids before refreshing");
  }
  if (options.ccd_iterations < 0) {
    return Status::InvalidArgument("ccd_iterations must be >= 0");
  }
  PANE_RETURN_NOT_OK(ValidateMemoryBudgetMb(options.memory_budget_mb));
  RefreshStats local;
  RefreshStats* out = stats != nullptr ? stats : &local;
  *out = RefreshStats{};
  WallTimer total_timer;

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  // Same single-budget rule as Pane::Train: the refresh keeps four n x d
  // factors resident (F', B', Sf, Sb); spill them when over budget.
  const int64_t budget_mb = options.memory_budget_mb;
  const int64_t slab_bytes =
      4 * n * d * static_cast<int64_t>(sizeof(double));
  const std::unique_ptr<store::BufferPool> buffer_pool =
      MakeSpillPool(options.slab_policy, budget_mb, slab_bytes);
  out->slabs_spilled = buffer_pool != nullptr;

  // Fresh affinity on the updated graph (the linear-time part); P and P^T
  // are built once inside the engine.
  AffinitySlabs affinity;
  {
    ScopedTimer timer(&out->affinity_seconds);
    AffinityEngineOptions engine_options;
    engine_options.alpha = options.alpha;
    engine_options.t = ComputeIterationCount(options.epsilon, options.alpha);
    engine_options.pool = pool.get();
    engine_options.memory_budget_mb = budget_mb;
    engine_options.buffer_pool = buffer_pool.get();
    engine_options.spill_dir = options.spill_dir;
    PANE_RETURN_NOT_OK(ComputeGraphAffinityIntoSlabs(
        updated_graph, engine_options, &affinity, &out->affinity));
  }

  // Warm seed: old rows keep their embeddings; new nodes get the
  // projection seed X[v] = Affinity[v] . Y (the Y^T Y ~ I rule GreedyInit
  // uses for Xb, applied on both sides — no SVD needed). The tails stream
  // from the slabs as row views.
  EmbeddingState state;
  state.y = previous.y;
  state.xf.Resize(n, h);
  state.xb.Resize(n, h);
  const int64_t n_prev = previous.xf.rows();
  state.xf.SetBlock(0, 0, previous.xf);
  state.xb.SetBlock(0, 0, previous.xb);
  if (n_prev < n) {
    DenseMatrix xf_tail, xb_tail;
    Gemm(affinity.forward.ViewRows(n_prev, n), state.y, &xf_tail, pool.get());
    Gemm(affinity.backward.ViewRows(n_prev, n), state.y, &xb_tail,
         pool.get());
    state.xf.SetBlock(n_prev, 0, xf_tail);
    state.xb.SetBlock(n_prev, 0, xb_tail);
  }
  PANE_ASSIGN_OR_RETURN(
      state.sf, FactorSlab::Create(n, d, buffer_pool.get(), options.spill_dir));
  PANE_ASSIGN_OR_RETURN(
      state.sb, FactorSlab::Create(n, d, buffer_pool.get(), options.spill_dir));
  PANE_RETURN_NOT_OK(BuildResidualSlab(state.xf, state.y, affinity.forward,
                                       &state.sf, pool.get()));
  PANE_RETURN_NOT_OK(BuildResidualSlab(state.xb, state.y, affinity.backward,
                                       &state.sb, pool.get()));
  // F' / B' are consumed; free them (and any spill files) before CCD.
  affinity = AffinitySlabs{};
  out->objective_initial = Objective(state);

  {
    ScopedTimer timer(&out->ccd_seconds);
    CcdOptions ccd_options;
    ccd_options.iterations = options.ccd_iterations;
    ccd_options.pool = pool.get();
    ccd_options.memory_budget_mb = budget_mb;
    PANE_RETURN_NOT_OK(CcdRefine(&state, ccd_options));
  }
  out->objective_final = Objective(state);
  out->total_seconds = total_timer.ElapsedSeconds();

  PaneEmbedding refreshed;
  refreshed.xf = std::move(state.xf);
  refreshed.xb = std::move(state.xb);
  refreshed.y = std::move(state.y);
  return refreshed;
}

}  // namespace pane
