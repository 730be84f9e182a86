// Warm-start embedding refresh for evolving graphs — the "time-varying
// graphs where attributes and node connections change over time" extension
// the paper's conclusion names as future work. Instead of re-running the
// full pipeline after a batch of edge/attribute updates, RefreshEmbedding
// recomputes the (cheap, linear-time) affinity matrices on the updated
// graph and re-seeds CCD from the *previous* embedding, which for modest
// update batches sits far closer to the new optimum than either a fresh
// RandSVD or a random seed — so a handful of CCD sweeps suffices.
//
// The refresh rides the same FactorSlab storage as Pane::Train: one
// --memory-budget-mb sizes the affinity panels and CCD strips and spills
// the four n x d factors through one BufferPool when they exceed it.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/embedding.h"
#include "src/core/pane.h"
#include "src/graph/graph.h"
#include "src/matrix/factor_slab.h"

namespace pane {

struct RefreshOptions {
  /// CCD sweeps applied on top of the warm start (typically 1-3).
  int ccd_iterations = 2;
  double alpha = 0.5;
  double epsilon = 0.015;
  int num_threads = 1;
  /// Whole-pipeline memory budget in MiB, as in PaneOptions: panel scratch,
  /// CCD strips, and the slab spill decision. 0 => unbounded, all in RAM.
  int64_t memory_budget_mb = 0;
  /// Spill decision (kAuto => spill when 4 n d exceeds the budget).
  SlabPolicy slab_policy = SlabPolicy::kAuto;
  /// Spill-file directory ("" => temp dir).
  std::string spill_dir;
};

/// \brief Statistics from one refresh.
struct RefreshStats {
  double affinity_seconds = 0.0;
  double ccd_seconds = 0.0;
  double total_seconds = 0.0;
  double objective_initial = 0.0;  ///< Eq. 4 right after warm-seeding
  double objective_final = 0.0;
  AffinityEngineStats affinity;    ///< panel decomposition + scratch bytes
  bool slabs_spilled = false;      ///< factors were spilled through a pool
};

/// \brief Refreshes `previous` onto `updated_graph`.
///
/// Requirements: same attribute count d and per-side dimension as
/// `previous`; the node count may grow (new nodes are seeded from B' Y,
/// i.e. the GreedyInit backward rule, which needs no SVD) but not shrink —
/// delete-and-compact is the caller's remapping concern.
Result<PaneEmbedding> RefreshEmbedding(const AttributedGraph& updated_graph,
                                       const PaneEmbedding& previous,
                                       const RefreshOptions& options,
                                       RefreshStats* stats = nullptr);

}  // namespace pane
