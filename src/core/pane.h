// Top-level PANE driver: Algorithm 1 (single thread) and Algorithm 5
// (parallel), assembling affinity approximation (APMI / PAPMI), seeding
// (GreedyInit / engine-aware SMGreedyInit, random for PANE-R, or a warm
// start from a previous embedding) and CCD refinement (SVDCCD / PSVDCCD)
// into one Train() call, under one memory budget: --memory-budget-mb sizes
// the affinity panel scratch and the CCD strips, and decides whether the
// pipeline's two n x d slabs live in RAM or are spilled through one
// store::BufferPool whose residency budget is half the pipeline budget. The
// slabs hold F' and B' through affinity and init, which overwrites them in
// place with the residuals Sf and Sb that CCD refines.
//
// The warm start is the time-varying-graph extension the paper's conclusion
// leaves as future work: after a batch of edge/attribute updates, Train
// recomputes the (linear-time) affinity on the updated graph and seeds CCD
// from the previous embedding instead of a RandSVD, which for modest
// batches sits far closer to the new optimum — so a couple of CCD sweeps
// (ccd_iterations = 2) suffice.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/embedding.h"
#include "src/graph/graph.h"
#include "src/matrix/factor_slab.h"

namespace pane {

struct PaneOptions {
  /// Space budget k: each node gets Xf, Xb of length k/2, each attribute a
  /// Y of length k/2. Must be even. Paper default: 128.
  int k = 128;
  /// Random-walk stopping probability. Paper default: 0.5.
  double alpha = 0.5;
  /// Error threshold; sets t = ceil(log(eps)/log(1-alpha) - 1). Paper
  /// default: 0.015.
  double epsilon = 0.015;
  /// nb of Algorithm 5. 1 => the single-thread Algorithm 1 code paths.
  int num_threads = 1;
  /// CCD sweeps; 0 => use the derived t (Algorithm 1 behaviour). The
  /// Figures 7-8 experiments sweep this explicitly.
  int ccd_iterations = 0;
  /// Single whole-pipeline memory budget in MiB (--memory-budget-mb). Sizes
  /// the affinity engine's panel scratch and CCD's phase-2 strips, and —
  /// under SlabPolicy::kAuto — spills the two n x d factor slabs whenever
  /// 2 n d doubles exceed the budget: they go to memory-mapped files whose
  /// pages one BufferPool evicts (clock policy, pool-page granularity) only
  /// under pressure, so graphs whose factors exceed RAM still run.
  /// 0 => unbounded: all in RAM, with each phase's scratch capped at
  /// kUnboundedScratchBytes. Spilled and in-RAM runs produce
  /// bitwise-identical embeddings.
  int64_t memory_budget_mb = 0;
  /// Spill decision; kAuto applies the budget rule above, kInRam / kSpill
  /// force one answer (benches, tests).
  SlabPolicy slab_policy = SlabPolicy::kAuto;
  /// Directory for spill files ("" => the system temp directory). Files are
  /// removed when their slab is destroyed, including on error paths.
  std::string spill_dir;
  /// false => PANE-R: random instead of greedy initialization (Section 5.7).
  bool greedy_init = true;
  /// Seed for RandSVD sketches / random init.
  uint64_t seed = 42;
};

/// \brief Checks a PaneOptions for validity: k even and > 0, alpha and
/// epsilon in (0, 1), num_threads >= 1, ccd_iterations >= 0 and
/// memory_budget_mb in [0, INT64_MAX >> 20].
/// Called up front by Pane::Train and by the api layer's option validation.
Status ValidatePaneOptions(const PaneOptions& options);

/// \brief Phase timings and diagnostics from one Train() run.
struct PaneStats {
  int t = 0;                      ///< derived iteration count
  double affinity_seconds = 0.0;  ///< APMI / PAPMI phase
  AffinityEngineStats affinity;   ///< panel decomposition + scratch bytes
  double init_seconds = 0.0;      ///< seeding phase (greedy/random/warm)
  double ccd_seconds = 0.0;       ///< CCD refinement phase
  double total_seconds = 0.0;
  double objective_initial = 0.0;  ///< Equation (4) right after init
  double objective_final = 0.0;    ///< Equation (4) after refinement
  bool slabs_spilled = false;      ///< factors were spilled through the pool
  int64_t slab_bytes = 0;          ///< the two n x d slabs (F'/Sf, B'/Sb)
  int init_blocks_overlapped = 0;  ///< init block SVDs run during affinity
  CcdStats ccd;                    ///< phase-2 strip decomposition
  store::BufferPool::Stats pool;   ///< eviction/write-back counters (spilled)
};

/// \brief Trains PANE embeddings on an attributed graph.
class Pane {
 public:
  explicit Pane(PaneOptions options) : options_(options) {}

  /// Runs the full pipeline. `stats` (optional) receives phase timings.
  ///
  /// `warm_start` (optional) seeds CCD from a previous embedding instead of
  /// greedy or random init (it takes precedence over greedy_init): its rows
  /// are copied, and nodes added since are projected as F'[v] Y and B'[v] Y
  /// (the GreedyInit backward rule, no SVD). Its xf and xb must be
  /// n_prev x k/2 with 0 < n_prev <= n, and its y d x k/2: the attribute
  /// set is fixed and the node count may grow but not shrink
  /// (delete-and-compact is the caller's remapping concern).
  Result<PaneEmbedding> Train(const AttributedGraph& graph,
                              PaneStats* stats = nullptr,
                              const PaneEmbedding* warm_start = nullptr) const;

  const PaneOptions& options() const { return options_; }

 private:
  PaneOptions options_;
};

}  // namespace pane
