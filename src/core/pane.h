// Top-level PANE driver: Algorithm 1 (single thread) and Algorithm 5
// (parallel), running affinity approximation (APMI / PAPMI), seeding
// (GreedyInit / SMGreedyInit, random for PANE-R, or a warm start from a
// previous embedding) and CCD refinement (SVDCCD / PSVDCCD) in sequence in
// one Train() call. The slabs hold F' and B' through affinity and init,
// which overwrites them in place with the residuals Sf and Sb that CCD
// refines.
//
// One memory plan: PlanMemory is the only code that turns
// --memory-budget-mb into sizes. Train calls it once, before any phase
// runs, and hands each phase a shape — whether the two n x d slabs spill
// and the rows their streaming passes drop at a time, the affinity panel
// width, the CCD strip width and the init's wave size. No phase sees the
// budget. A spilled run splits the budget between the streamed chunks in
// flight (a quarter) and the panel and strip scratch (the rest); each
// streaming pass drops the rows it finishes; and at the end of affinity
// and of init Train drops both slabs' pages and hands the heap the phase
// freed back to the OS, so one phase's pages and freed buffers do not
// raise the next one's peak.
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
  /// Single whole-pipeline memory budget in MiB (--memory-budget-mb), which
  /// PlanMemory turns into the run's sizes. When the two n x d factor slabs
  /// (2 n d doubles) exceed it they are spilled: memory-mapped files whose
  /// pages each streaming pass drops as it finishes them, so graphs whose
  /// factors exceed RAM still run. 0 =>
  /// unbounded: all in RAM, each phase's scratch capped at
  /// kUnboundedScratchBytes. Spilled and in-RAM runs produce
  /// bitwise-identical embeddings.
  int64_t memory_budget_mb = 0;
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

/// \brief The scratch share of an unbounded run (memory_budget_mb == 0): the
/// affinity panels in flight and the CCD strips each hold at most this many
/// bytes, but never fewer than kUnboundedScratchMinColumns columns.
constexpr int64_t kUnboundedScratchBytes = int64_t{4} << 20;
constexpr int64_t kUnboundedScratchMinColumns = 16;

/// \brief Every size a training run takes from its memory budget. Residency
/// and locality only: no phase's arithmetic depends on any of them.
struct MemoryPlan {
  /// The stream share: the bytes of spilled slab rows the streaming passes
  /// may hold at once; 0 => the two n x d slabs stay in RAM.
  int64_t stream_bytes = 0;
  /// Rows a streaming pass over a slab handles before dropping them
  /// (FactorSlab::stream_chunk_rows): n in RAM.
  int64_t stream_chunk_rows = 0;
  /// The scratch share the panel and strip widths are fitted against: the
  /// budget less stream_bytes when bounded, kUnboundedScratchBytes when not.
  int64_t scratch_bytes = 0;
  /// Columns per affinity panel (AffinityEngineOptions::panel_width).
  int64_t panel_width = 0;
  /// Residual columns per CCD phase-2 strip (CcdOptions::strip_width).
  int64_t strip_width = 0;
  /// Algorithm 7's wave size: spilled F' row blocks RandSVD'd at once
  /// (InitOptions::max_inflight_blocks); 0 => no cap.
  int64_t max_inflight_blocks = 0;
  /// The scratch share is below the panels in flight at width 1; they run
  /// at width 1 and overshoot it (a warning is logged).
  bool clamped = false;
};

/// \brief The one memory policy of a run over n nodes, d attributes and
/// `threads` workers; `memory_budget_mb` must be valid
/// (ValidateMemoryBudgetMb).
///
/// - Spill: when a budget M is set and the two slabs' 2 n d doubles exceed
///   it, with a stream share of M / 4, which leaves the scratch 3 M / 4; the
///   two shares sum to M. Every thread streams one chunk of each slab at a
///   time, so a chunk is the share over threads x 2 slabs x one row's
///   bytes, at least one row.
/// - Widths: one rule for panels and strips. The historical shape — every
///   column for a strip and for a serial or spilled panel, ceil(d / threads)
///   for a pooled in-RAM panel (the APMI / PAPMI shapes) — is narrowed
///   until what is in flight fits the scratch share: threads + 1 pooled
///   panels (the workers and the draining caller), or one serial or
///   spilled panel or strip. The share (scratch_bytes) is M less the stream
///   share when bounded and kUnboundedScratchBytes when not; the floor is 1
///   column bounded and kUnboundedScratchMinColumns unbounded.
/// - Init: a spilled pooled run RandSVDs its F' row blocks in waves of
///   M / (one block's bytes), between 1 and threads.
MemoryPlan PlanMemory(int64_t n, int64_t d, int threads,
                      int64_t memory_budget_mb);

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
  MemoryPlan plan;                 ///< the sizes the budget became
  bool slabs_spilled = false;      ///< factors were spilled to mapped files
  int64_t slab_bytes = 0;          ///< the two n x d slabs (F'/Sf, B'/Sb)
  CcdStats ccd;                    ///< phase-2 strip decomposition
  /// Both slabs' drops, summed (zero in RAM); the peak is the sum of each
  /// slab's peak of streamed bytes in flight.
  SpillStats pool;
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
