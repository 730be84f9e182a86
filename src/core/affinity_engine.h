// Panel-streamed affinity engine: the one production path for APMI
// (Algorithm 2) and PAPMI (Algorithm 6) — serial is a null pool, PAPMI's
// one-block-per-worker shape is a pool. The attribute matrix R is
// partitioned into column panels; for each panel the truncated series of
// Equation (6) is evaluated with the fused SpMMPanelStep kernel — the
// running series accumulates directly into the output slab, so each
// in-flight panel needs only two n x panel_width scratch buffers — and the
// SPMI transform (Equation 7) is applied in place: fully fused per panel on
// the forward side (column sums are panel-local), and as one in-place
// row-parallel pass over the backward slab once all panels have landed (row
// sums span every panel).
//
// The outputs are caller-created FactorSlabs (src/matrix/factor_slab.h):
// in RAM, or spilled through the run's BufferPool — panels then run
// sequentially and each finished panel's pages are evicted from the pool,
// so peak RSS tracks the panel scratch rather than 2 n d. A consumer
// callback fires as panels land; the engine-aware greedy init uses the
// forward-complete event to start RandSVD-ing F' row blocks while the
// backward panels are still streaming.
//
// The engine never sees the memory budget: the caller gives it a panel
// width (Pane::Train takes it from its memory plan, PlanMemory in
// src/core/pane.h), and the engine only chooses where the parallelism
// lives for that width — panels across workers, or row blocks inside one
// panel at a time. Peak scratch is in-flight panels x 2 x 8 x n x width.
// Column blocks of a sparse-dense product are independent (Lemma 4.1), and
// the engine preserves per-element summation order, so its output is
// bitwise identical to the unfused reference (ApmiProbabilities +
// SpmiFromProbabilities) for every panel width and thread count, spilled
// or in RAM.
#pragma once

#include <cstdint>
#include <functional>

#include "src/common/status.h"
#include "src/core/affinity.h"
#include "src/graph/graph.h"
#include "src/matrix/csr_matrix.h"
#include "src/matrix/factor_slab.h"

namespace pane {

class ThreadPool;

/// \brief One finished column panel, reported to the consumer callback.
struct AffinityPanelEvent {
  bool forward = true;       ///< which direction's slab the panel landed in
  int64_t col_begin = 0;     ///< attribute column range of the panel
  int64_t col_end = 0;
  int64_t panels_done = 0;   ///< finished panels in this direction so far
  int64_t num_panels = 0;    ///< total panels per direction
  /// True on the event that completes the forward direction: F' (including
  /// its fused SPMI transform) is final and may be consumed while the
  /// backward panels are still streaming. B' is final only when the engine
  /// returns (its SPMI row pass spans every panel).
  bool forward_complete = false;
};

struct AffinityEngineOptions {
  /// Random-walk stopping probability, in (0, 1).
  double alpha = 0.5;
  /// Truncation depth of the series (>= 1).
  int t = 5;
  /// Worker pool; nullptr or size 1 => serial.
  ThreadPool* pool = nullptr;
  /// Attribute columns per panel; 0 => one panel spanning every column.
  /// Values > d are clamped to d.
  int64_t panel_width = 0;
  /// Optional panel consumer; invoked under an engine mutex (events are
  /// serialized) from whichever thread finished the panel.
  std::function<void(const AffinityPanelEvent&)> panel_consumer;
};

/// \brief How one engine run decomposed the problem; filled analytically
/// before the panels execute.
struct AffinityEngineStats {
  int64_t panel_width = 0;   ///< columns per panel (last panel may be narrower)
  int64_t num_panels = 0;    ///< panels per direction
  int64_t scratch_bytes = 0; ///< peak panel scratch: in-flight x 2 x 8 x n x w
  int64_t output_bytes = 0;  ///< the two n x d output slabs
  bool panel_parallel = false;  ///< true: panels across workers;
                                ///< false: row blocks within a panel
  bool spilled = false;         ///< outputs were spilled through a pool
};

/// \brief Core entry: runs the engine on prebuilt P, P^T and attribute
/// matrix R, writing into caller-owned slabs, which must already be shaped
/// n x d (InvalidArgument otherwise). The caller decides where they live —
/// in RAM or spilled through its BufferPool — and pre-creating them is what
/// lets a consumer callback observe them while the run is in flight.
Status ComputeAffinityIntoSlabs(const CsrMatrix& p,
                                const CsrMatrix& p_transposed,
                                const CsrMatrix& r,
                                const AffinityEngineOptions& options,
                                AffinitySlabs* out,
                                AffinityEngineStats* stats = nullptr);

/// \brief Slab-returning convenience over ComputeAffinityIntoSlabs; the
/// slabs it creates live in RAM (tests, benches).
Result<AffinitySlabs> ComputeAffinitySlabs(const CsrMatrix& p,
                                           const CsrMatrix& p_transposed,
                                           const CsrMatrix& r,
                                           const AffinityEngineOptions& options,
                                           AffinityEngineStats* stats = nullptr);

/// \brief Graph-level entry: builds P and P^T exactly once (the single
/// construction point per embedding run) and runs the engine into
/// caller-owned slabs.
Status ComputeGraphAffinityIntoSlabs(const AttributedGraph& graph,
                                     const AffinityEngineOptions& options,
                                     AffinitySlabs* out,
                                     AffinityEngineStats* stats = nullptr);

}  // namespace pane
