// Greedy seeding of the CCD optimizer (Algorithm 3) and its split-merge
// parallel counterpart SMGreedyInit (Algorithm 7). The key idea: RandSVD of
// F' gives Xf = U Sigma, Y = V with Xf Y^T ~= F'; since V is (near)
// unitary, Xb = B' Y immediately also approximates B' — so CCD starts close
// to a joint optimum and needs few iterations (Section 5.7, Figures 7-8).
// Beside them sit the two other seeds Pane::Train can choose: random
// (PANE-R) and a warm start from a previous embedding (evolving graphs).
//
// The init layer takes ownership of the affinity slabs and turns them into
// the residuals in place: line 3 of Algorithms 3 / 7 overwrites each row of
// F' / B' with Sf = Xf Y^T - F' / Sb = Xb Y^T - B' after the row's last F' /
// B' read (the block SVDs, and the projection Xb = B' Y), so training holds
// two n x d slabs. Every F' / B' access runs one code path whether the
// slab lives in RAM or is spilled to a memory-mapped file, so spilled and
// in-RAM runs are bitwise identical, and the returned sf / sb are the very
// slabs passed in. Row passes stream (StreamRows) and drop each chunk as it
// finishes; Algorithm 7 drops each F' block once its RandSVD has read it.
// Init runs after the affinity phase has returned, as in Algorithm 5.
#pragma once

#include <cstdint>

#include "src/common/status.h"
#include "src/core/affinity.h"
#include "src/core/embedding.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/factor_slab.h"

namespace pane {

class ThreadPool;

/// \brief Embeddings plus the dynamically maintained CCD residuals. The
/// small factors stay dense; the n x d residuals are the former affinity
/// slabs, in RAM or spilled wherever those were created.
struct EmbeddingState {
  DenseMatrix xf;  // n x k/2 forward embeddings
  DenseMatrix xb;  // n x k/2 backward embeddings
  DenseMatrix y;   // d x k/2 attribute embeddings
  FactorSlab sf;   // n x d residual Sf = Xf Y^T - F'
  FactorSlab sb;   // n x d residual Sb = Xb Y^T - B'
};

/// \brief Shared knobs of the init family.
struct InitOptions {
  /// Space budget k (must be even and >= 2); each side gets k/2.
  int k = 128;
  /// RandSVD power-iteration count (the paper passes its t).
  int t = 5;
  /// Seed for the RandSVD sketches / random init.
  uint64_t seed = 42;
  /// Worker pool; its size is the block count nb of Algorithm 7. nullptr or
  /// size 1 => the serial Algorithm 3.
  ThreadPool* pool = nullptr;
  /// Algorithm 7's wave size: at most this many F' row blocks are
  /// RandSVD'd (and hold pages) at once (0 => all nb in one wave).
  /// Pane::Train takes it from its memory plan, which caps only spilled
  /// runs. Affects the schedule only, never the arithmetic.
  int64_t max_inflight_blocks = 0;
};

/// \brief Greedy seeding; turns F' / B' into the residuals Sf / Sb in place.
///
/// A null or 1-thread pool runs Algorithm 3: (Xf, Xb, Y) from one RandSVD of
/// F', streamed from the slab. A larger pool runs Algorithm 7
/// (SMGreedyInit): F' is split into one row block per worker, each block is
/// RandSVD'd (seed + b + 1 for block b; in waves of at most
/// max_inflight_blocks), the stacked per-block right factors are merged
/// with a second small RandSVD, and Xf[Vi] = Ui Wi, Xb[Vi] = B'[Vi] Y and
/// the block's residual rows are assembled per block. At t = infinity the
/// two agree (Lemma 4.2); at finite t the extra factorization error is the
/// parallel-vs-serial utility gap measured in Section 5.
Result<EmbeddingState> GreedyInit(AffinitySlabs affinity,
                                  const InitOptions& options);

/// \brief Random seeding (the PANE-R ablation of Section 5.7): Gaussian
/// Xf, Xb, Y scaled by 1/sqrt(k/2), residuals computed from them in place.
Result<EmbeddingState> RandomInit(AffinitySlabs affinity,
                                  const InitOptions& options);

/// \brief Checks that `previous` can warm-start a run on a graph with n
/// nodes and d attributes at space budget k: y d x k/2, xf and xb
/// n_prev x k/2 with 0 < n_prev <= n. Each error names the offending block.
Status ValidateWarmStart(const PaneEmbedding& previous, int64_t n, int64_t d,
                         int k);

/// \brief Warm seeding from a previous embedding: Y and the first n_prev
/// rows of Xf / Xb are copied, rows of nodes added since are projected as
/// Xf[v] = F'[v] Y and Xb[v] = B'[v] Y (the GreedyInit backward rule, no
/// SVD), and the residuals are computed from them in place.
Result<EmbeddingState> WarmInit(AffinitySlabs affinity,
                                const PaneEmbedding& previous,
                                const InitOptions& options);

/// \brief Objective of Equation (4) given maintained residuals:
/// ||Sf||_F^2 + ||Sb||_F^2.
double Objective(const EmbeddingState& state);

}  // namespace pane
