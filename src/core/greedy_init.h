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
// two n x d slabs. Every F' / B' access streams row blocks
// through one code path whether the slab lives in RAM or is spilled through
// a BufferPool, so spilled and in-RAM runs are bitwise identical, and the
// returned sf / sb are the very slabs passed in. EngineAwareInit folds
// Algorithm 7 into the affinity engine's panel stream: the per-block
// RandSVDs of F' start the moment the engine reports the forward slab
// final, overlapping with the backward panels still streaming.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
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
  /// How many F' row blocks EngineAwareInit lets hold pages at once (0 =>
  /// no cap); Pane::Train takes it from its memory plan, which caps only
  /// spilled runs. Affects the schedule only, never the arithmetic.
  int64_t max_inflight_blocks = 0;
};

/// \brief Algorithm 3: seeds (Xf, Xb, Y) from one RandSVD of F' (streamed
/// from the slab) and turns F' / B' into the residuals Sf / Sb in place.
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

/// \brief Algorithm 7 (SMGreedyInit), with its per-block F' RandSVDs driven
/// by the affinity engine's panel stream: F' is split into row blocks (one
/// per pool worker), each block is RandSVD'd, the per-block right factors
/// are merged with a second small RandSVD, and Xf[Vi] = Ui * Wi, Xb = B' Y
/// are assembled. At t = infinity this matches GreedyInit exactly
/// (Lemma 4.2); at finite t the extra factorization error is the
/// parallel-vs-serial utility gap measured in Section 5. A serial pool runs
/// GreedyInit.
///
/// Bind an instance to the (pre-created) affinity slabs, wire
/// OnForwardSlabComplete into the engine's panel consumer, run the engine,
/// then call Finish(). When the forward slab lands, a helper thread starts
/// claiming block SVDs while the engine's pool is still streaming the
/// backward panels; Finish() drains the remaining blocks on the pool,
/// merges, and moves the slabs out as the residuals. Work is claimed from
/// one atomic counter and every block's math is independent of who computes
/// it, so overlap changes the schedule, never the answer; so does
/// InitOptions::max_inflight_blocks, which a spilled run's memory plan sets
/// to bound how many blocks of the spilled F' hold pages at once.
class EngineAwareInit {
 public:
  /// `affinity` must outlive the instance; Finish() moves its slabs out.
  EngineAwareInit(AffinitySlabs* affinity, const InitOptions& options);
  ~EngineAwareInit();  // joins the helper thread if Finish was never reached

  EngineAwareInit(const EngineAwareInit&) = delete;
  EngineAwareInit& operator=(const EngineAwareInit&) = delete;

  /// Panel-consumer hook: start overlapped block SVDs. Thread-safe and
  /// idempotent; a no-op for serial options (the Algorithm 1 path stays
  /// single-threaded).
  void OnForwardSlabComplete();

  /// Drains unclaimed blocks, merges, assembles the state, whose sf / sb
  /// are the bound slabs overwritten in place. Call once, after the engine
  /// run has returned successfully.
  Result<EmbeddingState> Finish();

  /// Blocks whose SVD ran overlapped with the backward panel stream.
  int blocks_overlapped() const {
    return overlapped_.load(std::memory_order_relaxed);
  }

 private:
  void ClaimLoop(bool overlapped) PANE_EXCLUDES(inflight_mutex_);
  void RunBlock(int b);

  AffinitySlabs* affinity_;
  InitOptions options_;
  Status setup_status_;
  int nb_ = 1;
  int h_ = 0;
  std::vector<DenseMatrix> u_blocks_;
  std::vector<DenseMatrix> v_blocks_;
  std::vector<Status> block_status_;
  std::atomic<int> next_block_{0};
  std::atomic<int> overlapped_{0};
  std::atomic<bool> helper_started_{false};
  std::atomic<bool> draining_{false};  // Finish() reached; engine is done
  std::thread helper_;
  /// Guards the residency throttle only: claim tickets (next_block_) and
  /// the overlap stat stay atomics; per-block outputs (u_blocks_ /
  /// v_blocks_ / block_status_) are disjoint slots indexed by the claimed
  /// block and published by the pool barrier / helper join in Finish().
  Mutex inflight_mutex_;
  CondVar inflight_cv_;
  int64_t inflight_blocks_ PANE_GUARDED_BY(inflight_mutex_) = 0;
};

/// \brief Objective of Equation (4) given maintained residuals:
/// ||Sf||_F^2 + ||Sb||_F^2.
double Objective(const EmbeddingState& state);

}  // namespace pane
