// Batched execution of PANE's two prediction queries (attribute
// recommendation, Eq. 21; link recommendation, Eq. 22) plus pair scoring —
// the serving subsystem's compute layer.
//
// Exact mode answers every top-k in three steps:
//   1. Screen: score the query block against single-precision copies of
//      the candidate rows (src/serve/dot_block.h) — half the bytes of the
//      f64 factors, which is what a memory-bound scan pays for.
//   2. Certify: give each screened score s' the interval s' +- e, with
//      e = eps * |x| * |r| + alpha a rigorous bound on the distance
//      between s' and the f64 score (see the derivation in
//      query_engine.cc), and keep only the candidates whose upper bound
//      reaches the k-th largest lower bound. A candidate or query that
//      holds a value the bound does not cover (non-finite, beyond
//      FLT_MAX, or a nonzero below FLT_MIN) is always kept.
//   3. Rescore: the survivors, in ascending id order, get the f64 score
//      of the offline helpers — Dot(xf, y) + Dot(xb, y), or Dot(xf, z_w)
//      — and go through the deterministic bounded heap of
//      src/common/topk.h. The survivors always include the exact top-k,
//      so a served batch returns the same ids and bitwise the same scores
//      as src/tasks/ranking.h, independent of batch size, blocking, or
//      thread count.
// Link candidates need z_w = xb_w (Y^T Y). The engine holds no f64 Z: it
// keeps G = Y^T Y (h x h), screens Z rows derived a chunk at a time, and
// computes the survivors' rows again on demand with the same row kernel
// Gemm(xb, G) uses.
//
// Pruned mode routes the same queries through per-candidate-set IVF
// indexes (src/serve/ivf_index.h) built from the screen rows, for
// sublinear approximate retrieval with `nprobe` as the measured-recall
// knob.
//
// Every engine is a shard (src/serve/shard_plan.h): one builder takes the
// full factor views and a ShardSpec, and the engine scans only the spec's
// candidate rows while speaking global ids. An unsharded engine is shard 0
// of 1, MakeShardPlan(n, d, 1).shards[0], so there is no second mode: a
// family whose local slice is empty (more shards than rows) answers empty
// rankings in both exact and pruned mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/topk.h"
#include "src/graph/graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/obs/metrics.h"
#include "src/serve/ivf_index.h"
#include "src/serve/shard_plan.h"

namespace pane {

class ThreadPool;

namespace serve {

class EmbeddingStore;

struct QueryEngineOptions {
  /// Parallelizes batches across queries (each query stays sequential, so
  /// results are identical at any thread count). Null => serial.
  ThreadPool* pool = nullptr;
  /// Caps the per-worker scoring scratch (the f32 query block, the
  /// query-block x candidate-tile score buffer and the tile's bounds): the
  /// candidate tile, then the query-block width, are reduced until workers
  /// x per-worker scratch fits the budget. 0 = unbounded (default shapes);
  /// Create rejects a negative budget and one whose byte count overflows.
  int64_t memory_budget_mb = 0;
  /// Explicit query-block width override (tests); 0 = derive from the
  /// budget.
  int64_t query_block = 0;
  /// Explicit candidate-tile override (tests); 0 = derive from the budget.
  int64_t candidate_tile = 0;
  /// Derive G = Y^T Y and the link screen rows at Create (required for
  /// link queries; skip for attribute-only engines).
  bool precompute_link_gram = true;
  /// Optional registry for the engine's work metrics (pane_engine_*:
  /// tiles scanned, screen survivors rescored, IVF candidates scanned /
  /// pruned). Null disables them; the registry must outlive the engine.
  /// Recording goes through handles resolved at Create, so the engine
  /// itself stays immutable during queries (the TSan contract in
  /// query_engine.cc).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-call scoring breakdown, filled by the top-k entry points when the
/// caller passes one: nanoseconds spent in the f32 screen (scan) and in
/// certification, rescoring and heap selection (select), plus tile,
/// survivor and IVF-candidate counts. Atomic because range workers
/// accumulate concurrently (once per range, not per tile).
struct EngineCallStats {
  std::atomic<int64_t> scan_ns{0};
  std::atomic<int64_t> select_ns{0};
  std::atomic<int64_t> tiles{0};
  /// Candidates that passed certification and were rescored in f64.
  std::atomic<int64_t> survivors{0};
  std::atomic<int64_t> ivf_scanned{0};
  std::atomic<int64_t> ivf_pruned{0};
};

/// \brief One top-k request: the query node and how many results to keep.
struct TopKQuery {
  int64_t node = 0;
  int64_t k = 0;
};

class QueryEngine {
 public:
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// The one engine builder: shard `spec` of the candidate space of the
  /// full factor views (xf / xb: n x h, y: d x h; the viewed storage must
  /// outlive the engine). An unsharded engine is shard 0 of 1,
  /// MakeShardPlan(n, d, 1).shards[0]. The engine scans Y rows
  /// [attr_begin, attr_end) and link candidates [node_begin, node_end),
  /// but accepts and returns *global* ids everywhere — queries, exclusion
  /// lists, pair ids and top-k results — so a router merges per-shard
  /// answers without id translation, and tie-breaks resolve in global
  /// order. Link scores need G = Y^T Y (h x h): `gram` (copied) when
  /// non-empty, so a fleet derives it once; otherwise derived here from y
  /// with the kernels EdgeScorer uses when precompute_link_gram is set and
  /// xb / y are present. Each needed row of Z = Xb G is computed on demand,
  /// so link scores match EdgeScorer bitwise for any shard count. The
  /// builder fills in the spec's width and capabilities; a position outside
  /// 0 <= i < N, ranges not cut from (n, d) or a shape mismatch is an
  /// InvalidArgument.
  static Result<QueryEngine> Create(ConstMatrixView xf, ConstMatrixView xb,
                                    ConstMatrixView y, ShardSpec spec,
                                    ConstMatrixView gram,
                                    const QueryEngineOptions& options);

  /// The whole candidate space of the views: shard 0 of 1.
  static Result<QueryEngine> Create(ConstMatrixView xf, ConstMatrixView xb,
                                    ConstMatrixView y,
                                    const QueryEngineOptions& options);

  /// Shard `spec` of a mapped artifact (factor blocks required; the store
  /// must outlive the engine). A shard is a row-range view of the one
  /// artifact; `gram` as for the view builder.
  static Result<QueryEngine> Create(const EmbeddingStore& store,
                                    const ShardSpec& spec,
                                    ConstMatrixView gram,
                                    const QueryEngineOptions& options);

  /// The whole mapped artifact: shard 0 of 1.
  static Result<QueryEngine> Create(const EmbeddingStore& store,
                                    const QueryEngineOptions& options);

  // ---- Exact mode -------------------------------------------------------

  /// Batched Eq. 21 top-k attributes. `exclude` skips attributes already
  /// associated with the query node in that graph. Results per query are
  /// identical to the offline TopKAttributes helper. A non-null
  /// `call_stats` receives the scan/select timing split for this call
  /// (timing is only taken when requested, so the default path pays no
  /// clock reads).
  std::vector<Ranking> TopKAttributes(
      const std::vector<TopKQuery>& queries,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;

  /// Batched Eq. 22 top-k link targets. The query node itself is always
  /// skipped; `exclude` also skips its existing out-neighbors.
  std::vector<Ranking> TopKTargets(
      const std::vector<TopKQuery>& queries,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;

  /// Batched pair scores: p(v, r) of Eq. 21 for (node, attribute) pairs.
  std::vector<double> AttributeScores(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) const;

  /// Batched pair scores: p(u, w) of Eq. 22 for (source, target) pairs.
  std::vector<double> LinkScores(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) const;

  // ---- Pruned (IVF) mode ------------------------------------------------

  /// Builds the cluster-pruned indexes from the screen rows (attributes
  /// over Y rows; links over Z rows when link scoring is available).
  Status BuildPrunedIndex(const IvfOptions& options);
  bool has_pruned_index() const {
    return !attr_index_.empty() || !link_index_.empty();
  }
  const IvfIndex& attr_index() const { return attr_index_; }
  const IvfIndex& link_index() const { return link_index_; }

  /// Writes the built pruned indexes as one checksummed container file
  /// ("attr." / "link." prefixed ivf.* streams) — crash-safe via temp +
  /// fsync + rename. Requires BuildPrunedIndex to have run.
  Status SavePrunedIndex(const std::string& path) const;

  /// Loads indexes written by SavePrunedIndex, replacing any built ones.
  /// Each index present in the file is validated against the engine's
  /// candidate set (candidate count and dimension) before adoption, so an
  /// index built for a different embedding is an InvalidArgument, not wrong
  /// answers.
  Status LoadPrunedIndex(const std::string& path);

  /// Approximate top-k through the IVF indexes; same exclusion / self-skip
  /// semantics as the exact calls, scores computed in single precision.
  /// A family needs its index unless its local slice is empty, which
  /// answers empty rankings.
  /// The pruned path has no tile/select split, so `call_stats` gets the
  /// whole probe under scan_ns plus the scanned/pruned candidate counts.
  std::vector<Ranking> TopKAttributesPruned(
      const std::vector<TopKQuery>& queries, int64_t nprobe,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;
  std::vector<Ranking> TopKTargetsPruned(
      const std::vector<TopKQuery>& queries, int64_t nprobe,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;

  // ---- Introspection ----------------------------------------------------

  /// Global node count (xf is replicated in full on every shard).
  int64_t num_nodes() const { return xf_.rows(); }
  /// Factor dimensionality h.
  int64_t dim() const { return xf_.cols(); }
  /// Global attribute count — for a shard this is the plan's d, not the
  /// local slice height.
  int64_t num_attributes() const { return spec_.num_attributes; }
  /// Capability is a *global* property: a shard whose local slice is empty
  /// still supports the query family and answers with empty rankings.
  bool supports_attributes() const { return spec_.has_attributes; }
  bool supports_links() const { return spec_.has_links; }

  /// The candidate space this engine answers for — shard 0 of 1 when
  /// unsharded — with the width and capabilities filled in.
  const ShardSpec& spec() const { return spec_; }
  /// Whether this engine holds the candidate row for a global id — pair
  /// requests must be routed to the owner.
  bool OwnsAttribute(int64_t attribute) const {
    return attribute >= spec_.attr_begin && attribute < spec_.attr_end;
  }
  bool OwnsTarget(int64_t node) const {
    return node >= spec_.node_begin && node < spec_.node_end;
  }

  /// The realized blocking (after the budget cap).
  int64_t query_block() const { return query_block_; }
  int64_t candidate_tile() const { return candidate_tile_; }

 private:
  /// One query family's screen: f32 copies of the local candidate rows in
  /// the kernel's panel layout (dot_block.h), plus each row's f64
  /// Euclidean norm, +inf for a row the certificate cannot cover (such a
  /// row is always rescored).
  struct ScreenRows {
    int64_t count = 0;
    std::vector<float> panels;
    std::vector<double> norms;
  };
  enum class Family { kAttributes, kTargets };
  /// One range's counters, folded into the caller's EngineCallStats and
  /// the registry by AccumulateRange.
  struct RangeCounts {
    int64_t scan_ns = 0;
    int64_t select_ns = 0;
    int64_t tiles = 0;
    int64_t survivors = 0;
    int64_t ivf_scanned = 0;
    int64_t ivf_pruned = 0;
  };

  QueryEngine() = default;

  void ResolveMetrics(obs::MetricsRegistry* registry);
  /// Builds attr_screen_ from y_ and link_screen_ from rows
  /// [node_begin, node_end) of xb_ times gram_.
  void BuildScreens();

  /// Exact f64 scores — the arithmetic of PaneEmbedding::AttributeScore
  /// and EdgeScorer::Score. Ids are global; `z_row` is h doubles of
  /// scratch for an on-demand row of Z.
  double ExactAttributeScore(int64_t v, int64_t r) const;
  double ExactLinkScore(int64_t u, int64_t w, double* z_row) const;

  /// The check-and-dispatch of every top-k call: validates the queries,
  /// then runs ProcessRange (exact) or ProbeRange (pruned) over query
  /// ranges. An empty local slice answers empty rankings; a pruned call
  /// over a non-empty slice needs its index.
  std::vector<Ranking> TopK(Family family,
                            const std::vector<TopKQuery>& queries, bool pruned,
                            int64_t nprobe, const AttributedGraph* exclude,
                            EngineCallStats* call_stats) const;
  /// Screen, certify and rescore queries [begin, end) of one family.
  void ProcessRange(Family family, const std::vector<TopKQuery>& queries,
                    const AttributedGraph* exclude, int64_t begin,
                    int64_t end, std::vector<Ranking>* results,
                    EngineCallStats* call_stats) const;
  /// Probe the family's IVF index for queries [begin, end).
  void ProbeRange(Family family, const std::vector<TopKQuery>& queries,
                  int64_t nprobe, const AttributedGraph* exclude,
                  int64_t begin, int64_t end, std::vector<Ranking>* results,
                  EngineCallStats* call_stats) const;
  /// Folds one range's counters into the registry handles (if any) and the
  /// caller's EngineCallStats (if any).
  void AccumulateRange(EngineCallStats* call_stats,
                       const RangeCounts& counts) const;

  ConstMatrixView xf_, xb_, y_;
  // Link row w is row w of Xb gram_, computed on demand.
  DenseMatrix gram_;
  ScreenRows attr_screen_, link_screen_;
  // The certificate |exact - screened| <= eps * |x| * |r| + alpha for
  // this h (query_engine.cc derives it).
  double screen_eps_ = 0.0;
  double screen_alpha_ = 0.0;
  ThreadPool* pool_ = nullptr;
  int64_t query_block_ = 0;
  int64_t candidate_tile_ = 0;
  // attr_begin / node_begin are the global ids of local candidate row 0
  // of the attribute / link screens.
  ShardSpec spec_;
  IvfIndex attr_index_, link_index_;
  // Registry handles (null without a registry). The pointed-to metrics are
  // thread-safe, so recording from const query paths keeps the engine's
  // immutability contract.
  obs::Counter* tiles_total_ = nullptr;
  obs::Counter* survivors_total_ = nullptr;
  obs::Counter* ivf_scanned_total_ = nullptr;
  obs::Counter* ivf_pruned_total_ = nullptr;
  obs::Gauge* tiles_gauge_ = nullptr;
  obs::Gauge* pruned_gauge_ = nullptr;
};

/// \brief Sorted ids to skip for one query: the non-zero columns of
/// `row` (the same entries CsrMatrix::At reports non-zero). Exposed for
/// the pruned path and tests.
std::vector<int64_t> ExcludedIds(const CsrMatrix& matrix, int64_t row);

}  // namespace serve
}  // namespace pane
