#include "src/serve/query_engine.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/matrix/factor_slab.h"
#include "src/matrix/gemm.h"
#include "src/matrix/matrix_kernels.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/dot_block.h"
#include "src/serve/embedding_store.h"

namespace pane {
namespace serve {
namespace {

constexpr int64_t kDefaultQueryBlock = 64;
constexpr int64_t kDefaultCandidateTile = 1024;
constexpr int64_t kMinCandidateTile = 64;
// Rows of Z derived per gemm_rows call while building the link screen.
constexpr int64_t kDeriveChunk = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Contiguous-range dispatch: queries (and screen rows) are independent,
/// so any partition yields identical per-item results.
///
/// Concurrency contract of the engine (checked by the TSan tier rather
/// than lock annotations — there is no lock to annotate): the factor views,
/// screen rows and IVF indexes are immutable once Create /
/// BuildPrunedIndex / LoadPrunedIndex return, every worker owns private
/// scratch, and each worker writes only the result slots of its own
/// [begin, end) range. The RunBlocks barrier in ParallelFor publishes
/// those slots to the caller. The only mutating members (BuildPrunedIndex
/// / LoadPrunedIndex) must not run concurrently with queries — PaneServer
/// builds its index before accepting traffic.
void RunRanges(ThreadPool* pool, int64_t count,
               const std::function<void(int64_t, int64_t)>& fn) {
  if (count == 0) return;
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    ParallelFor(pool, 0, count, fn);
  } else {
    fn(0, count);
  }
}

struct BlockShape {
  int64_t query_block = kDefaultQueryBlock;
  int64_t candidate_tile = kDefaultCandidateTile;
};

/// Applies explicit overrides, then shrinks the candidate tile and the
/// query block (in that order) until every worker's scratch — the f32
/// query block, the query-block x candidate-tile score buffer and the
/// tile's upper bounds — fits the budget.
BlockShape DeriveBlockShape(const QueryEngineOptions& options, int64_t h) {
  BlockShape shape;
  if (options.query_block > 0) shape.query_block = options.query_block;
  if (options.candidate_tile > 0) shape.candidate_tile = options.candidate_tile;
  if (options.memory_budget_mb > 0) {
    const int64_t workers =
        options.pool != nullptr ? options.pool->num_threads() : 1;
    const int64_t budget =
        (options.memory_budget_mb << 20) / std::max<int64_t>(1, workers);
    const auto scratch_bytes = [h](const BlockShape& s) {
      return s.query_block * (h + s.candidate_tile) *
                 static_cast<int64_t>(sizeof(float)) +
             s.candidate_tile * static_cast<int64_t>(sizeof(double));
    };
    while (scratch_bytes(shape) > budget &&
           shape.candidate_tile > kMinCandidateTile) {
      shape.candidate_tile /= 2;
    }
    while (scratch_bytes(shape) > budget && shape.query_block > 1) {
      shape.query_block /= 2;
    }
  }
  shape.query_block = std::max<int64_t>(1, shape.query_block);
  // Whole kernel panels per tile.
  shape.candidate_tile =
      (std::max<int64_t>(kMinCandidateTile, shape.candidate_tile) +
       kScreenPanel - 1) /
      kScreenPanel * kScreenPanel;
  return shape;
}

// ---- The screening certificate ------------------------------------------
//
// For a query x and a candidate row r (f64, length h), let s be the f64
// score of the offline helpers and s' the f32 screened score. With unit
// roundoffs u = 2^-24 (f32) and v = 2^-53 (f64) and g_n(u) = nu / (1 - nu):
//  - s' rounds each entry of x and r to f32 once and sums the h products
//    in a binary tree, so every product passes through at most h + 2
//    roundings: |s' - x.r| <= g_{h+2}(u) sum_i |x_i r_i|, plus at most
//    2^-150 for each of the h products that underflows. This needs every
//    entry of x and r to be 0 or within [FLT_MIN, FLT_MAX] — ScreenNorm
//    flags anything else with norm +inf — and no f32 overflow, which would
//    leave s' infinite or NaN; either way the candidate is always kept.
//  - s = Dot(xf, z) is within g_h(v) sum_i |x_i r_i| of x.r. For Eq. 21,
//    s = Dot(xf, y) + Dot(xb, y) is within g_{h+1}(v) sum_i (|xf_i| +
//    |xb_i|) |y_i| of (xf + xb).y, and the screen's x = fl(xf + xb) adds
//    one more f64 rounding, so |x| is taken as |xf| + |xb|.
// By Cauchy-Schwarz each sum is at most |x| |r|, so
//   |s - s'| <= (g_{h+2}(u) + g_{h+2}(v)) |x| |r| + (h + 1) 2^-149
// (f64 underflow included). The engine doubles both terms, which also
// covers the f64 rounding of the norms and of the bound itself. A zero
// query or row scores exactly +-0 on both paths, so its bound is 0.

double Gamma(int64_t n, double unit) {
  const double nu = static_cast<double>(n) * unit;
  return nu / (1.0 - nu);
}

/// Euclidean norm of an f64 row whose f32 copy the certificate covers, or
/// +inf ("always rescore") when an entry is non-finite, above FLT_MAX, or
/// a nonzero below FLT_MIN.
double ScreenNorm(const double* v, int64_t h) {
  double sum_sq = 0.0;
  for (int64_t t = 0; t < h; ++t) {
    const double a = std::fabs(v[t]);
    if (a != 0.0 && !(a >= FLT_MIN && a <= FLT_MAX)) return kInf;
    sum_sq += a * a;
  }
  return std::sqrt(sum_sq);
}

/// Index of entry t of screen row i in the panel layout of dot_block.h.
int64_t PanelIndex(int64_t i, int64_t t, int64_t h) {
  return (i / kScreenPanel) * h * kScreenPanel + t * kScreenPanel +
         i % kScreenPanel;
}

/// Screen copies of `count` f64 rows of length h, stored as screen rows
/// [first, first + count): f32 entries into `panels`, norms into `norms`.
void ConvertRows(const double* rows, int64_t count, int64_t h, int64_t first,
                 float* panels, double* norms) {
  for (int64_t i = 0; i < count; ++i) {
    const double* row = rows + i * h;
    norms[first + i] = ScreenNorm(row, h);
    for (int64_t t = 0; t < h; ++t) {
      panels[PanelIndex(first + i, t, h)] = static_cast<float>(row[t]);
    }
  }
}

/// Row-major copy of `count` screen rows — the same floats, for the IVF.
FloatMatrix UnpackPanels(const std::vector<float>& panels, int64_t count,
                         int64_t h) {
  FloatMatrix rows;
  rows.Resize(count, h);
  for (int64_t i = 0; i < count; ++i) {
    for (int64_t t = 0; t < h; ++t) {
      rows.MutableRow(i)[t] = panels[static_cast<size_t>(PanelIndex(i, t, h))];
    }
  }
  return rows;
}

/// Half-width of the certified interval of a screened score, given the
/// product p of the query and row norms: 0 for a zero query or row, and
/// NaN or +inf when p is (a flagged row or query). The alpha term is a
/// select between constants, so the callers' loops stay branch-free.
double HalfWidth(double p, double eps, double alpha) {
  return eps * p + (p != 0.0 ? alpha : 0.0);
}

/// Upper bounds hi[j] of the screened scores `scores[j]`, given the query
/// norm and the row norms `norms[j]`. s - s is +0 for a finite s and NaN
/// otherwise, so an overflowed screen score (or a flagged row or query)
/// yields a NaN or +inf bound, which survives any cut. Branch-free, so the
/// loop vectorizes.
void UpperBounds(const float* scores, const double* norms, int64_t len,
                 double qnorm, double eps, double alpha, double* hi) {
  for (int64_t j = 0; j < len; ++j) {
    const double s = scores[j];
    hi[j] = (s + HalfWidth(qnorm * norms[j], eps, alpha)) - (s - s);
  }
}

/// Per-query certification state. Candidates stream past in ascending id
/// order with their bounds [lo, hi]; `lows` keeps the k largest lower
/// bounds seen so far (a min-heap, so its front is the running cut L, -inf
/// until k arrived). Any k candidates with lo >= L score at least L
/// exactly, so every member of the exact top-k has hi >= s >= L: a
/// candidate survives iff hi >= L. The cut only rises, so a candidate that
/// misses the running cut also misses the final one; `kept` holds the
/// rest, to be filtered by the final cut.
struct ScreenState {
  int64_t k = 0;
  double qnorm = 0.0;  // |x| for the certificate; +inf keeps everything
  std::vector<int64_t> excluded;  // sorted global ids to skip
  size_t excl_pos = 0;
  std::vector<double> lows;
  double cut = -kInf;
  std::vector<std::pair<int64_t, double>> kept;  // (global id, hi)

  /// Starts a new query, keeping the vectors' capacity.
  void Reset(int64_t new_k) {
    k = new_k;
    excluded.clear();
    excl_pos = 0;
    lows.clear();
    cut = -kInf;
    kept.clear();
  }
};

/// hi >= cut, with a NaN upper bound surviving.
bool Survives(double hi, double cut) { return !(hi < cut); }

/// Certifies global candidates [id0, id0 + len) with screened scores
/// `scores[j]`, row norms `norms[j]` and upper bounds `hi[j]`, skipping
/// excluded ids via segment bounds so the hot loop only compares upper
/// bounds with the cut; the lower bound is only formed for candidates
/// that reach it.
void Certify(const float* scores, const double* norms, const double* hi,
             int64_t id0, int64_t len, double eps, double alpha,
             ScreenState* st) {
  const std::vector<int64_t>& ex = st->excluded;
  const size_t k = static_cast<size_t>(st->k);
  size_t pos = st->excl_pos;
  int64_t j = 0;
  while (j < len) {
    while (pos < ex.size() && ex[pos] < id0 + j) ++pos;
    int64_t seg_end = len;
    bool skip_one = false;
    if (pos < ex.size() && ex[pos] < id0 + len) {
      seg_end = ex[pos] - id0;
      skip_one = true;
    }
    while (j < seg_end) {
      const double cut = st->cut;
      // Most candidates miss the cut: test four with one branch (`&`
      // keeps the compares branch-free).
      if (j + 4 <= seg_end &&
          (!Survives(hi[j], cut) & !Survives(hi[j + 1], cut) &
           !Survives(hi[j + 2], cut) & !Survives(hi[j + 3], cut))) {
        j += 4;
        continue;
      }
      if (!Survives(hi[j], cut)) {
        ++j;
        continue;
      }
      st->kept.emplace_back(id0 + j, hi[j]);
      const double s = scores[j];
      const double e = HalfWidth(st->qnorm * norms[j], eps, alpha);
      const double lo = std::isfinite(s) && std::isfinite(e) ? s - e : -kInf;
      if (st->lows.size() < k) {
        st->lows.push_back(lo);
        std::push_heap(st->lows.begin(), st->lows.end(), std::greater<>());
        if (st->lows.size() == k) st->cut = st->lows.front();
      } else if (lo > st->cut) {
        std::pop_heap(st->lows.begin(), st->lows.end(), std::greater<>());
        st->lows.back() = lo;
        std::push_heap(st->lows.begin(), st->lows.end(), std::greater<>());
        st->cut = st->lows.front();
      }
      ++j;
    }
    if (skip_one) {
      ++j;
      ++pos;
    }
  }
  st->excl_pos = pos;
}

/// Sorted insert of the query node into its exclusion list (the link
/// scan's always-skip-self rule, folded into the segment walk).
void InsertSelf(std::vector<int64_t>* excluded, int64_t node) {
  const auto it = std::lower_bound(excluded->begin(), excluded->end(), node);
  if (it == excluded->end() || *it != node) excluded->insert(it, node);
}

}  // namespace

std::vector<int64_t> ExcludedIds(const CsrMatrix& matrix, int64_t row) {
  const CsrMatrix::RowView view = matrix.Row(row);
  std::vector<int64_t> ids;
  ids.reserve(static_cast<size_t>(view.length));
  for (int64_t p = 0; p < view.length; ++p) {
    if (view.vals[p] != 0.0) ids.push_back(view.cols[p]);
  }
  return ids;  // CSR columns are sorted, so the list is ascending
}

void QueryEngine::BuildScreens() {
  const int64_t h = dim();
  // Zero-filled, so the last panel's padding scores 0 (and is never read).
  const auto allocate = [h](int64_t count, ScreenRows* screen) {
    const int64_t panels = (count + kScreenPanel - 1) / kScreenPanel;
    screen->count = count;
    screen->panels.assign(static_cast<size_t>(panels * h * kScreenPanel),
                          0.0f);
    screen->norms.resize(static_cast<size_t>(count));
  };
  if (y_.rows() > 0) {
    allocate(y_.rows(), &attr_screen_);
    RunRanges(pool_, y_.rows(), [&](int64_t begin, int64_t end) {
      ConvertRows(y_.Row(begin), end - begin, h, begin,
                  attr_screen_.panels.data(), attr_screen_.norms.data());
    });
  }
  const int64_t node_begin = spec_.node_begin;
  const int64_t count = spec_.node_end - node_begin;
  if (count == 0 || gram_.rows() == 0) return;
  allocate(count, &link_screen_);
  // Z = Xb G a chunk of rows at a time, never all of it in f64: the same
  // row kernel Gemm runs, so these are bitwise the rows ExactLinkScore
  // derives again for the survivors.
  const auto gemm_rows = GetMatrixKernels().gemm_rows;
  RunRanges(pool_, count, [&](int64_t begin, int64_t end) {
    std::vector<double> z(static_cast<size_t>(kDeriveChunk * h));
    for (int64_t i = begin; i < end; i += kDeriveChunk) {
      const int64_t rows = std::min(kDeriveChunk, end - i);
      gemm_rows(xb_.Row(node_begin + i), gram_.data(), z.data(), rows, h, h);
      ConvertRows(z.data(), rows, h, i, link_screen_.panels.data(),
                  link_screen_.norms.data());
    }
  });
}

Result<QueryEngine> QueryEngine::Create(ConstMatrixView xf,
                                        ConstMatrixView xb, ConstMatrixView y,
                                        ShardSpec spec, ConstMatrixView gram,
                                        const QueryEngineOptions& options) {
  if (xf.rows() == 0 || xf.cols() == 0) {
    return Status::InvalidArgument("QueryEngine requires a forward factor");
  }
  PANE_RETURN_NOT_OK(ValidateMemoryBudgetMb(options.memory_budget_mb));
  const int64_t n = xf.rows();
  const int64_t d = y.rows();
  const int64_t h = xf.cols();
  if (xb.rows() > 0 && (xb.rows() != n || xb.cols() != h)) {
    return Status::InvalidArgument("QueryEngine xb shape mismatch");
  }
  if (d > 0 && y.cols() != h) {
    return Status::InvalidArgument("QueryEngine y shape mismatch");
  }
  if (gram.rows() > 0 &&
      (xb.rows() == 0 || gram.rows() != h || gram.cols() != h)) {
    return Status::InvalidArgument(
        "QueryEngine gram must be the h x h Y^T Y, beside xb");
  }
  if (spec.shard_count <= 0 || spec.shard_index < 0 ||
      spec.shard_index >= spec.shard_count) {
    return Status::InvalidArgument(
        "shard position " + std::to_string(spec.shard_index) + "/" +
        std::to_string(spec.shard_count) + " needs 0 <= i < N");
  }
  if (spec.num_nodes != n || spec.num_attributes != d ||
      spec.node_begin < 0 || spec.node_end < spec.node_begin ||
      spec.node_end > n || spec.attr_begin < 0 ||
      spec.attr_end < spec.attr_begin || spec.attr_end > d) {
    return Status::InvalidArgument(
        "shard ranges were not cut from this " + std::to_string(n) + " x " +
        std::to_string(d) + " candidate space");
  }
  QueryEngine engine;
  engine.xf_ = xf;
  engine.xb_ = xb;
  if (spec.attr_end > spec.attr_begin) {
    engine.y_ = ConstMatrixView(y.Row(spec.attr_begin),
                                spec.attr_end - spec.attr_begin, h);
  }
  engine.pool_ = options.pool;
  const BlockShape shape = DeriveBlockShape(options, h);
  engine.query_block_ = shape.query_block;
  engine.candidate_tile_ = shape.candidate_tile;
  engine.screen_eps_ = 2.0 * (Gamma(h + 2, 0x1p-24) + Gamma(h + 2, 0x1p-53));
  engine.screen_alpha_ = 2.0 * static_cast<double>(h + 1) * 0x1p-149;
  if (options.metrics != nullptr) engine.ResolveMetrics(options.metrics);
  if (gram.rows() > 0) {
    engine.gram_.Resize(h, h);
    std::copy(gram.data(), gram.data() + h * h, engine.gram_.data());
  } else if (options.precompute_link_gram && xb.rows() > 0 && d > 0) {
    // Same kernel EdgeScorer runs for G, so p(u, w) matches it bitwise.
    GemmTransA(y, y, &engine.gram_);
  }
  spec.dim = h;
  spec.has_attributes = xb.rows() > 0 && d > 0;
  spec.has_links = engine.gram_.rows() > 0;
  engine.spec_ = spec;
  engine.BuildScreens();
  return engine;
}

Result<QueryEngine> QueryEngine::Create(ConstMatrixView xf,
                                        ConstMatrixView xb, ConstMatrixView y,
                                        const QueryEngineOptions& options) {
  return Create(xf, xb, y, MakeShardPlan(xf.rows(), y.rows(), 1).shards[0],
                ConstMatrixView(), options);
}

Result<QueryEngine> QueryEngine::Create(const EmbeddingStore& store,
                                        const ShardSpec& spec,
                                        ConstMatrixView gram,
                                        const QueryEngineOptions& options) {
  if (!store.has_attribute_factors()) {
    return Status::InvalidArgument(
        "serving engine requires the xf/xb/y factor blocks (artifact "
        "method '" +
        store.method() + "' lacks them)");
  }
  return Create(store.xf(), store.xb(), store.y(), spec, gram, options);
}

Result<QueryEngine> QueryEngine::Create(const EmbeddingStore& store,
                                        const QueryEngineOptions& options) {
  return Create(
      store,
      MakeShardPlan(store.num_nodes(), store.num_attributes(), 1).shards[0],
      ConstMatrixView(), options);
}

void QueryEngine::ResolveMetrics(obs::MetricsRegistry* registry) {
  tiles_total_ = registry->GetCounter("pane_engine_tiles_scanned_total");
  survivors_total_ =
      registry->GetCounter("pane_engine_screen_survivors_total");
  ivf_scanned_total_ =
      registry->GetCounter("pane_engine_ivf_candidates_scanned_total");
  ivf_pruned_total_ =
      registry->GetCounter("pane_engine_ivf_candidates_pruned_total");
  tiles_gauge_ = registry->GetGauge("pane_engine_tiles_last_range");
  pruned_gauge_ = registry->GetGauge("pane_engine_ivf_pruned_last_range");
}

void QueryEngine::AccumulateRange(EngineCallStats* call_stats,
                                  const RangeCounts& counts) const {
  if (call_stats != nullptr) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    call_stats->scan_ns.fetch_add(counts.scan_ns, kRelaxed);
    call_stats->select_ns.fetch_add(counts.select_ns, kRelaxed);
    call_stats->tiles.fetch_add(counts.tiles, kRelaxed);
    call_stats->survivors.fetch_add(counts.survivors, kRelaxed);
    call_stats->ivf_scanned.fetch_add(counts.ivf_scanned, kRelaxed);
    call_stats->ivf_pruned.fetch_add(counts.ivf_pruned, kRelaxed);
  }
  if (tiles_total_ != nullptr && counts.tiles > 0) {
    tiles_total_->Add(static_cast<uint64_t>(counts.tiles));
    tiles_gauge_->Set(counts.tiles);
  }
  if (survivors_total_ != nullptr && counts.survivors > 0) {
    survivors_total_->Add(static_cast<uint64_t>(counts.survivors));
  }
  if (ivf_scanned_total_ != nullptr && counts.ivf_scanned > 0) {
    ivf_scanned_total_->Add(static_cast<uint64_t>(counts.ivf_scanned));
  }
  if (ivf_pruned_total_ != nullptr && counts.ivf_pruned > 0) {
    ivf_pruned_total_->Add(static_cast<uint64_t>(counts.ivf_pruned));
    pruned_gauge_->Set(counts.ivf_pruned);
  }
}

double QueryEngine::ExactAttributeScore(int64_t v, int64_t r) const {
  const int64_t h = dim();
  const double* yr = y_.Row(r - spec_.attr_begin);
  return Dot(xf_.Row(v), yr, h) + Dot(xb_.Row(v), yr, h);
}

double QueryEngine::ExactLinkScore(int64_t u, int64_t w,
                                   double* z_row) const {
  const int64_t h = dim();
  GetMatrixKernels().gemm_rows(xb_.Row(w), gram_.data(), z_row, 1, h, h);
  return Dot(xf_.Row(u), z_row, h);
}

void QueryEngine::ProcessRange(Family family,
                               const std::vector<TopKQuery>& queries,
                               const AttributedGraph* exclude, int64_t begin,
                               int64_t end, std::vector<Ranking>* results,
                               EngineCallStats* call_stats) const {
  const bool attributes = family == Family::kAttributes;
  const ScreenRows& screen = attributes ? attr_screen_ : link_screen_;
  const int64_t base = attributes ? spec_.attr_begin : spec_.node_begin;
  const int64_t count = screen.count;
  const int64_t h = dim();
  // Stage clocks are read per tile only when the caller asked for the
  // breakdown; a tile is ~query_block x candidate_tile x h flops, so two
  // clock reads against it are noise.
  const bool timed = call_stats != nullptr;
  RangeCounts counts;
  const int64_t max_b = std::min(query_block_, end - begin);
  const int64_t tile = candidate_tile_;
  const DotBlockFn dot_block = GetDotBlock();
  std::vector<float> block(static_cast<size_t>(max_b * h));
  std::vector<float> buf(static_cast<size_t>(max_b * tile));
  std::vector<double> hi(static_cast<size_t>(tile));
  std::vector<double> row(static_cast<size_t>(h));  // x sum / z_w scratch
  std::vector<ScreenState> states(static_cast<size_t>(max_b));

  for (int64_t first = begin; first < end; first += max_b) {
    const int64_t b = std::min(max_b, end - first);
    for (int64_t q = 0; q < b; ++q) {
      const TopKQuery& query = queries[static_cast<size_t>(first + q)];
      ScreenState& st = states[static_cast<size_t>(q)];
      st.Reset(query.k);
      float* x = block.data() + q * h;
      const double* f = xf_.Row(query.node);
      if (attributes) {
        // Eq. 21 screens x = fl(xf + xb) against y; the certificate takes
        // |x| as |xf| + |xb| (see the derivation above).
        const double* bk = xb_.Row(query.node);
        for (int64_t t = 0; t < h; ++t) {
          row[static_cast<size_t>(t)] = f[t] + bk[t];
          x[t] = static_cast<float>(row[static_cast<size_t>(t)]);
        }
        st.qnorm = std::isfinite(ScreenNorm(row.data(), h))
                       ? ScreenNorm(f, h) + ScreenNorm(bk, h)
                       : kInf;
      } else {
        for (int64_t t = 0; t < h; ++t) x[t] = static_cast<float>(f[t]);
        st.qnorm = ScreenNorm(f, h);
      }
      if (exclude != nullptr) {
        st.excluded = ExcludedIds(
            attributes ? exclude->attributes() : exclude->adjacency(),
            query.node);
      }
      if (!attributes) InsertSelf(&st.excluded, query.node);
    }
    for (int64_t c0 = 0; c0 < count; c0 += tile) {
      const int64_t len = std::min(tile, count - c0);
      const int64_t scan_start = timed ? MonotonicNanos() : 0;
      // c0 is a multiple of the tile, hence of the panel width.
      dot_block(block.data(), b, screen.panels.data() + c0 * h,
                (len + kScreenPanel - 1) / kScreenPanel, h, buf.data(), tile);
      const int64_t certify_start = timed ? MonotonicNanos() : 0;
      for (int64_t q = 0; q < b; ++q) {
        ScreenState& st = states[static_cast<size_t>(q)];
        const float* scores = buf.data() + q * tile;
        const double* norms = screen.norms.data() + c0;
        UpperBounds(scores, norms, len, st.qnorm, screen_eps_, screen_alpha_,
                    hi.data());
        // Global candidate ids (base shifts the local slice), so exclusion
        // lists and tie-breaks work in global id space.
        Certify(scores, norms, hi.data(), base + c0, len, screen_eps_,
                screen_alpha_, &st);
      }
      if (timed) {
        counts.scan_ns += certify_start - scan_start;
        counts.select_ns += MonotonicNanos() - certify_start;
      }
      ++counts.tiles;
    }
    // Rescore the survivors in ascending id order through the exact scan's
    // accept rule: the worst kept pair is the threshold once the heap is
    // full, and a NaN score never enters.
    const int64_t rescore_start = timed ? MonotonicNanos() : 0;
    for (int64_t q = 0; q < b; ++q) {
      const TopKQuery& query = queries[static_cast<size_t>(first + q)];
      const ScreenState& st = states[static_cast<size_t>(q)];
      TopKHeap heap(query.k);
      double thr_score = -kInf;
      int64_t thr_index = std::numeric_limits<int64_t>::max();
      for (const auto& [id, upper] : st.kept) {
        if (!Survives(upper, st.cut)) continue;
        ++counts.survivors;
        const double s = attributes
                             ? ExactAttributeScore(query.node, id)
                             : ExactLinkScore(query.node, id, row.data());
        if (s > thr_score || (s == thr_score && id < thr_index)) {
          heap.Offer(id, s);
          if (heap.AtCapacity()) {
            thr_score = heap.Worst().second;
            thr_index = heap.Worst().first;
          }
        }
      }
      (*results)[static_cast<size_t>(first + q)] = heap.Take();
    }
    if (timed) counts.select_ns += MonotonicNanos() - rescore_start;
  }
  AccumulateRange(call_stats, counts);
}

void QueryEngine::ProbeRange(Family family,
                             const std::vector<TopKQuery>& queries,
                             int64_t nprobe, const AttributedGraph* exclude,
                             int64_t begin, int64_t end,
                             std::vector<Ranking>* results,
                             EngineCallStats* call_stats) const {
  const bool attributes = family == Family::kAttributes;
  const IvfIndex& index = attributes ? attr_index_ : link_index_;
  const int64_t h = dim();
  const bool count = call_stats != nullptr || ivf_scanned_total_ != nullptr;
  std::vector<double> sum(static_cast<size_t>(h));  // Eq. 21's xf + xb
  int64_t scanned = 0;
  const int64_t start_ns = call_stats != nullptr ? MonotonicNanos() : 0;
  for (int64_t i = begin; i < end; ++i) {
    const TopKQuery& query = queries[static_cast<size_t>(i)];
    const double* x = xf_.Row(query.node);
    if (attributes) {
      const double* bk = xb_.Row(query.node);
      for (int64_t t = 0; t < h; ++t) sum[static_cast<size_t>(t)] = x[t] + bk[t];
      x = sum.data();
    }
    const std::vector<int64_t> ex =
        exclude != nullptr
            ? ExcludedIds(attributes ? exclude->attributes()
                                     : exclude->adjacency(),
                          query.node)
            : std::vector<int64_t>();
    (*results)[static_cast<size_t>(i)] = index.Search(
        x, query.k, nprobe, ex, /*skip_id=*/attributes ? -1 : query.node,
        /*id_base=*/attributes ? spec_.attr_begin : spec_.node_begin,
        count ? &scanned : nullptr);
  }
  RangeCounts counts;
  counts.scan_ns = call_stats != nullptr ? MonotonicNanos() - start_ns : 0;
  counts.ivf_scanned = scanned;
  counts.ivf_pruned =
      count ? (end - begin) * index.num_candidates() - scanned : 0;
  AccumulateRange(call_stats, counts);
}

std::vector<Ranking> QueryEngine::TopK(Family family,
                                       const std::vector<TopKQuery>& queries,
                                       bool pruned, int64_t nprobe,
                                       const AttributedGraph* exclude,
                                       EngineCallStats* call_stats) const {
  const bool attributes = family == Family::kAttributes;
  PANE_CHECK(attributes ? supports_attributes() : supports_links())
      << (attributes ? "attribute queries need the xb and y factor blocks"
                     : "link queries need G = Y^T Y (let Create derive it "
                       "from xb and y)");
  for (const TopKQuery& q : queries) {
    PANE_CHECK(q.node >= 0 && q.node < num_nodes());
    PANE_CHECK(q.k > 0);
  }
  std::vector<Ranking> results(queries.size());
  // An empty local slice contributes nothing to any merge.
  if ((attributes ? attr_screen_ : link_screen_).count == 0) return results;
  PANE_CHECK(!pruned || !(attributes ? attr_index_ : link_index_).empty())
      << "call BuildPrunedIndex before pruned "
      << (attributes ? "attribute" : "link") << " queries";
  RunRanges(pool_, static_cast<int64_t>(queries.size()),
            [&](int64_t begin, int64_t end) {
              if (pruned) {
                ProbeRange(family, queries, nprobe, exclude, begin, end,
                           &results, call_stats);
              } else {
                ProcessRange(family, queries, exclude, begin, end, &results,
                             call_stats);
              }
            });
  return results;
}

std::vector<Ranking> QueryEngine::TopKAttributes(
    const std::vector<TopKQuery>& queries, const AttributedGraph* exclude,
    EngineCallStats* call_stats) const {
  return TopK(Family::kAttributes, queries, /*pruned=*/false, /*nprobe=*/0,
              exclude, call_stats);
}

std::vector<Ranking> QueryEngine::TopKTargets(
    const std::vector<TopKQuery>& queries, const AttributedGraph* exclude,
    EngineCallStats* call_stats) const {
  return TopK(Family::kTargets, queries, /*pruned=*/false, /*nprobe=*/0,
              exclude, call_stats);
}

std::vector<Ranking> QueryEngine::TopKAttributesPruned(
    const std::vector<TopKQuery>& queries, int64_t nprobe,
    const AttributedGraph* exclude, EngineCallStats* call_stats) const {
  return TopK(Family::kAttributes, queries, /*pruned=*/true, nprobe, exclude,
              call_stats);
}

std::vector<Ranking> QueryEngine::TopKTargetsPruned(
    const std::vector<TopKQuery>& queries, int64_t nprobe,
    const AttributedGraph* exclude, EngineCallStats* call_stats) const {
  return TopK(Family::kTargets, queries, /*pruned=*/true, nprobe, exclude,
              call_stats);
}

std::vector<double> QueryEngine::AttributeScores(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) const {
  PANE_CHECK(supports_attributes());
  std::vector<double> scores(pairs.size());
  RunRanges(pool_, static_cast<int64_t>(pairs.size()),
            [&](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                const auto& [v, r] = pairs[static_cast<size_t>(i)];
                PANE_CHECK(v >= 0 && v < num_nodes());
                PANE_CHECK(r >= 0 && r < num_attributes());
                PANE_CHECK(OwnsAttribute(r))
                    << "attribute " << r << " is not held by this shard";
                scores[static_cast<size_t>(i)] = ExactAttributeScore(v, r);
              }
            });
  return scores;
}

std::vector<double> QueryEngine::LinkScores(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) const {
  PANE_CHECK(supports_links());
  std::vector<double> scores(pairs.size());
  RunRanges(pool_, static_cast<int64_t>(pairs.size()),
            [&](int64_t begin, int64_t end) {
              std::vector<double> z_row(static_cast<size_t>(dim()));
              for (int64_t i = begin; i < end; ++i) {
                const auto& [u, w] = pairs[static_cast<size_t>(i)];
                PANE_CHECK(u >= 0 && u < num_nodes());
                PANE_CHECK(w >= 0 && w < num_nodes());
                PANE_CHECK(OwnsTarget(w))
                    << "target " << w << " is not held by this shard";
                scores[static_cast<size_t>(i)] =
                    ExactLinkScore(u, w, z_row.data());
              }
            });
  return scores;
}

Status QueryEngine::BuildPrunedIndex(const IvfOptions& options) {
  if (!supports_attributes() && !supports_links()) {
    return Status::InvalidArgument(
        "nothing to index: engine has neither attribute nor link scoring");
  }
  // Index only the local candidate slices. A shard whose slice for one
  // query family is empty simply keeps that index empty — the pruned calls
  // answer it with empty rankings, and the router's merge is unaffected.
  // The f32 screen rows are the floats the IVF would convert anyway.
  if (supports_attributes() && attr_screen_.count > 0) {
    PANE_ASSIGN_OR_RETURN(
        attr_index_,
        IvfIndex::Build(UnpackPanels(attr_screen_.panels, attr_screen_.count,
                                     dim()),
                        options));
  }
  if (supports_links() && link_screen_.count > 0) {
    PANE_ASSIGN_OR_RETURN(
        link_index_,
        IvfIndex::Build(UnpackPanels(link_screen_.panels, link_screen_.count,
                                     dim()),
                        options));
  }
  return Status::OK();
}

Status QueryEngine::SavePrunedIndex(const std::string& path) const {
  if (!has_pruned_index()) {
    return Status::InvalidArgument(
        "no pruned index built; call BuildPrunedIndex before SavePrunedIndex");
  }
  store::ContainerWriter writer;
  std::string attr_meta, link_meta;  // alive until WriteTo returns
  if (!attr_index_.empty()) {
    PANE_RETURN_NOT_OK(attr_index_.AppendToContainer("attr.", &attr_meta,
                                                     &writer));
  }
  if (!link_index_.empty()) {
    PANE_RETURN_NOT_OK(link_index_.AppendToContainer("link.", &link_meta,
                                                     &writer));
  }
  return writer.WriteTo(path);
}

Status QueryEngine::LoadPrunedIndex(const std::string& path) {
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  // Validate each stored index against this engine's candidate set before
  // touching attr_index_ / link_index_, so a mismatch leaves the engine
  // unchanged.
  IvfIndex attr_loaded, link_loaded;
  bool have_attr = false, have_link = false;
  {
    auto loaded = IvfIndex::FromContainer(container, "attr.");
    if (loaded.ok()) {
      if (!supports_attributes()) {
        return Status::InvalidArgument(
            path + " holds an attribute index but this engine has no "
                   "attribute scoring");
      }
      if (loaded->num_candidates() != attr_screen_.count ||
          loaded->dim() != dim()) {
        return Status::InvalidArgument(
            path + " attribute index was built for a different embedding "
                   "(candidate count or dimension mismatch)");
      }
      attr_loaded = loaded.MoveValueUnsafe();
      have_attr = true;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  }
  {
    auto loaded = IvfIndex::FromContainer(container, "link.");
    if (loaded.ok()) {
      if (!supports_links()) {
        return Status::InvalidArgument(
            path + " holds a link index but this engine has no link scoring");
      }
      if (loaded->num_candidates() != link_screen_.count ||
          loaded->dim() != dim()) {
        return Status::InvalidArgument(
            path + " link index was built for a different embedding "
                   "(candidate count or dimension mismatch)");
      }
      link_loaded = loaded.MoveValueUnsafe();
      have_link = true;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  }
  if (!have_attr && !have_link) {
    return Status::InvalidArgument("container " + path +
                                   " holds no pruned index");
  }
  if (have_attr) attr_index_ = std::move(attr_loaded);
  if (have_link) link_index_ = std::move(link_loaded);
  return Status::OK();
}

}  // namespace serve
}  // namespace pane
