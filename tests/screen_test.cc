// Differential tests for the exact engine's screen -> certify -> rescore
// path (src/serve/query_engine.h) against an independent full-scan oracle:
// every candidate scored with PaneEmbedding::AttributeScore (Eq. 21) or
// EdgeScorer::Score (Eq. 22), exclusions applied, then SelectTopK. The
// answers must agree in ids and in score bits, on embeddings built to break
// a certificate: exact duplicates and zero rows (ties), clusters of rows
// that differ below f32 precision (near-ties inside the bound), NaN, +-inf,
// values beyond FLT_MAX and below FLT_MIN in candidate rows and in queries,
// f32 overflow from finite inputs, k >= n, exclusion graphs, batch sizes
// 1-65 and 1-4 shards (each deriving its link rows from G = Y^T Y).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/topk.h"
#include "src/core/embedding.h"
#include "src/graph/graph.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/query_engine.h"
#include "src/serve/shard_plan.h"

namespace pane {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- The oracle ----------------------------------------------------------

// The engine's accept rule never admits a NaN score, so the oracle drops
// them before selecting.
Ranking OracleAttributes(const PaneEmbedding& e, int64_t v, int64_t k,
                         const AttributedGraph* exclude) {
  Ranking candidates;
  for (int64_t r = 0; r < e.num_attributes(); ++r) {
    if (exclude != nullptr && exclude->attributes().At(v, r) != 0.0) continue;
    const double s = e.AttributeScore(v, r);
    if (!std::isnan(s)) candidates.emplace_back(r, s);
  }
  return SelectTopK(std::move(candidates), k);
}

Ranking OracleTargets(const EdgeScorer& scorer, int64_t n, int64_t u,
                      int64_t k, const AttributedGraph* exclude) {
  Ranking candidates;
  for (int64_t w = 0; w < n; ++w) {
    if (w == u) continue;
    if (exclude != nullptr && exclude->adjacency().At(u, w) != 0.0) continue;
    const double s = scorer.Score(u, w);
    if (!std::isnan(s)) candidates.emplace_back(w, s);
  }
  return SelectTopK(std::move(candidates), k);
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameRanking(const Ranking& want, const Ranking& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].first, got[i].first) << what << " rank " << i;
    ASSERT_EQ(Bits(want[i].second), Bits(got[i].second))
        << what << " rank " << i << ": " << want[i].second << " vs "
        << got[i].second;
  }
}

// ---- A hostile embedding ---------------------------------------------------

void SetRow(DenseMatrix* m, int64_t row, double value) {
  for (int64_t t = 0; t < m->cols(); ++t) (*m)(row, t) = value;
}

/// `count` rows starting at `first`, each 10 x `base` with every entry
/// perturbed by ~2^-26 relative: the rows' exact scores differ by far more
/// than f64 rounding but by less than f32 rounding, so the screen orders
/// them arbitrarily.
void NearTieCluster(DenseMatrix* m, int64_t base, int64_t first,
                    int64_t count, Rng* rng) {
  for (int64_t i = first; i < first + count; ++i) {
    for (int64_t t = 0; t < m->cols(); ++t) {
      (*m)(i, t) = 10.0 * (*m)(base, t) * (1.0 + 0x1p-26 * rng->Gaussian());
    }
  }
}

struct Hostile {
  PaneEmbedding e;
  AttributedGraph graph;
};

/// n = 150 nodes, d = 120 attributes. Candidate-side specials sit in Y
/// (attribute rows) and, through Z = Xb G, in Xb rows (link rows); with
/// `specials_in_y` set, the Y specials also poison G, so every link score
/// is NaN or infinite.
Hostile MakeHostile(int64_t h, bool specials_in_y, uint64_t seed) {
  const int64_t n = 150, d = 120;
  Rng rng(seed);
  Hostile f;
  f.e.xf.Resize(n, h);
  f.e.xb.Resize(n, h);
  f.e.y.Resize(d, h);
  f.e.xf.FillGaussian(&rng);
  f.e.xb.FillGaussian(&rng);
  f.e.y.FillGaussian(&rng);
  // Near-ties: clusters in Y (attribute candidates) and Xb (link rows).
  NearTieCluster(&f.e.y, 0, 20, 20, &rng);
  NearTieCluster(&f.e.xb, 0, 40, 20, &rng);
  // Exact duplicates and zero rows.
  for (int64_t i = 60; i < 63; ++i) {
    for (int64_t t = 0; t < h; ++t) f.e.y(i, t) = f.e.y(1, t);
  }
  for (int64_t i = 63; i < 66; ++i) {
    for (int64_t t = 0; t < h; ++t) f.e.xb(i, t) = f.e.xb(1, t);
  }
  SetRow(&f.e.y, 66, 0.0);
  SetRow(&f.e.xb, 66, 0.0);
  // Zero queries: every finite candidate scores exactly 0.
  SetRow(&f.e.xf, 2, 0.0);
  SetRow(&f.e.xb, 2, 0.0);
  SetRow(&f.e.xf, 3, 0.0);
  // Query-side specials (xf feeds both families, xb the attribute query
  // and the node's own link row).
  f.e.xf(80, 0) = kNaN;
  f.e.xf(81, 1) = kInf;
  f.e.xf(82, 2) = -kInf;
  f.e.xf(83, 0) = 1e39;
  SetRow(&f.e.xf, 84, 3e-44);  // nonzero, below FLT_MIN
  f.e.xb(85, 1) = 1e39;
  SetRow(&f.e.xb, 86, 1e-41);
  for (int64_t t = 0; t < h; ++t) f.e.xf(87, t) *= 1e20;  // f32 overflow
  f.e.xb(88, 0) = kNaN;
  f.e.xb(89, 0) = -kInf;
  if (specials_in_y) {
    f.e.y(70, 0) = kNaN;
    f.e.y(71, 1) = kInf;
    f.e.y(72, 2) = -kInf;
    f.e.y(73, 0) = -1e39;
    SetRow(&f.e.y, 74, 5e-45);
    for (int64_t t = 0; t < h; ++t) f.e.y(75, t) *= 1e20;
  }
  // Exclusion graph: random edges and attribute entries, including edges
  // to near-tie and special rows.
  GraphBuilder builder(n, d);
  for (int i = 0; i < 900; ++i) {
    builder.AddEdge(static_cast<int64_t>(rng.UniformInt(uint64_t(n))),
                    static_cast<int64_t>(rng.UniformInt(uint64_t(n))));
    builder.AddNodeAttribute(
        static_cast<int64_t>(rng.UniformInt(uint64_t(n))),
        static_cast<int64_t>(rng.UniformInt(uint64_t(d))));
  }
  f.graph = builder.Build(false).ValueOrDie();
  return f;
}

// ---- Engines under test ------------------------------------------------------

/// One exact top-k answerer: the shard engines of one plan (one engine
/// when unsharded), merged with MergeTopK.
struct Fleet {
  std::vector<serve::QueryEngine> engines;

  std::vector<Ranking> TopK(bool attributes,
                            const std::vector<serve::TopKQuery>& queries,
                            const AttributedGraph* exclude) const {
    std::vector<std::vector<Ranking>> per_shard;
    for (const serve::QueryEngine& engine : engines) {
      per_shard.push_back(attributes
                              ? engine.TopKAttributes(queries, exclude)
                              : engine.TopKTargets(queries, exclude));
    }
    std::vector<Ranking> merged(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<Ranking> lists;
      for (const auto& answers : per_shard) lists.push_back(answers[i]);
      merged[i] = MergeTopK(lists, queries[i].k);
    }
    return merged;
  }
};

/// The plan's shards, each built by the one builder; link rows come from
/// the shared `gram`. One shard is the unsharded engine, built by the
/// 0/1 entry point, which derives G itself.
Fleet MakeShards(const PaneEmbedding& e, int num_shards, ConstMatrixView gram,
                 const serve::QueryEngineOptions& options) {
  Fleet fleet;
  const serve::ShardPlan plan =
      serve::MakeShardPlan(e.num_nodes(), e.num_attributes(), num_shards);
  for (const serve::ShardSpec& spec : plan.shards) {
    auto engine =
        num_shards == 1
            ? serve::QueryEngine::Create(e.xf.View(), e.xb.View(),
                                         e.y.View(), options)
            : serve::QueryEngine::Create(e.xf.View(), e.xb.View(),
                                         e.y.View(), spec, gram, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    fleet.engines.push_back(engine.MoveValueUnsafe());
  }
  return fleet;
}

/// Runs every node as a query at each k, in batches whose sizes cycle
/// through 1-65, with and without the exclusion graph, and compares each
/// answer with the oracle.
void ExpectMatchesOracle(const Hostile& f, const EdgeScorer& scorer,
                         const Fleet& fleet, bool attributes,
                         const std::string& what) {
  const int64_t n = f.e.num_nodes();
  for (const int64_t k : {int64_t{1}, int64_t{3}, int64_t{10}, n + 5}) {
    for (const AttributedGraph* exclude :
         {static_cast<const AttributedGraph*>(nullptr), &f.graph}) {
      int64_t batch = 1 + k % 7;
      for (int64_t first = 0; first < n; first += batch, batch = batch % 65 + 1) {
        std::vector<serve::TopKQuery> queries;
        for (int64_t v = first; v < std::min(n, first + batch); ++v) {
          queries.push_back({v, k});
        }
        const std::vector<Ranking> got =
            fleet.TopK(attributes, queries, exclude);
        for (size_t i = 0; i < queries.size(); ++i) {
          const int64_t v = queries[i].node;
          const Ranking want =
              attributes ? OracleAttributes(f.e, v, k, exclude)
                         : OracleTargets(scorer, n, v, k, exclude);
          ExpectSameRanking(want, got[i],
                            what + (attributes ? " attr" : " link") +
                                " node " + std::to_string(v) + " k " +
                                std::to_string(k) +
                                (exclude != nullptr ? " excl" : ""));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

struct ScreenCase {
  int64_t h;
  bool specials_in_y;
};

class ScreenDifferentialTest : public ::testing::TestWithParam<ScreenCase> {};

TEST_P(ScreenDifferentialTest, EnginesMatchTheOracleForAnyShardCount) {
  ThreadPool pool(3);
  serve::QueryEngineOptions serial, narrow, pooled, tiled;
  narrow.query_block = 7;
  narrow.candidate_tile = 64;  // several tiles: the cut rises across them
  pooled.pool = &pool;
  tiled.candidate_tile = 64;
  // Each blocking runs 1-4 shards (1 = the unsharded engine) over its own
  // fixture draw.
  const std::vector<std::pair<uint64_t, const serve::QueryEngineOptions*>>
      runs = {{5, &serial}, {5, &narrow}, {5, &pooled}, {6, &tiled}};
  for (const auto& [seed, options] : runs) {
    const Hostile f = MakeHostile(GetParam().h, GetParam().specials_in_y, seed);
    const EdgeScorer scorer(f.e);
    DenseMatrix gram;
    GemmTransA(f.e.y.View(), f.e.y.View(), &gram);
    for (int shards = 1; shards <= 4; ++shards) {
      const std::string what = "seed " + std::to_string(seed) + ", " +
                               std::to_string(shards) + " shards";
      const Fleet fleet = MakeShards(f.e, shards, gram.View(), *options);
      ExpectMatchesOracle(f, scorer, fleet, true, what);
      ExpectMatchesOracle(f, scorer, fleet, false, what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScreenDifferentialTest,
    ::testing::Values(ScreenCase{12, false}, ScreenCase{12, true},
                      ScreenCase{13, false}, ScreenCase{13, true}),
    [](const ::testing::TestParamInfo<ScreenCase>& p) {
      return "h" + std::to_string(p.param.h) +
             (p.param.specials_in_y ? "_specials_in_y" : "_clean_y");
    });

// Rows and queries whose entries lie below FLT_MIN round to f32 subnormals
// with a relative error far beyond the certificate's; only the
// always-rescore flag keeps the exact winner. The rows are built so that
// the screen ranks them the wrong way round (Q = 2^100, u = 2^-149):
//   a = (1.6u, 0)      -> f32 (2u, 0): against (Q, Q) screened 2Qu,
//                                      exact 1.6Qu
//   b = (1.45u, 0.45u) -> f32 (u, 0):  screened Qu, exact 1.9Qu
// and, for the query x = b against rows of size Q,
//   (Q, -0.2Q)  screened Qu,    exact 1.36Qu
//   (0.9Q, 0.9Q) screened 0.9Qu, exact 1.71Qu.
TEST(ScreenFlagTest, SubnormalRowsAndQueriesAreAlwaysRescored) {
  constexpr double kQ = 0x1p100;
  constexpr double kU = 0x1p-149;
  // Link rows and their queries. With Y = I, G = Y^T Y = I and the
  // engine's link rows Z = Xb G are the rows of z below.
  DenseMatrix xf(5, 4), z(5, 4), identity(4, 4);
  for (int64_t t = 0; t < 4; ++t) identity(t, t) = 1.0;
  xf(0, 0) = kQ;
  xf(0, 1) = kQ;
  xf(1, 0) = 1.45 * kU;
  xf(1, 1) = 0.45 * kU;
  xf(2, 2) = 1.0;
  z(0, 0) = -1.0;
  z(1, 0) = 1.6 * kU;
  z(2, 0) = 1.45 * kU;
  z(2, 1) = 0.45 * kU;
  z(3, 0) = kQ;
  z(3, 1) = -0.2 * kQ;
  z(4, 0) = 0.9 * kQ;
  z(4, 1) = 0.9 * kQ;
  const auto links =
      serve::QueryEngine::Create(xf.View(), z.View(), identity.View(), {});
  const EdgeScorer scorer(xf, z, identity);
  ASSERT_TRUE(links.ok()) << links.status();
  // The attribute family over the same vectors: xf + xb = xf, Y = Z.
  PaneEmbedding e;
  e.xf = xf;
  e.xb.Resize(5, 4);
  e.y = z;
  const auto attrs =
      serve::QueryEngine::Create(e.xf.View(), e.xb.View(), e.y.View(), {});
  ASSERT_TRUE(attrs.ok()) << attrs.status();

  for (int64_t v = 0; v < 3; ++v) {
    for (int64_t k = 1; k <= 5; ++k) {
      const std::string what =
          "node " + std::to_string(v) + " k " + std::to_string(k);
      ExpectSameRanking(OracleAttributes(e, v, k, nullptr),
                        attrs->TopKAttributes({{v, k}})[0], "attr " + what);
      Ranking want;
      for (int64_t w = 0; w < 5; ++w) {
        if (w != v) want.emplace_back(w, scorer.Score(v, w));
      }
      ExpectSameRanking(SelectTopK(std::move(want), k),
                        links->TopKTargets({{v, k}})[0], "link " + what);
    }
  }
  // The cases the flag decides: b over a for the Q-sized query...
  EXPECT_EQ(attrs->TopKAttributes({{0, 3}})[0][2].first, 2);
  EXPECT_EQ(links->TopKTargets({{0, 3}})[0][2].first, 2);
  // ...and (0.9Q, 0.9Q) over (Q, -0.2Q) for the subnormal query.
  EXPECT_EQ(links->TopKTargets({{1, 1}})[0][0].first, 4);
}

}  // namespace
}  // namespace pane
