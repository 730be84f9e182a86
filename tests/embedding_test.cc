// Tests for the trained-embedding scorers: scoring formulas (Equations
// 21-22) against naive evaluation. Persistence goes through NodeEmbedding's
// container (node_embedding_test).
#include "src/core/embedding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/common/random.h"
#include "src/matrix/vector_ops.h"

namespace pane {
namespace {

PaneEmbedding RandomEmbedding(int64_t n, int64_t d, int h, uint64_t seed) {
  Rng rng(seed);
  PaneEmbedding e;
  e.xf.Resize(n, h);
  e.xb.Resize(n, h);
  e.y.Resize(d, h);
  e.xf.FillGaussian(&rng);
  e.xb.FillGaussian(&rng);
  e.y.FillGaussian(&rng);
  return e;
}

TEST(EmbeddingTest, AttributeScoreMatchesEquation21) {
  const PaneEmbedding e = RandomEmbedding(10, 6, 4, 1);
  for (int64_t v = 0; v < 10; ++v) {
    for (int64_t r = 0; r < 6; ++r) {
      double expected = 0.0;
      for (int64_t l = 0; l < 4; ++l) {
        expected += e.xf(v, l) * e.y(r, l) + e.xb(v, l) * e.y(r, l);
      }
      EXPECT_NEAR(e.AttributeScore(v, r), expected, 1e-12);
    }
  }
}

TEST(EdgeScorerTest, MatchesEquation22Naive) {
  const PaneEmbedding e = RandomEmbedding(8, 5, 3, 2);
  const EdgeScorer scorer(e);
  for (int64_t u = 0; u < 8; ++u) {
    for (int64_t w = 0; w < 8; ++w) {
      // p(u, w) = sum_r (Xf[u].Y[r]) * (Xb[w].Y[r])
      double expected = 0.0;
      for (int64_t r = 0; r < 5; ++r) {
        const double f = Dot(e.xf.Row(u), e.y.Row(r), 3);
        const double b = Dot(e.xb.Row(w), e.y.Row(r), 3);
        expected += f * b;
      }
      EXPECT_NEAR(scorer.Score(u, w), expected, 1e-10);
    }
  }
}

TEST(EdgeScorerTest, UndirectedIsSymmetricSum) {
  const PaneEmbedding e = RandomEmbedding(6, 4, 2, 3);
  const EdgeScorer scorer(e);
  for (int64_t u = 0; u < 6; ++u) {
    for (int64_t w = 0; w < 6; ++w) {
      EXPECT_NEAR(scorer.ScoreUndirected(u, w),
                  scorer.Score(u, w) + scorer.Score(w, u), 1e-12);
      EXPECT_NEAR(scorer.ScoreUndirected(u, w), scorer.ScoreUndirected(w, u),
                  1e-12);
    }
  }
}

TEST(EdgeScorerTest, OutlivesTheSourceEmbedding) {
  // The scorer owns copies of everything it scores with: destroying the
  // embedding it was built from must not invalidate it.
  auto embedding = std::make_unique<PaneEmbedding>(RandomEmbedding(6, 4, 2, 5));
  const EdgeScorer scorer(*embedding);
  const double before = scorer.Score(1, 2);
  embedding.reset();
  EXPECT_DOUBLE_EQ(scorer.Score(1, 2), before);
  EXPECT_TRUE(std::isfinite(scorer.ScoreUndirected(3, 4)));
}

TEST(EdgeScorerTest, FactorMatrixConstructorMatchesEmbeddingConstructor) {
  const PaneEmbedding e = RandomEmbedding(7, 5, 3, 6);
  const EdgeScorer from_embedding(e);
  const EdgeScorer from_factors(e.xf, e.xb, e.y);
  for (int64_t u = 0; u < 7; ++u) {
    for (int64_t w = 0; w < 7; ++w) {
      EXPECT_DOUBLE_EQ(from_embedding.Score(u, w), from_factors.Score(u, w));
    }
  }
}

}  // namespace
}  // namespace pane
