// Tests for the serving subsystem: exact-engine equivalence with an
// independent reference implementation (bitwise scores, exclude semantics,
// self-edge skipping, tie-breaking, any thread count / blocking), the
// mmap-backed EmbeddingStore (zero-copy views, lifetime past unlink,
// read-only pages, corrupt artifacts), the IVF pruned index's measured
// recall, and the PaneServer line protocol with batching, deduplication,
// the LRU cache, and the `stats` and `metrics` verbs rendered from one
// registry.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/node_embedding.h"
#include "src/common/logging.h"
#include "src/common/topk.h"
#include "src/core/pane.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/server.h"
#include "src/tasks/ranking.h"
#include "test_util.h"

namespace pane {
namespace {

// ---- Independent reference implementation (the pre-engine scan) ---------

Ranking ReferenceTopKAttributes(const PaneEmbedding& embedding, int64_t v,
                                int64_t k, const AttributedGraph* exclude) {
  Ranking candidates;
  for (int64_t r = 0; r < embedding.num_attributes(); ++r) {
    if (exclude != nullptr && exclude->attributes().At(v, r) != 0.0) continue;
    candidates.emplace_back(r, embedding.AttributeScore(v, r));
  }
  return SelectTopK(std::move(candidates), k);
}

Ranking ReferenceTopKTargets(const PaneEmbedding& embedding,
                             const EdgeScorer& scorer, int64_t u, int64_t k,
                             const AttributedGraph* exclude) {
  Ranking candidates;
  for (int64_t v = 0; v < embedding.num_nodes(); ++v) {
    if (v == u) continue;
    if (exclude != nullptr && exclude->adjacency().At(u, v) != 0.0) continue;
    candidates.emplace_back(v, scorer.Score(u, v));
  }
  return SelectTopK(std::move(candidates), k);
}

void ExpectSameRanking(const Ranking& expected, const Ranking& actual,
                       const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << what << " rank " << i;
    // Bitwise equality, not approximate: the engine's blocked kernel must
    // reproduce Dot's accumulation exactly.
    EXPECT_EQ(expected[i].second, actual[i].second) << what << " rank " << i;
  }
}

struct TrainedFixture {
  AttributedGraph graph;
  PaneEmbedding embedding;

  static const TrainedFixture& Get() {
    static const TrainedFixture* fixture = [] {
      auto* f = new TrainedFixture();
      f->graph = testing::SmallSbm(161, 300);
      PaneOptions options;
      options.k = 32;
      f->embedding = Pane(options).Train(f->graph).ValueOrDie();
      return f;
    }();
    return *fixture;
  }
};

serve::QueryEngineOptions EngineOptions(ThreadPool* pool = nullptr,
                                        int64_t query_block = 0,
                                        int64_t candidate_tile = 0) {
  serve::QueryEngineOptions options;
  options.pool = pool;
  options.query_block = query_block;
  options.candidate_tile = candidate_tile;
  return options;
}

serve::QueryEngine MakeEngine(const PaneEmbedding& e,
                              const serve::QueryEngineOptions& options) {
  auto engine = serve::QueryEngine::Create(e.xf.View(), e.xb.View(),
                                           e.y.View(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return engine.MoveValueUnsafe();
}

std::vector<serve::TopKQuery> AllNodeQueries(int64_t n, int64_t k) {
  std::vector<serve::TopKQuery> queries;
  for (int64_t v = 0; v < n; ++v) queries.push_back({v, k});
  return queries;
}

// ---- Exact engine equivalence -------------------------------------------

TEST(QueryEngineTest, AttributesMatchReferenceBitwise) {
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  const auto queries = AllNodeQueries(f.graph.num_nodes(), 7);
  const auto batched = engine.TopKAttributes(queries, nullptr);
  for (int64_t v = 0; v < f.graph.num_nodes(); ++v) {
    ExpectSameRanking(
        ReferenceTopKAttributes(f.embedding, v, 7, nullptr),
        batched[static_cast<size_t>(v)], "attr node " + std::to_string(v));
  }
}

TEST(QueryEngineTest, AttributesRespectExcludeSemantics) {
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  const auto queries = AllNodeQueries(f.graph.num_nodes(), 10);
  const auto batched = engine.TopKAttributes(queries, &f.graph);
  for (int64_t v = 0; v < f.graph.num_nodes(); ++v) {
    ExpectSameRanking(
        ReferenceTopKAttributes(f.embedding, v, 10, &f.graph),
        batched[static_cast<size_t>(v)], "attr+excl node " + std::to_string(v));
    for (const auto& [attr, score] : batched[static_cast<size_t>(v)]) {
      (void)score;
      EXPECT_EQ(f.graph.attributes().At(v, attr), 0.0);
    }
  }
}

TEST(QueryEngineTest, TargetsMatchReferenceAndSkipSelfAndEdges) {
  const auto& f = TrainedFixture::Get();
  const EdgeScorer scorer(f.embedding);
  const serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  const auto queries = AllNodeQueries(f.graph.num_nodes(), 9);
  for (const AttributedGraph* exclude :
       {static_cast<const AttributedGraph*>(nullptr), &f.graph}) {
    const auto batched = engine.TopKTargets(queries, exclude);
    for (int64_t u = 0; u < f.graph.num_nodes(); ++u) {
      ExpectSameRanking(
          ReferenceTopKTargets(f.embedding, scorer, u, 9, exclude),
          batched[static_cast<size_t>(u)], "link node " + std::to_string(u));
      for (const auto& [v, score] : batched[static_cast<size_t>(u)]) {
        (void)score;
        EXPECT_NE(v, u);
        if (exclude != nullptr) {
          EXPECT_EQ(f.graph.adjacency().At(u, v), 0.0);
        }
      }
    }
  }
}

TEST(QueryEngineTest, DerivedGramMatchesEdgeScorerBitwise) {
  const auto& f = TrainedFixture::Get();
  const EdgeScorer scorer(f.embedding);
  // Engine derives Z = Xb (Y^T Y) itself through the view kernels; scores
  // must still match the EdgeScorer's dense precompute bitwise.
  const serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t u = 0; u < 20; ++u) pairs.emplace_back(u, (u * 7 + 3) % 300);
  const auto scores = engine.LinkScores(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(scores[i], scorer.Score(pairs[i].first, pairs[i].second));
  }
}

TEST(QueryEngineTest, InvariantAcrossThreadsAndBlocking) {
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine baseline = MakeEngine(f.embedding, EngineOptions());
  const auto queries = AllNodeQueries(f.graph.num_nodes(), 5);
  const auto expected_attr = baseline.TopKAttributes(queries, &f.graph);
  const auto expected_link = baseline.TopKTargets(queries, &f.graph);

  ThreadPool pool(4);
  const struct {
    ThreadPool* pool;
    int64_t query_block, candidate_tile;
  } configs[] = {
      {nullptr, 1, 64},    {nullptr, 7, 101},  {nullptr, 64, 4096},
      {&pool, 0, 0},       {&pool, 3, 64},     {&pool, 128, 257},
  };
  for (const auto& config : configs) {
    const serve::QueryEngine engine = MakeEngine(
        f.embedding,
        EngineOptions(config.pool, config.query_block, config.candidate_tile));
    const auto attr = engine.TopKAttributes(queries, &f.graph);
    const auto link = engine.TopKTargets(queries, &f.graph);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameRanking(expected_attr[i], attr[i], "attr config");
      ExpectSameRanking(expected_link[i], link[i], "link config");
    }
  }
}

TEST(QueryEngineTest, DeterministicTieBreakIndexAscending) {
  // Identical factor rows => every candidate scores identically; the
  // deterministic order must return the lowest indices first.
  PaneEmbedding e;
  e.xf.Resize(6, 4);
  e.xb.Resize(6, 4);
  e.y.Resize(9, 4);
  e.xf.Fill(0.5);
  e.xb.Fill(0.25);
  e.y.Fill(1.0);
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const serve::QueryEngine engine = MakeEngine(e, EngineOptions(p, 2, 64));
    const auto attr = engine.TopKAttributes({{0, 4}, {3, 4}}, nullptr);
    for (const auto& ranking : attr) {
      ASSERT_EQ(ranking.size(), 4u);
      for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(ranking[static_cast<size_t>(i)].first, i);
    }
    const auto link = engine.TopKTargets({{2, 6}}, nullptr);
    // Self (node 2) is skipped; ties resolve index-ascending.
    const std::vector<int64_t> expect_order = {0, 1, 3, 4, 5};
    ASSERT_EQ(link[0].size(), expect_order.size());
    for (size_t i = 0; i < expect_order.size(); ++i) {
      EXPECT_EQ(link[0][i].first, expect_order[i]);
    }
  }
}

TEST(QueryEngineTest, KLargerThanCandidateSet) {
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  const auto attr = engine.TopKAttributes({{0, 100000}}, nullptr);
  EXPECT_EQ(attr[0].size(),
            static_cast<size_t>(f.graph.num_attributes()));
  const auto link = engine.TopKTargets({{0, 100000}}, nullptr);
  EXPECT_EQ(link[0].size(), static_cast<size_t>(f.graph.num_nodes() - 1));
}

TEST(QueryEngineTest, AttributeScoresMatchEq21) {
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 0}, {5, 17}, {299, 79}};
  const auto scores = engine.AttributeScores(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(scores[i],
              f.embedding.AttributeScore(pairs[i].first, pairs[i].second));
  }
}

// The offline helpers are wrappers over the engine; they must agree with
// the independent reference exactly (including the deterministic order).
TEST(RankingWrappersTest, MatchReferenceBitwise) {
  const auto& f = TrainedFixture::Get();
  const EdgeScorer scorer(f.embedding);
  for (const int64_t v : {0, 17, 299}) {
    ExpectSameRanking(ReferenceTopKAttributes(f.embedding, v, 12, &f.graph),
                      TopKAttributes(f.embedding, v, 12, &f.graph),
                      "wrapper attr");
    ExpectSameRanking(
        ReferenceTopKTargets(f.embedding, scorer, v, 12, &f.graph),
        TopKTargets(f.embedding, v, 12, &f.graph), "wrapper link");
  }
}

TEST(QueryEngineTest, CreateRejectsInconsistentShapesAndBudgets) {
  DenseMatrix xf(4, 3), xb(4, 2), y(5, 3), y_narrow(5, 2);
  // A budget whose byte count (mb << 20) overflows int64_t.
  serve::QueryEngineOptions huge;
  huge.memory_budget_mb = (std::numeric_limits<int64_t>::max() >> 20) + 1;
  EXPECT_TRUE(serve::QueryEngine::Create(xf.View(), ConstMatrixView(),
                                         ConstMatrixView(), huge)
                  .status()
                  .IsInvalidArgument());
  huge.memory_budget_mb -= 1;
  EXPECT_TRUE(serve::QueryEngine::Create(xf.View(), ConstMatrixView(),
                                         ConstMatrixView(), huge)
                  .ok());
  EXPECT_FALSE(serve::QueryEngine::Create(ConstMatrixView(), xb.View(),
                                          y.View(), {})
                   .ok());
  EXPECT_FALSE(
      serve::QueryEngine::Create(xf.View(), xb.View(), y.View(), {}).ok());
  EXPECT_FALSE(serve::QueryEngine::Create(xf.View(), ConstMatrixView(),
                                          y_narrow.View(), {})
                   .ok());
}

// ---- EmbeddingStore -----------------------------------------------------

class EmbeddingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("serve_store_" + std::to_string(::getpid()) + ".ctn"))
                .string();
    artifact_ = NodeEmbedding::FromPane(TrainedFixture::Get().embedding);
    PANE_CHECK_OK(artifact_.SaveContainer(path_));
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
  NodeEmbedding artifact_;
};

void ExpectViewEqualsMatrix(ConstMatrixView view, const DenseMatrix& m) {
  ASSERT_EQ(view.rows(), m.rows());
  ASSERT_EQ(view.cols(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(view.Row(i)[j], m(i, j));
    }
  }
}

TEST_F(EmbeddingStoreTest, OpensContainerArtifact) {
  auto store = serve::EmbeddingStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->method(), "pane");
  EXPECT_EQ(store->link_convention(), LinkConvention::kForwardBackward);
  EXPECT_TRUE(store->has_attribute_factors());
  EXPECT_GT(store->mapped_bytes(), 0);
  ExpectViewEqualsMatrix(store->features(), artifact_.features);
  ExpectViewEqualsMatrix(store->xf(), artifact_.xf);
  ExpectViewEqualsMatrix(store->xb(), artifact_.xb);
  ExpectViewEqualsMatrix(store->y(), artifact_.y);
}

TEST_F(EmbeddingStoreTest, StoreOutlivesUnlinkedFile) {
  auto store = serve::EmbeddingStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status();
  // The fd is closed at open and the mapping keeps the pages alive: a
  // rotated / deleted artifact must stay fully readable.
  ASSERT_TRUE(std::filesystem::remove(path_));
  ASSERT_FALSE(std::filesystem::exists(path_));
  ExpectViewEqualsMatrix(store->xf(), artifact_.xf);
  ExpectViewEqualsMatrix(store->y(), artifact_.y);
}

TEST_F(EmbeddingStoreTest, MappingIsReadOnly) {
  auto store = serve::EmbeddingStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status();
  // Zero-copy: every view lies inside one read-only file mapping. Find the
  // mapping containing the features view in /proc/self/maps and check its
  // permissions are r-- (PROT_READ, no write) and that it spans the other
  // blocks too.
  const uintptr_t addr =
      reinterpret_cast<uintptr_t>(store->features().data());
  std::ifstream maps("/proc/self/maps");
  if (!maps) GTEST_SKIP() << "/proc/self/maps unavailable";
  std::string line;
  bool found = false;
  while (std::getline(maps, line)) {
    uintptr_t lo = 0, hi = 0;
    char perms[5] = {0};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s",
                    reinterpret_cast<unsigned long*>(&lo),
                    reinterpret_cast<unsigned long*>(&hi), perms) != 3) {
      continue;
    }
    if (addr >= lo && addr < hi) {
      found = true;
      EXPECT_EQ(perms[0], 'r') << line;
      EXPECT_EQ(perms[1], '-') << "mapping must not be writable: " << line;
      for (const ConstMatrixView& view :
           {store->xf(), store->xb(), store->y()}) {
        const uintptr_t begin = reinterpret_cast<uintptr_t>(view.data());
        const uintptr_t bytes =
            static_cast<uintptr_t>(view.rows() * view.cols()) * sizeof(double);
        EXPECT_TRUE(begin >= lo && begin + bytes <= hi)
            << "a factor view lies outside the artifact mapping";
      }
      break;
    }
  }
  EXPECT_TRUE(found) << "mapping not found in /proc/self/maps";
}

TEST_F(EmbeddingStoreTest, EngineOverStoreMatchesViewEngine) {
  auto store = serve::EmbeddingStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status();
  auto store_engine = serve::QueryEngine::Create(*store, EngineOptions());
  ASSERT_TRUE(store_engine.ok()) << store_engine.status();
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine view_engine =
      MakeEngine(f.embedding, EngineOptions());
  const auto queries = AllNodeQueries(20, 8);
  const auto expected_attr = view_engine.TopKAttributes(queries, &f.graph);
  const auto expected_link = view_engine.TopKTargets(queries, &f.graph);
  const auto attr = store_engine->TopKAttributes(queries, &f.graph);
  const auto link = store_engine->TopKTargets(queries, &f.graph);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameRanking(expected_attr[i], attr[i], "store attr");
    ExpectSameRanking(expected_link[i], link[i], "store link");
  }
}

TEST_F(EmbeddingStoreTest, RejectsCorruptArtifacts) {
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string trunc_path = path_ + ".trunc";
  // Truncation sweep: every prefix must fail cleanly, never crash or OOM.
  for (size_t len : {size_t{0}, size_t{4}, size_t{9}, size_t{20},
                     bytes.size() / 3, bytes.size() - 8}) {
    std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(serve::EmbeddingStore::Open(trunc_path).ok())
        << "prefix " << len;
  }
  std::filesystem::remove(trunc_path);
  EXPECT_TRUE(
      serve::EmbeddingStore::Open("/nonexistent/store.ctn").status()
          .IsIOError());
}

TEST_F(EmbeddingStoreTest, ContainerOpenDetectsFlippedByte) {
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2 + 11] ^= 0x04;
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  const auto store = serve::EmbeddingStore::Open(path_);
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().message().find("checksum"), std::string::npos)
      << store.status();
}

TEST_F(EmbeddingStoreTest, RejectsMetaShapesThatOverflowTheirStream) {
  // A CRC-valid features-only container whose meta declares features of
  // 2^61 x 1 over an empty stream: 2^61 x 1 x 8 bytes wraps to 0, so an
  // unchecked product would accept it and serve a 2^61-row view of nothing.
  NodeEmbedding features_only;
  features_only.method = "pane";
  features_only.features = artifact_.features;
  const std::string clean = path_ + ".features";
  ASSERT_TRUE(features_only.SaveContainer(clean).ok());
  const std::string hostile = path_ + ".hostile";
  testing::RewriteContainer(
      clean, hostile, [](const std::string& name, std::string* payload) {
        if (name == "emb.meta") {
          const int64_t shape[2] = {int64_t{1} << 61, 1};
          std::memcpy(payload->data() + 8, shape, sizeof(shape));
        } else if (name == "emb.features") {
          payload->clear();
        }
        return true;
      });
  const auto store = serve::EmbeddingStore::Open(hostile);
  EXPECT_FALSE(store.ok()) << "opened with num_nodes() = "
                           << store->num_nodes();
  EXPECT_FALSE(NodeEmbedding::Load(hostile).ok());
  std::filesystem::remove(clean);
  std::filesystem::remove(hostile);
}

TEST(IvfIndexTest, SaveLoadRoundTripSearchesIdentical) {
  const auto& f = TrainedFixture::Get();
  serve::IvfOptions ivf;
  ivf.num_clusters = 12;
  ivf.seed = 31;
  auto built = serve::IvfIndex::Build(f.embedding.y.View(), ivf);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("serve_ivf_" + std::to_string(::getpid()) + ".ctn"))
          .string();
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded = serve::IvfIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::filesystem::remove(path);
  EXPECT_EQ(loaded->num_clusters(), built->num_clusters());
  EXPECT_EQ(loaded->num_candidates(), built->num_candidates());
  EXPECT_EQ(loaded->dim(), built->dim());
  // Identical searches, not merely similar: the container round trip may
  // not perturb a single float.
  for (const int64_t v : {int64_t{0}, int64_t{17}, int64_t{123}}) {
    const Ranking expected =
        built->Search(f.embedding.xf.View().Row(v), 10, 6);
    const Ranking actual =
        loaded->Search(f.embedding.xf.View().Row(v), 10, 6);
    ExpectSameRanking(expected, actual, "ivf node " + std::to_string(v));
  }
  EXPECT_TRUE(
      serve::IvfIndex::Load("/nonexistent/index.ctn").status().IsIOError());
}

TEST(QueryEngineTest, PrunedIndexSaveLoadRoundTrip) {
  const auto& f = TrainedFixture::Get();
  serve::QueryEngine built = MakeEngine(f.embedding, EngineOptions());
  serve::IvfOptions ivf;
  ivf.num_clusters = 8;
  ivf.seed = 5;
  PANE_CHECK_OK(built.BuildPrunedIndex(ivf));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("serve_pruned_" + std::to_string(::getpid()) + ".ctn"))
          .string();
  ASSERT_TRUE(built.SavePrunedIndex(path).ok());

  serve::QueryEngine loaded = MakeEngine(f.embedding, EngineOptions());
  EXPECT_FALSE(loaded.has_pruned_index());
  ASSERT_TRUE(loaded.LoadPrunedIndex(path).ok());
  ASSERT_TRUE(loaded.has_pruned_index());
  const auto queries = AllNodeQueries(40, 10);
  const auto expected_link = built.TopKTargetsPruned(queries, 6, nullptr);
  const auto expected_attr = built.TopKAttributesPruned(queries, 6, nullptr);
  const auto link = loaded.TopKTargetsPruned(queries, 6, nullptr);
  const auto attr = loaded.TopKAttributesPruned(queries, 6, nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameRanking(expected_link[i], link[i], "pruned link");
    ExpectSameRanking(expected_attr[i], attr[i], "pruned attr");
  }

  // An index built for a different embedding shape must be rejected, and
  // the rejection may not clobber the engine's state.
  DenseMatrix xf(10, 8), xb(10, 8), y(6, 8);
  for (int64_t i = 0; i < xf.size(); ++i) xf.data()[i] = 0.01 * (i + 1);
  for (int64_t i = 0; i < xb.size(); ++i) xb.data()[i] = 0.02 * (i + 1);
  for (int64_t i = 0; i < y.size(); ++i) y.data()[i] = 0.03 * (i + 1);
  auto mismatched = serve::QueryEngine::Create(
      xf.View(), xb.View(), y.View(), EngineOptions());
  ASSERT_TRUE(mismatched.ok()) << mismatched.status();
  const auto status = mismatched->LoadPrunedIndex(path);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_FALSE(mismatched->has_pruned_index());
  std::filesystem::remove(path);
}

// ---- IVF pruned retrieval ----------------------------------------------

TEST(IvfIndexTest, PrunedRecallRegression) {
  const auto& f = TrainedFixture::Get();
  const serve::QueryEngine* engine = [] {
    static serve::QueryEngine* e = [] {
      auto built = new serve::QueryEngine(
          MakeEngine(TrainedFixture::Get().embedding, EngineOptions()));
      serve::IvfOptions ivf;
      ivf.num_clusters = 16;
      ivf.seed = 5;
      PANE_CHECK_OK(built->BuildPrunedIndex(ivf));
      return built;
    }();
    return e;
  }();
  ASSERT_TRUE(engine->has_pruned_index());
  const auto queries = AllNodeQueries(f.graph.num_nodes(), 10);
  const auto exact_link = engine->TopKTargets(queries, nullptr);
  const auto exact_attr = engine->TopKAttributes(queries, nullptr);

  // Probing half the clusters must already reach the satellite's 0.9
  // recall bar on the running example; probing all of them ~1.
  const auto pruned_link = engine->TopKTargetsPruned(queries, 8, nullptr);
  const auto pruned_attr = engine->TopKAttributesPruned(queries, 8, nullptr);
  double link_recall = 0.0, attr_recall = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    link_recall += serve::RecallAtK(exact_link[i], pruned_link[i]);
    attr_recall += serve::RecallAtK(exact_attr[i], pruned_attr[i]);
  }
  link_recall /= static_cast<double>(queries.size());
  attr_recall /= static_cast<double>(queries.size());
  EXPECT_GE(link_recall, 0.9);
  EXPECT_GE(attr_recall, 0.9);

  const auto full_link = engine->TopKTargetsPruned(queries, 16, nullptr);
  double full_recall = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    full_recall += serve::RecallAtK(exact_link[i], full_link[i]);
  }
  full_recall /= static_cast<double>(queries.size());
  // Full probe scans every candidate; only float rounding at the top-k
  // boundary can cost recall.
  EXPECT_GE(full_recall, 0.98);
}

TEST(IvfIndexTest, PrunedRespectsExclusionAndSelfSkip) {
  const auto& f = TrainedFixture::Get();
  serve::QueryEngine engine = MakeEngine(f.embedding, EngineOptions());
  serve::IvfOptions ivf;
  ivf.num_clusters = 8;
  PANE_CHECK_OK(engine.BuildPrunedIndex(ivf));
  const auto queries = AllNodeQueries(30, 10);
  const auto link = engine.TopKTargetsPruned(queries, 8, &f.graph);
  const auto attr = engine.TopKAttributesPruned(queries, 8, &f.graph);
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t u = queries[i].node;
    for (const auto& [v, score] : link[i]) {
      (void)score;
      EXPECT_NE(v, u);
      EXPECT_EQ(f.graph.adjacency().At(u, v), 0.0);
    }
    for (const auto& [r, score] : attr[i]) {
      (void)score;
      EXPECT_EQ(f.graph.attributes().At(u, r), 0.0);
    }
  }
}

TEST(IvfIndexTest, RecallAtKHelper) {
  const Ranking exact = {{1, 3.0}, {2, 2.0}, {3, 1.0}};
  const Ranking approx = {{2, 2.0}, {9, 1.5}, {1, 3.0}};
  EXPECT_DOUBLE_EQ(serve::RecallAtK(exact, approx), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(serve::RecallAtK({}, approx), 1.0);
}

// ---- Line protocol ------------------------------------------------------

TEST(LineProtocolTest, ParsesAndFormats) {
  auto attr = serve::ParseRequestLine("attr 12 5");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, serve::Request::Type::kTopKAttributes);
  EXPECT_EQ(attr->a, 12);
  EXPECT_EQ(attr->k, 5);

  auto pair = serve::ParseRequestLine("  pair 3 4  ");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->type, serve::Request::Type::kLinkPair);
  EXPECT_EQ(serve::FormatScore(*pair, 0.5), "pair 3 4 ok 0.5");

  EXPECT_TRUE(serve::ParseRequestLine("attr x 5").status().IsInvalidArgument());
  EXPECT_TRUE(serve::ParseRequestLine("attr 1 0").status().IsInvalidArgument());
  EXPECT_TRUE(serve::ParseRequestLine("bogus 1 2").status().IsInvalidArgument());
  EXPECT_TRUE(serve::ParseRequestLine("stats 1").status().IsInvalidArgument());
  EXPECT_TRUE(serve::ParseRequestLine("attr -1 5").status().IsInvalidArgument());

  const Ranking ranking = {{4, 1.5}, {2, 0.25}};
  auto link = serve::ParseRequestLine("link 7 2");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(serve::FormatRanking(*link, ranking), "link 7 ok 4:1.5 2:0.25");
}

TEST(LineProtocolTest, ScoreFormattingRoundTripsDoubles) {
  const double value = 0.12345678901234567;
  serve::Request request;
  request.type = serve::Request::Type::kLinkPair;
  const std::string line = serve::FormatScore(request, value);
  const size_t ok = line.rfind("ok ");
  ASSERT_NE(ok, std::string::npos);
  EXPECT_EQ(std::stod(line.substr(ok + 3)), value);
}

// ---- PaneServer ---------------------------------------------------------

uint64_t Count(obs::MetricsRegistry& registry, const char* name) {
  return registry.GetCounter(name)->value();
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void WriteAll(int fd, const std::string& data) {
  ASSERT_EQ(write(fd, data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
}

/// Reads until the server closes `fd` or, given `until`, until the bytes
/// read end with it.
std::string ReadFrom(int fd, const std::string& until = "") {
  std::string out;
  char buf[4096];
  while (until.empty() || out.size() < until.size() ||
         out.compare(out.size() - until.size(), until.size(), until) != 0) {
    const ssize_t got = read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    out.append(buf, static_cast<size_t>(got));
  }
  return out;
}

/// Splits line-protocol output at its `stats` line: *stats is that line,
/// *exposition everything after it.
void SplitStatsAndMetrics(const std::string& out, std::string* stats,
                          std::string* exposition) {
  const size_t begin = out.find("stats ok");
  ASSERT_NE(begin, std::string::npos) << out;
  const size_t end = out.find('\n', begin);
  ASSERT_NE(end, std::string::npos) << out;
  *stats = out.substr(begin, end - begin);
  *exposition = out.substr(end + 1);
}

/// The value of `name=` on a `stats` line ("" when absent).
std::string StatsField(const std::string& stats, const std::string& name) {
  const size_t at = stats.find(" " + name + "=");
  if (at == std::string::npos) return "";
  const size_t begin = at + name.size() + 2;
  return stats.substr(begin, stats.find(' ', begin) - begin);
}

/// Checks a `metrics` payload (one line-protocol response, newline
/// included) against the exposition rules — each family's `# TYPE` once
/// and before its samples, no (name, labels) sample twice, `# EOF` last —
/// and returns its samples, "name{labels}" -> value.
std::map<std::string, std::string> ParseExposition(const std::string& text) {
  std::map<std::string, std::string> types;  // family -> type
  std::map<std::string, std::string> samples;
  std::istringstream lines(text);
  std::string line;
  std::string last;
  while (std::getline(lines, line)) {
    EXPECT_NE(last, "# EOF") << "content after # EOF: " << line;
    last = line;
    if (line == "# EOF") continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream header(line.substr(7));
      std::string family;
      std::string type;
      header >> family >> type;
      EXPECT_TRUE(types.emplace(family, type).second)
          << "second # TYPE for " << family;
      continue;
    }
    const size_t space = line.rfind(' ');
    const std::string key = line.substr(0, space);
    // A summary also owns its <family>_sum and <family>_count samples.
    std::string family = key.substr(0, key.find('{'));
    for (const std::string suffix : {"_sum", "_count"}) {
      const size_t cut = family.size() - std::min(family.size(), suffix.size());
      const auto owner = types.find(family.substr(0, cut));
      if (types.count(family) == 0 && family.substr(cut) == suffix &&
          owner != types.end() && owner->second == "summary") {
        family.resize(cut);
      }
    }
    EXPECT_EQ(types.count(family), 1u) << "sample before its # TYPE: " << line;
    EXPECT_TRUE(samples.emplace(key, line.substr(space + 1)).second)
        << "second sample " << key;
  }
  EXPECT_EQ(last, "# EOF");
  return samples;
}

/// Every count on a `stats` line equals the registry sample it reads: its
/// pane_server_<name>_total family, and for the transport's two counts
/// pane_transport_<name>_total as well.
void ExpectStatsMatchSamples(
    const std::string& stats,
    const std::map<std::string, std::string>& samples) {
  for (const std::string name : {"requests", "batches", "dedup_hits",
                                 "cache_hits", "errors", "timeouts",
                                 "rejected", "frames"}) {
    const std::string value = StatsField(stats, name);
    EXPECT_FALSE(value.empty()) << name << " missing from " << stats;
    const auto server = samples.find("pane_server_" + name + "_total");
    ASSERT_NE(server, samples.end()) << name;
    EXPECT_EQ(server->second, value) << name;
    if (name == "timeouts" || name == "rejected") {
      const auto transport =
          samples.find("pane_transport_" + name + "_total");
      ASSERT_NE(transport, samples.end()) << name;
      EXPECT_EQ(transport->second, value) << name;
    }
  }
}

class PaneServerTest : public ::testing::Test {
 protected:
  PaneServerTest()
      : engine_(MakeEngine(TrainedFixture::Get().embedding, EngineOptions())) {}

  std::string Serve(const std::string& script, serve::ServerOptions options,
                    obs::MetricsRegistry* registry = nullptr) {
    options.metrics = registry;
    serve::PaneServer server(&engine_, options);
    std::istringstream in(script);
    std::ostringstream out;
    server.ServeStream(in, out);
    return out.str();
  }

  serve::QueryEngine engine_;
};

TEST_F(PaneServerTest, AnswersMatchDirectEngineCalls) {
  serve::ServerOptions options;
  const std::string out = Serve("attr 3 4\nlink 3 4\npattr 3 7\npair 3 9\n",
                                options);
  const auto attr = engine_.TopKAttributes({{3, 4}}, nullptr);
  const auto link = engine_.TopKTargets({{3, 4}}, nullptr);
  serve::Request r;
  r.type = serve::Request::Type::kTopKAttributes;
  r.a = 3;
  r.k = 4;
  std::string expected = serve::FormatRanking(r, attr[0]) + "\n";
  r.type = serve::Request::Type::kTopKTargets;
  expected += serve::FormatRanking(r, link[0]) + "\n";
  r.type = serve::Request::Type::kAttributePair;
  r.b = 7;
  expected += serve::FormatScore(r, engine_.AttributeScores({{3, 7}})[0]) + "\n";
  r.type = serve::Request::Type::kLinkPair;
  r.b = 9;
  expected += serve::FormatScore(r, engine_.LinkScores({{3, 9}})[0]) + "\n";
  EXPECT_EQ(out, expected);
}

TEST_F(PaneServerTest, BatchingPreservesRequestOrder) {
  serve::ServerOptions options;
  options.batch_size = 3;  // force several flushes over one stream
  const std::string script =
      "attr 0 2\nattr 1 2\nattr 2 2\nlink 0 2\n\nattr 3 2\nlink 1 2\n";
  const std::string out = Serve(script, options);
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0].rfind("attr 0 ok", 0), 0u);
  EXPECT_EQ(got[3].rfind("link 0 ok", 0), 0u);
  EXPECT_EQ(got[4].rfind("attr 3 ok", 0), 0u);
  EXPECT_EQ(got[5].rfind("link 1 ok", 0), 0u);
}

TEST_F(PaneServerTest, DedupAndCacheCounters) {
  serve::ServerOptions options;
  options.batch_size = 8;
  obs::MetricsRegistry registry;
  // Same request thrice in one batch (dedup), then again after a flush
  // (cache hit).
  const std::string out = Serve(
      "attr 5 3\nattr 5 3\nattr 5 3\n\nattr 5 3\nstats\n", options, &registry);
  EXPECT_EQ(Count(registry, "pane_server_dedup_hits_total"), 2u);
  EXPECT_EQ(Count(registry, "pane_server_cache_hits_total"), 1u);
  EXPECT_EQ(Count(registry, "pane_server_requests_total"), 5u);
  // All four attr responses must be identical.
  std::istringstream lines(out);
  std::string first, line;
  ASSERT_TRUE(std::getline(lines, first));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, first);
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("stats ok", 0), 0u);
  EXPECT_NE(line.find("mode=exact"), std::string::npos);
}

TEST_F(PaneServerTest, CacheEvictionWithTinyCapacity) {
  serve::ServerOptions options;
  options.cache_capacity = 1;
  obs::MetricsRegistry one;
  // a, b evicts a, re-asking a misses, re-asking b after a misses too.
  Serve("attr 0 2\n\nattr 1 2\n\nattr 0 2\n\nattr 1 2\n", options, &one);
  EXPECT_EQ(Count(one, "pane_server_cache_hits_total"), 0u);
  // With capacity 2 both repeats hit.
  options.cache_capacity = 2;
  obs::MetricsRegistry two;
  Serve("attr 0 2\n\nattr 1 2\n\nattr 0 2\n\nattr 1 2\n", options, &two);
  EXPECT_EQ(Count(two, "pane_server_cache_hits_total"), 2u);
}

TEST_F(PaneServerTest, MalformedAndOutOfRangeRequestsGetErrors) {
  serve::ServerOptions options;
  obs::MetricsRegistry registry;
  const std::string out = Serve(
      "nonsense\nattr 999999 3\npair 0 999999\nattr 0 2\n", options,
      &registry);
  std::istringstream lines(out);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("err ", 0), 0u);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "err node out of range");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "err id out of range");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("attr 0 ok", 0), 0u);
  EXPECT_EQ(Count(registry, "pane_server_errors_total"), 3u);
}

TEST_F(PaneServerTest, QuitStopsTheStream) {
  serve::ServerOptions options;
  const std::string out = Serve("attr 0 1\nquit\nattr 1 1\n", options);
  std::istringstream lines(out);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("attr 0 ok", 0), 0u);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "bye");
  EXPECT_FALSE(std::getline(lines, line));  // nothing served after quit
}

TEST_F(PaneServerTest, PrunedModeServes) {
  serve::QueryEngine engine =
      MakeEngine(TrainedFixture::Get().embedding, EngineOptions());
  serve::IvfOptions ivf;
  ivf.num_clusters = 8;
  PANE_CHECK_OK(engine.BuildPrunedIndex(ivf));
  serve::ServerOptions options;
  options.pruned = true;
  options.nprobe = 8;
  serve::PaneServer server(&engine, options);
  std::istringstream in("attr 2 5\nlink 2 5\nstats\n");
  std::ostringstream out;
  server.ServeStream(in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("attr 2 ok"), std::string::npos);
  EXPECT_NE(text.find("link 2 ok"), std::string::npos);
  EXPECT_NE(text.find("mode=pruned nprobe=8"), std::string::npos);
}

TEST_F(PaneServerTest, ServesOverTcp) {
  serve::ServerOptions options;
  serve::PaneServer server(&engine_, options);
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status();
  std::thread acceptor([&server] { server.AcceptLoop(); });

  const int fd = ConnectLoopback(*port);
  WriteAll(fd, "attr 4 3\nquit\n");
  const std::string response = ReadFrom(fd);
  close(fd);
  server.Shutdown();
  acceptor.join();

  const auto expected_ranking = engine_.TopKAttributes({{4, 3}}, nullptr);
  serve::Request r;
  r.type = serve::Request::Type::kTopKAttributes;
  r.a = 4;
  r.k = 3;
  EXPECT_EQ(response,
            serve::FormatRanking(r, expected_ranking[0]) + "\nbye\n");
}

TEST_F(PaneServerTest, StatsAndMetricsRenderOneRegistry) {
  obs::MetricsRegistry registry;
  serve::ServerOptions options;
  options.metrics = &registry;
  serve::PaneServer server(&engine_, options);
  // A framed session: two equal requests in one batch (one dedup hit).
  std::string frames;
  serve::AppendFrame("attr 5 3", &frames);
  serve::AppendFrame("attr 5 3", &frames);
  std::istringstream framed_in(frames);
  std::ostringstream framed_out;
  server.ServeStream(framed_in, framed_out);
  // A line session: the same request again (a cache hit) and a malformed
  // line, then stats and metrics in one batch of their own.
  std::istringstream in("attr 5 3\nnonsense\n\nstats\nmetrics\n");
  std::ostringstream out;
  server.ServeStream(in, out);

  std::string stats;
  std::string exposition;
  SplitStatsAndMetrics(out.str(), &stats, &exposition);
  EXPECT_EQ(stats.rfind("stats ok requests=5 batches=1 dedup_hits=1 "
                        "cache_hits=1 errors=1 timeouts=0 rejected=0 "
                        "frames=2 ",
                        0),
            0u)
      << stats;
  ExpectStatsMatchSamples(stats, ParseExposition(exposition));
}

TEST_F(PaneServerTest, RefusedConnectionCountsOnceInStatsAndMetrics) {
  obs::MetricsRegistry registry;
  serve::ServerOptions options;
  options.metrics = &registry;
  options.max_connections = 1;
  serve::PaneServer server(&engine_, options);
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status();
  std::thread acceptor([&server] { server.AcceptLoop(); });

  const int held = ConnectLoopback(*port);
  // A served request proves `held` is admitted before the second connect.
  WriteAll(held, "attr 0 1\n");
  ReadFrom(held, "\n");
  const int refused = ConnectLoopback(*port);
  EXPECT_EQ(ReadFrom(refused), "err server busy\n");
  close(refused);
  WriteAll(held, "stats\nmetrics\nquit\n");
  const std::string response = ReadFrom(held);
  close(held);
  server.Shutdown();
  acceptor.join();

  std::string stats;
  std::string exposition;
  SplitStatsAndMetrics(response, &stats, &exposition);
  EXPECT_EQ(StatsField(stats, "rejected"), "1") << stats;
  const std::map<std::string, std::string> samples =
      ParseExposition(exposition.substr(0, exposition.rfind("bye\n")));
  EXPECT_EQ(samples.at("pane_transport_rejected_total"), "1");
  ExpectStatsMatchSamples(stats, samples);
}

}  // namespace
}  // namespace pane
