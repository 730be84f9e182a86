// The sharded scatter-gather serving fabric, end to end: the shard plan
// and its protocol text, the one shard-engine builder (a shard is a
// row-range view of the one artifact), the router over in-process shard
// fleets and over real TCP backends, the degradation paths (a dead
// shard, a shard serving foreign rows, short or failed hops through a
// fault-injecting backend), and the parsers that validate remote shard
// replies.
//
// The load-bearing assertions are differential: a Router fronting 1–4
// shards must answer every scripted conversation byte-identically to an
// unsharded PaneServer over the same artifact — same scores (%.17g), same
// tie-breaks, same error text, same `plan` line. That identity is the
// fabric's contract (ISSUE 9), not an approximation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/node_embedding.h"
#include "src/common/logging.h"
#include "src/core/pane.h"
#include "src/matrix/gemm.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"
#include "src/serve/shard_plan.h"
#include "test_util.h"

namespace pane {
namespace {

using serve::ShardPlan;
using serve::ShardSpec;

// ---- Shard plan ---------------------------------------------------------

TEST(ShardPlanTest, TilesBothAxesContiguouslyAndNearEvenly) {
  const ShardPlan plan = serve::MakeShardPlan(10, 7, 3);
  ASSERT_EQ(plan.shards.size(), 3u);
  int64_t node_cursor = 0, attr_cursor = 0;
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    const ShardSpec& s = plan.shards[i];
    EXPECT_EQ(s.shard_index, static_cast<int64_t>(i));
    EXPECT_EQ(s.shard_count, 3);
    EXPECT_EQ(s.node_begin, node_cursor);
    EXPECT_EQ(s.attr_begin, attr_cursor);
    // Near-even: no range more than one row bigger than another.
    EXPECT_GE(s.node_end - s.node_begin, 10 / 3);
    EXPECT_LE(s.node_end - s.node_begin, 10 / 3 + 1);
    node_cursor = s.node_end;
    attr_cursor = s.attr_end;
  }
  EXPECT_EQ(node_cursor, 10);
  EXPECT_EQ(attr_cursor, 7);
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesEmptySlices) {
  const ShardPlan plan = serve::MakeShardPlan(2, 1, 4);
  ASSERT_EQ(plan.shards.size(), 4u);
  // The trailing shards hold empty ranges but still tile the space.
  EXPECT_EQ(plan.shards[3].node_begin, plan.shards[3].node_end);
  EXPECT_EQ(plan.shards[1].attr_begin, plan.shards[1].attr_end);
  std::vector<ShardSpec> specs = plan.shards;
  for (ShardSpec& s : specs) s.dim = 16;
  EXPECT_TRUE(serve::ValidateShardSpecs(specs, nullptr).ok());
}

std::vector<ShardSpec> ValidSpecs(int count) {
  ShardPlan plan = serve::MakeShardPlan(100, 40, count);
  for (ShardSpec& s : plan.shards) {
    s.dim = 16;
    s.has_attributes = true;
    s.has_links = true;
  }
  return plan.shards;
}

TEST(ShardPlanTest, ValidateAcceptsAndFillsPlan) {
  ShardPlan plan;
  ASSERT_TRUE(serve::ValidateShardSpecs(ValidSpecs(3), &plan).ok());
  EXPECT_EQ(plan.num_nodes, 100);
  EXPECT_EQ(plan.num_attributes, 40);
  EXPECT_EQ(plan.shards.size(), 3u);
}

TEST(ShardPlanTest, ValidateRejectsBadFleets) {
  EXPECT_FALSE(serve::ValidateShardSpecs({}, nullptr).ok());

  // Backends passed out of plan order.
  auto swapped = ValidSpecs(3);
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(serve::ValidateShardSpecs(swapped, nullptr).ok());

  // A gap in the node tiling (shard 1's range shrunk).
  auto gap = ValidSpecs(3);
  gap[1].node_end -= 1;
  EXPECT_FALSE(serve::ValidateShardSpecs(gap, nullptr).ok());

  // Shards cut from different artifacts (global shape mismatch).
  auto mixed = ValidSpecs(2);
  mixed[1].num_nodes += 1;
  EXPECT_FALSE(serve::ValidateShardSpecs(mixed, nullptr).ok());
  mixed = ValidSpecs(2);
  mixed[1].dim = 32;
  EXPECT_FALSE(serve::ValidateShardSpecs(mixed, nullptr).ok());

  // A missing tail shard.
  auto truncated = ValidSpecs(3);
  truncated.pop_back();
  for (ShardSpec& s : truncated) s.shard_count = 2;
  EXPECT_FALSE(serve::ValidateShardSpecs(truncated, nullptr).ok());
}

TEST(ShardPlanTest, PlanResponseRoundTrips) {
  for (const ShardSpec& spec : ValidSpecs(3)) {
    const std::string text = serve::FormatPlanResponse(spec);
    auto parsed = serve::ParsePlanResponse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << text;
    EXPECT_EQ(parsed->shard_index, spec.shard_index);
    EXPECT_EQ(parsed->shard_count, spec.shard_count);
    EXPECT_EQ(parsed->num_nodes, spec.num_nodes);
    EXPECT_EQ(parsed->num_attributes, spec.num_attributes);
    EXPECT_EQ(parsed->node_begin, spec.node_begin);
    EXPECT_EQ(parsed->node_end, spec.node_end);
    EXPECT_EQ(parsed->attr_begin, spec.attr_begin);
    EXPECT_EQ(parsed->attr_end, spec.attr_end);
    EXPECT_EQ(parsed->dim, spec.dim);
    EXPECT_EQ(parsed->has_attributes, spec.has_attributes);
    EXPECT_EQ(parsed->has_links, spec.has_links);
  }
}

TEST(ShardPlanTest, PlanResponseRejectsGarbage) {
  EXPECT_FALSE(serve::ParsePlanResponse("err shard unavailable").ok());
  EXPECT_FALSE(serve::ParsePlanResponse("stats ok requests=1").ok());
  EXPECT_FALSE(serve::ParsePlanResponse("").ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=0/1 nodes=0:10/10 attrs=0:4/4 dim=16 "
                   "attr_scoring=1")  // truncated
                   .ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=1/1 nodes=0:10/10 attrs=0:4/4 dim=16 "
                   "attr_scoring=1 link_scoring=1")  // index >= count
                   .ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=0/1 nodes=0:11/10 attrs=0:4/4 dim=16 "
                   "attr_scoring=1 link_scoring=1")  // end > total
                   .ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=0/1 nodes=0:10/10 attrs=0:4/4 dim=0 "
                   "attr_scoring=1 link_scoring=1")  // dim must be positive
                   .ok());
}

// ---- Trained artifact fixture -------------------------------------------

struct ShardFixture {
  AttributedGraph graph;
  PaneEmbedding embedding;
  std::string artifact_path;

  static const ShardFixture& Get() {
    static const ShardFixture* fixture = [] {
      auto* f = new ShardFixture();
      f->graph = testing::SmallSbm(161, 300);
      PaneOptions options;
      options.k = 32;
      f->embedding = Pane(options).Train(f->graph).ValueOrDie();
      f->artifact_path = (std::filesystem::temp_directory_path() /
                          ("shard_artifact_" + std::to_string(::getpid()) +
                           ".ctn"))
                             .string();
      PANE_CHECK_OK(NodeEmbedding::FromPane(f->embedding)
                        .SaveContainer(f->artifact_path));
      return f;
    }();
    return *fixture;
  }
};

/// G = Y^T Y of the store's full Y, as BuildLocalShards and pane_server
/// --shard derive it.
DenseMatrix StoreGram(const serve::EmbeddingStore& store) {
  DenseMatrix gram;
  GemmTransA(store.y(), store.y(), &gram);
  return gram;
}

/// The spec a shard built from `plan` position i reports: the plan's
/// ranges plus the artifact's width and capabilities.
ShardSpec ReportedSpec(const ShardPlan& plan, size_t i, int64_t dim) {
  ShardSpec spec = plan.shards[i];
  spec.dim = dim;
  spec.has_attributes = true;
  spec.has_links = true;
  return spec;
}

// ---- The shard-engine builder -------------------------------------------

TEST(ShardEngineTest, BuilderRejectsBadPositionsAndFactorlessStores) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const DenseMatrix gram = StoreGram(*store);
  const ShardPlan plan =
      serve::MakeShardPlan(store->num_nodes(), store->num_attributes(), 3);
  const auto build = [&gram](const serve::EmbeddingStore& from,
                             const ShardSpec& spec) {
    return serve::QueryEngine::Create(from, spec, gram.View(),
                                      serve::QueryEngineOptions())
        .status();
  };
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    auto engine = serve::QueryEngine::Create(*store, plan.shards[i],
                                             gram.View(),
                                             serve::QueryEngineOptions());
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ(serve::FormatPlanResponse(engine->spec()),
              serve::FormatPlanResponse(
                  ReportedSpec(plan, i, store->xf().cols())));
  }

  // Index >= count, and a negative index.
  for (const int64_t index : {int64_t{3}, int64_t{4}, int64_t{-1}}) {
    ShardSpec spec = plan.shards[2];
    spec.shard_index = index;
    EXPECT_TRUE(build(*store, spec).IsInvalidArgument()) << index;
  }
  // Count <= 0.
  for (const int64_t count : {int64_t{0}, int64_t{-3}}) {
    ShardSpec spec = plan.shards[0];
    spec.shard_count = count;
    EXPECT_TRUE(build(*store, spec).IsInvalidArgument()) << count;
  }
  // Ranges cut for another artifact's shape.
  EXPECT_TRUE(build(*store, serve::MakeShardPlan(store->num_nodes() + 1,
                                                 store->num_attributes(), 3)
                                .shards[2])
                  .IsInvalidArgument());

  // An artifact without factor blocks (features only, as the non-PANE
  // methods write).
  NodeEmbedding bare;
  bare.method = "nrp";
  bare.features.Resize(10, 4);
  bare.features(0, 0) = 1.0;
  const std::string bare_path =
      (std::filesystem::temp_directory_path() /
       ("shard_bare_" + std::to_string(::getpid()) + ".ctn"))
          .string();
  ASSERT_TRUE(bare.SaveContainer(bare_path).ok());
  auto bare_store = serve::EmbeddingStore::Open(bare_path);
  ASSERT_TRUE(bare_store.ok()) << bare_store.status();
  EXPECT_TRUE(build(*bare_store, serve::MakeShardPlan(10, 0, 2).shards[0])
                  .IsInvalidArgument());
  EXPECT_TRUE(serve::BuildLocalShards(*bare_store, 2,
                                      serve::QueryEngineOptions(),
                                      serve::ServerOptions(), nullptr)
                  .status()
                  .IsInvalidArgument());
  std::filesystem::remove(bare_path);
}

// ---- Router differential (the fabric's contract) ------------------------

/// The scripted conversation both sides answer: all four query families,
/// boundary ids, cross-shard tie potential, out-of-range errors, `plan`,
/// and a repeat (cache path). `quit` is deliberately absent so the stream
/// drains on EOF.
std::string DifferentialScript(int64_t n, int64_t d) {
  std::ostringstream script;
  for (const int64_t v : {int64_t{0}, int64_t{1}, int64_t{7}, n / 2, n - 1}) {
    script << "attr " << v << " 5\n";
    script << "link " << v << " 5\n";
    script << "pattr " << v << " " << v % d << "\n";
    script << "pair " << v << " " << (v + 1) % n << "\n";
  }
  script << "pattr 0 " << (d - 1) << "\n";
  script << "pair 0 " << (n - 1) << "\n";
  script << "attr 0 " << (d + 10) << "\n";   // k past the candidate count
  script << "pattr 0 " << d << "\n";         // id out of range
  script << "pair 0 " << n << "\n";          // id out of range
  script << "attr " << n << " 5\n";          // node out of range
  script << "bogus request\n";               // parse error
  script << "plan\n";
  script << "attr 0 5\n";                    // repeat: cache on both sides
  return script.str();
}

std::string ServeScript(serve::PaneServer* server, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  server->ServeStream(in, out);
  return out.str();
}

/// The unsharded reference transcript over the artifact store.
std::string UnshardedTranscript(const serve::EmbeddingStore& store,
                                const serve::ServerOptions& server_options,
                                const std::string& script) {
  auto engine =
      serve::QueryEngine::Create(store, serve::QueryEngineOptions());
  PANE_CHECK(engine.ok()) << engine.status();
  serve::PaneServer server(&*engine, server_options);
  return ServeScript(&server, script);
}

TEST(ShardRouterTest, LocalFleetsAnswerByteIdenticallyForAnyShardCount) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const std::string script =
      DifferentialScript(store->num_nodes(), store->num_attributes());
  const serve::ServerOptions server_options;
  const std::string expected =
      UnshardedTranscript(*store, server_options, script);

  ThreadPool pool(4);
  for (const int shards : {1, 2, 3, 4}) {
    auto fleet = serve::BuildLocalShards(*store, shards,
                                         serve::QueryEngineOptions(),
                                         server_options, nullptr);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    serve::RouterOptions router_options;
    router_options.pool = &pool;
    auto router =
        serve::Router::Create(std::move(fleet->backends), router_options);
    ASSERT_TRUE(router.ok()) << router.status();
    EXPECT_EQ(router->num_shards(), shards);
    serve::PaneServer server(&*router, server_options);
    EXPECT_EQ(ServeScript(&server, script), expected)
        << "shards=" << shards;
  }
}

TEST(ShardRouterTest, ExclusionSemanticsSurviveSharding) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const std::string script =
      DifferentialScript(store->num_nodes(), store->num_attributes());
  serve::ServerOptions server_options;
  server_options.exclude = &f.graph;
  const std::string expected =
      UnshardedTranscript(*store, server_options, script);

  auto fleet = serve::BuildLocalShards(*store, 3, serve::QueryEngineOptions(),
                                       server_options, nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      serve::RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status();
  serve::PaneServer server(&*router, server_options);
  EXPECT_EQ(ServeScript(&server, script), expected);
}

TEST(ShardRouterTest, RejectsBackendsOutOfPlanOrder) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  auto fleet = serve::BuildLocalShards(*store, 2, serve::QueryEngineOptions(),
                                       serve::ServerOptions(), nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  std::swap(fleet->backends[0], fleet->backends[1]);
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      serve::RouterOptions());
  EXPECT_FALSE(router.ok());
}

/// Pruned answers are approximate (per-slice k-means), so the reference is
/// not the unsharded pruned server but the fleet's own engines: every answer
/// of a pruned `shards`-way local fleet over `store` must be byte-identical
/// to MergeTopK over each shard engine's direct pruned top-k.
void ExpectPrunedFleetMergesItsEngines(const serve::EmbeddingStore& store,
                                       int shards,
                                       const std::vector<int64_t>& nodes) {
  serve::ServerOptions server_options;
  server_options.pruned = true;
  server_options.nprobe = 8;
  serve::IvfOptions ivf;
  ivf.kmeans_iters = 4;
  auto fleet = serve::BuildLocalShards(store, shards,
                                       serve::QueryEngineOptions(),
                                       server_options, &ivf);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      serve::RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status();
  serve::PaneServer server(&*router, server_options);

  std::string script, expected;
  for (const int64_t node : nodes) {
    for (const int64_t k : {int64_t{1}, int64_t{4}, int64_t{5}}) {
      for (const bool attrs : {true, false}) {
        serve::Request r;
        r.type = attrs ? serve::Request::Type::kTopKAttributes
                       : serve::Request::Type::kTopKTargets;
        r.a = node;
        r.k = k;
        const std::vector<serve::TopKQuery> q = {{node, k}};
        std::vector<Ranking> lists;
        for (const auto& engine : fleet->engines) {
          lists.push_back(attrs ? engine->TopKAttributesPruned(q, 8)[0]
                                : engine->TopKTargetsPruned(q, 8)[0]);
        }
        script += serve::FormatRequest(r) + "\n";
        expected += serve::FormatRanking(r, MergeTopK(lists, k)) + "\n";
      }
    }
  }
  EXPECT_EQ(ServeScript(&server, script), expected);
}

TEST(ShardRouterTest, PrunedFleetServesWellFormedRankings) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const int64_t n = store->num_nodes();
  ExpectPrunedFleetMergesItsEngines(*store, 3, {0, 3, 42, n - 1});
}

TEST(ShardRouterTest, PrunedFleetWithEmptySlicesMergesItsEngines) {
  // 4 nodes and 3 attributes cut 5 ways: shards 3 and 4 hold no attribute
  // rows and shard 4 no link candidates, so they have no index for that
  // family and answer it with empty rankings, which the merge absorbs.
  PaneEmbedding tiny;
  tiny.xf.Resize(4, 4);
  tiny.xb.Resize(4, 4);
  tiny.y.Resize(3, 4);
  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t i = 0; i < 4; ++i) {
      tiny.xf(i, t) = std::sin(1.0 + i + 0.3 * t);
      tiny.xb(i, t) = std::cos(2.0 + i - 0.7 * t);
    }
    for (int64_t r = 0; r < 3; ++r) tiny.y(r, t) = std::sin(3.0 * r + t);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("shard_tiny_" + std::to_string(::getpid()) + ".ctn"))
          .string();
  ASSERT_TRUE(NodeEmbedding::FromPane(tiny).SaveContainer(path).ok());
  auto store = serve::EmbeddingStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  const ShardPlan plan = serve::MakeShardPlan(4, 3, 5);
  ASSERT_EQ(plan.shards[3].attr_begin, plan.shards[3].attr_end);
  ASSERT_EQ(plan.shards[4].node_begin, plan.shards[4].node_end);
  ExpectPrunedFleetMergesItsEngines(*store, 5, {0, 1, 2, 3});
  std::filesystem::remove(path);
}

TEST(ShardEngineDeathTest, PrunedLocalShardWithoutIndexDies) {
  // Only an empty local slice may go without an index: a pruned query over
  // a shard whose slices hold rows, but that never built one, must abort
  // rather than answer empty rankings the merge would silently absorb.
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const ShardSpec spec =
      serve::MakeShardPlan(store->num_nodes(), store->num_attributes(), 2)
          .shards[0];
  auto engine = serve::QueryEngine::Create(*store, spec, ConstMatrixView(),
                                           serve::QueryEngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_GT(spec.attr_end, spec.attr_begin);
  ASSERT_GT(spec.node_end, spec.node_begin);
  serve::ServerOptions options;
  options.pruned = true;
  serve::LocalShard shard(&*engine, options);
  std::vector<Ranking> rankings;
  EXPECT_DEATH(shard.TopK(serve::Request::Type::kTopKAttributes, {{0, 3}},
                          &rankings, nullptr),
               "BuildPrunedIndex");
  EXPECT_DEATH(shard.TopK(serve::Request::Type::kTopKTargets, {{0, 3}},
                          &rankings, nullptr),
               "BuildPrunedIndex");
}

TEST(ShardEngineTest, UnshardedServerAnswersPlanAsShardZeroOfOne) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  auto engine = serve::QueryEngine::Create(*store, {});
  ASSERT_TRUE(engine.ok()) << engine.status();
  serve::PaneServer server(&*engine, serve::ServerOptions());
  const int64_t n = store->num_nodes();
  const int64_t d = store->num_attributes();
  const int64_t h = store->xf().cols();
  ShardSpec whole = serve::MakeShardPlan(n, d, 1).shards[0];
  whole.dim = h;
  whole.has_attributes = true;
  whole.has_links = true;
  const std::string want = "plan ok shard=0/1 nodes=0:" + std::to_string(n) +
                           "/" + std::to_string(n) + " attrs=0:" +
                           std::to_string(d) + "/" + std::to_string(d) +
                           " dim=" + std::to_string(h) +
                           " attr_scoring=1 link_scoring=1";
  EXPECT_EQ(serve::FormatPlanResponse(whole), want);
  EXPECT_EQ(ServeScript(&server, "plan\n"), want + "\n");
}

TEST(ShardRouterTest, RoutedMetricsCountEachFrontBatchOnce) {
  // One registry shared by engines, router, and front server (what
  // pane_server wires): shard hops must not record whole-batch samples of
  // their own, but their engine scans still land in the stage histogram.
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  obs::MetricsRegistry registry;
  serve::ServerOptions server_options;
  server_options.metrics = &registry;
  server_options.cache_capacity = 0;
  serve::QueryEngineOptions engine_options;
  engine_options.metrics = &registry;
  auto fleet = serve::BuildLocalShards(*store, 2, engine_options,
                                       server_options, nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  serve::RouterOptions router_options;
  router_options.metrics = &registry;
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      router_options);
  ASSERT_TRUE(router.ok()) << router.status();
  serve::PaneServer server(&*router, server_options);

  constexpr int64_t kBatches = 4;
  std::vector<std::string> responses;
  bool quit = false;
  for (int64_t b = 0; b < kBatches; ++b) {
    std::vector<serve::PaneServer::BatchEntry> batch;
    for (const char* verb : {"attr", "link", "pattr", "pair"}) {
      serve::PaneServer::BatchEntry entry;
      entry.request =
          serve::ParseRequestLine(std::string(verb) + " " +
                                  std::to_string(b) + " 3")
              .ValueOrDie();
      batch.push_back(entry);
    }
    server.ExecuteBatch(&batch, &responses, &quit);
    for (const std::string& response : responses) {
      EXPECT_NE(response.find(" ok "), std::string::npos) << response;
    }
  }
  const uint64_t batches = server.counters().batches;
  EXPECT_EQ(batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(registry.GetHistogram("pane_server_batch_us")->TakeSnapshot().count,
            batches);
  EXPECT_GE(
      registry.GetHistogram("pane_stage_engine_scan_us")->TakeSnapshot().count,
      1u);
  EXPECT_EQ(registry.GetHistogram("pane_stage_fanout_us")->TakeSnapshot().count,
            batches);
}

// ---- Degradation through a fault-injecting backend ----------------------

/// Wraps a real shard and breaks its query answers: kFail errors every
/// call, kShort drops the last answer while reporting success.
class FaultyShard final : public serve::ShardBackend {
 public:
  enum class Fault { kFail, kShort };

  FaultyShard(std::unique_ptr<serve::ShardBackend> inner, Fault fault)
      : inner_(std::move(inner)), fault_(fault) {}

  Result<ShardSpec> Plan() override { return inner_->Plan(); }

  Status TopK(serve::Request::Type family,
              const std::vector<serve::TopKQuery>& queries,
              std::vector<Ranking>* rankings,
              obs::RequestTrace* trace) override {
    if (fault_ == Fault::kFail) return Status::IOError("injected fault");
    PANE_RETURN_NOT_OK(inner_->TopK(family, queries, rankings, trace));
    rankings->pop_back();
    return Status::OK();
  }

  Status Scores(serve::Request::Type family, const serve::PairList& pairs,
                std::vector<std::optional<double>>* scores,
                obs::RequestTrace* trace) override {
    if (fault_ == Fault::kFail) return Status::IOError("injected fault");
    PANE_RETURN_NOT_OK(inner_->Scores(family, pairs, scores, trace));
    scores->pop_back();
    return Status::OK();
  }

  std::string describe() const override { return inner_->describe(); }

 private:
  std::unique_ptr<serve::ShardBackend> inner_;
  Fault fault_;
};

/// A 2-shard local fleet whose shard 1 is wrapped in a FaultyShard, behind
/// an uncached front server.
struct FaultyFleet {
  serve::LocalFleet fleet;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::PaneServer> server;

  FaultyFleet(const serve::EmbeddingStore& store, FaultyShard::Fault fault) {
    serve::ServerOptions options;
    options.cache_capacity = 0;
    fleet = serve::BuildLocalShards(store, 2, serve::QueryEngineOptions(),
                                    options, nullptr)
                .ValueOrDie();
    fleet.backends[1] =
        std::make_unique<FaultyShard>(std::move(fleet.backends[1]), fault);
    router = std::make_unique<serve::Router>(
        serve::Router::Create(std::move(fleet.backends),
                              serve::RouterOptions())
            .ValueOrDie());
    server = std::make_unique<serve::PaneServer>(router.get(), options);
  }
};

TEST(ShardDegradationTest, FailedOrShortTopKDegradesTheWholeBatch) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  for (const auto fault : {FaultyShard::Fault::kFail,
                           FaultyShard::Fault::kShort}) {
    FaultyFleet faulty(*store, fault);
    EXPECT_EQ(ServeScript(faulty.server.get(),
                          "attr 0 5\nlink 3 5\nattr 7 2\n"),
              "err shard unavailable\nerr shard unavailable\n"
              "err shard unavailable\n");
    const std::string stats = ServeScript(faulty.server.get(), "stats\n");
    EXPECT_NE(stats.find("shard1.alive=0"), std::string::npos) << stats;
    EXPECT_NE(stats.find("shard0.alive=1"), std::string::npos) << stats;
  }
}

TEST(ShardDegradationTest, FailedOwnerDegradesOnlyItsOwnPairs) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const int64_t n = store->num_nodes();
  const int64_t d = store->num_attributes();
  const ShardPlan plan = serve::MakeShardPlan(n, d, 2);
  ASSERT_GT(plan.shards[0].attr_end, 0);
  const std::string script =
      "pattr 1 0\npattr 1 " + std::to_string(d - 1) + "\npair 1 0\npair 1 " +
      std::to_string(n - 1) + "\n";
  const std::string healthy =
      UnshardedTranscript(*store, serve::ServerOptions(), script);
  std::vector<std::string> want;
  std::istringstream healthy_lines(healthy);
  for (std::string line; std::getline(healthy_lines, line);) {
    want.push_back(line);
  }
  ASSERT_EQ(want.size(), 4u);
  // Shard 0 owns candidate 0 on both axes, the faulty shard 1 the last.
  const std::string expected = want[0] + "\nerr shard unavailable\n" +
                               want[2] + "\nerr shard unavailable\n";
  for (const auto fault : {FaultyShard::Fault::kFail,
                           FaultyShard::Fault::kShort}) {
    FaultyFleet faulty(*store, fault);
    EXPECT_EQ(ServeScript(faulty.server.get(), script), expected);
  }
}

// ---- Remote reply validation --------------------------------------------

serve::Request TopKRequest(serve::Request::Type type, int64_t node,
                           int64_t k) {
  serve::Request r;
  r.type = type;
  r.a = node;
  r.k = k;
  return r;
}

TEST(RemoteReplyTest, RankingParsesOnlyTrustworthyReplies) {
  const serve::Request attr =
      TopKRequest(serve::Request::Type::kTopKAttributes, 5, 3);
  const auto parse = [&attr](const std::string& line) {
    Ranking ranking;
    return serve::ParseRankingResponse(line, attr, 10, 20, &ranking);
  };
  Ranking ranking;
  ASSERT_TRUE(serve::ParseRankingResponse("attr 5 ok 10:0.5 12:0.5 19:-1",
                                          attr, 10, 20, &ranking)
                  .ok());
  EXPECT_EQ(ranking, (Ranking{{10, 0.5}, {12, 0.5}, {19, -1.0}}));
  EXPECT_TRUE(parse("attr 5 ok").ok());  // an empty slice answers nothing

  // An err payload passes through as the error, never a ranking.
  const Status err = parse("err shard overloaded");
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.message().find("err shard overloaded"), std::string::npos);
  // Wrong verb or node.
  EXPECT_FALSE(parse("link 5 ok 12:0.5").ok());
  EXPECT_FALSE(parse("attr 6 ok 12:0.5").ok());
  EXPECT_FALSE(parse("attr 5 12:0.5").ok());
  EXPECT_FALSE(parse("").ok());
  // Malformed entries.
  for (const char* entry : {"12", "12:", ":0.5", "12-0.5", "x:0.5", "12:0.5x",
                            "12:abc", "-12:0.5"}) {
    EXPECT_FALSE(parse(std::string("attr 5 ok ") + entry).ok()) << entry;
  }
  // An overlong score, even one strtod would accept.
  EXPECT_FALSE(parse("attr 5 ok 12:0." + std::string(60, '1')).ok());
  // Ids outside the shard's range for the family.
  EXPECT_FALSE(parse("attr 5 ok 9:0.5").ok());
  EXPECT_FALSE(parse("attr 5 ok 20:0.5").ok());
  // Not strictly (score desc, index asc): rising score, tie out of index
  // order, a repeated id.
  EXPECT_FALSE(parse("attr 5 ok 11:0.25 12:0.5").ok());
  EXPECT_FALSE(parse("attr 5 ok 12:0.5 11:0.5").ok());
  EXPECT_FALSE(parse("attr 5 ok 11:0.5 11:0.5").ok());
  // More than k entries.
  EXPECT_FALSE(parse("attr 5 ok 11:0.9 12:0.8 13:0.7 14:0.6").ok());
}

TEST(RemoteReplyTest, RankingRoundTripsFormattedDoublesExactly) {
  const serve::Request link =
      TopKRequest(serve::Request::Type::kTopKTargets, 7, 8);
  const Ranking sent = {{3, 1.7976931348623157e308},
                        {0, 1.0 / 3.0},
                        {5, 0.1},
                        {1, 4.9406564584124654e-324},
                        {2, 0.0},
                        {4, -0.0},
                        {6, -2.5e-300}};
  Ranking got;
  ASSERT_TRUE(serve::ParseRankingResponse(serve::FormatRanking(link, sent),
                                          link, 0, 8, &got)
                  .ok());
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].first, sent[i].first);
    EXPECT_EQ(std::memcmp(&got[i].second, &sent[i].second, sizeof(double)), 0)
        << "entry " << i;
  }
}

TEST(RemoteReplyTest, ScoreParsesOnlyTheMatchingPair) {
  serve::Request pattr;
  pattr.type = serve::Request::Type::kAttributePair;
  pattr.a = 4;
  pattr.b = 9;
  double score = 0.0;
  const double sent = 2.0 / 3.0;
  ASSERT_TRUE(serve::ParseScoreResponse(serve::FormatScore(pattr, sent), pattr,
                                        &score)
                  .ok());
  EXPECT_EQ(std::memcmp(&score, &sent, sizeof(double)), 0);

  const Status err = serve::ParseScoreResponse("err id not on this shard",
                                               pattr, &score);
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.message().find("err id not on this shard"),
            std::string::npos);
  for (const char* line :
       {"pair 4 9 ok 0.5", "pattr 4 8 ok 0.5", "pattr 3 9 ok 0.5",
        "pattr 4 9 0.5", "pattr 4 9 ok", "pattr 4 9 ok 0.5 0.5",
        "pattr 4 9 ok 0.5x", "pattr 4 9 ok :0.5", ""}) {
    EXPECT_FALSE(serve::ParseScoreResponse(line, pattr, &score).ok())
        << line;
  }
  EXPECT_FALSE(serve::ParseScoreResponse(
                   "pattr 4 9 ok 0." + std::string(60, '1'), pattr, &score)
                   .ok());
}

// ---- Remote shards over real TCP ----------------------------------------

/// One in-process shard server bound to an ephemeral loopback port,
/// serving shard `spec` of a store through the shared builder — what
/// `pane_server --embedding=... --shard=i/N --port=...` runs.
struct TcpShard {
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::PaneServer> server;
  std::thread acceptor;
  int port = 0;

  /// `port` 0 binds an ephemeral port.
  static TcpShard Start(const serve::EmbeddingStore& store,
                        const DenseMatrix& gram, const ShardSpec& spec,
                        int port = 0) {
    TcpShard shard;
    auto engine = serve::QueryEngine::Create(store, spec, gram.View(),
                                             serve::QueryEngineOptions());
    PANE_CHECK(engine.ok()) << engine.status();
    shard.engine =
        std::make_unique<serve::QueryEngine>(engine.MoveValueUnsafe());
    shard.server = std::make_unique<serve::PaneServer>(
        shard.engine.get(), serve::ServerOptions());
    auto bound = shard.server->ListenTcp(port);
    PANE_CHECK(bound.ok()) << bound.status();
    shard.port = *bound;
    shard.acceptor = std::thread(
        [server = shard.server.get()] { server->AcceptLoop(); });
    return shard;
  }

  std::string address() const { return "127.0.0.1:" + std::to_string(port); }

  void Stop() {
    if (server == nullptr) return;
    server->Shutdown();
    if (acceptor.joinable()) acceptor.join();
  }
};

/// `count` TCP shard servers over one store, cut by MakeShardPlan, behind
/// a router and an uncached front server (so a round after a shard death
/// cannot be answered from results cached while it was alive).
struct TcpFleet {
  std::vector<TcpShard> shards;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::PaneServer> front;

  TcpFleet(const serve::EmbeddingStore& store, const DenseMatrix& gram,
           int count) {
    const ShardPlan plan =
        serve::MakeShardPlan(store.num_nodes(), store.num_attributes(), count);
    for (const ShardSpec& spec : plan.shards) {
      shards.push_back(TcpShard::Start(store, gram, spec));
    }
    std::vector<std::unique_ptr<serve::ShardBackend>> backends;
    for (const TcpShard& shard : shards) {
      backends.push_back(std::make_unique<serve::RemoteShard>(
          shard.address(), RouterOptions()));
    }
    router = std::make_unique<serve::Router>(
        serve::Router::Create(std::move(backends), RouterOptions())
            .ValueOrDie());
    serve::ServerOptions front_options;
    front_options.cache_capacity = 0;
    front = std::make_unique<serve::PaneServer>(router.get(), front_options);
  }
  ~TcpFleet() {
    for (TcpShard& shard : shards) shard.Stop();
  }

  static serve::RouterOptions RouterOptions() {
    serve::RouterOptions options;
    options.hop_timeout_ms = 5000;
    return options;
  }
};

TEST(ShardRouterTest, RemoteFleetOverTcpMatchesUnshardedAndDegradesOnDeath) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const DenseMatrix gram = StoreGram(*store);
  const int64_t n = store->num_nodes();
  const int64_t d = store->num_attributes();
  const std::string script = DifferentialScript(n, d);
  const std::string expected =
      UnshardedTranscript(*store, serve::ServerOptions(), script);

  for (const int count : {1, 2, 3, 4}) {
    TcpFleet fleet(*store, gram, count);
    // Each shard's `plan` reply over the wire is MakeShardPlan's spec.
    const ShardPlan plan = serve::MakeShardPlan(n, d, count);
    for (size_t i = 0; i < fleet.shards.size(); ++i) {
      serve::RemoteShard probe(fleet.shards[i].address(),
                               TcpFleet::RouterOptions());
      auto reported = probe.Plan();
      ASSERT_TRUE(reported.ok()) << reported.status();
      EXPECT_EQ(serve::FormatPlanResponse(*reported),
                serve::FormatPlanResponse(
                    ReportedSpec(plan, i, store->xf().cols())))
          << "shard " << i << "/" << count;
    }
    EXPECT_EQ(ServeScript(fleet.front.get(), script), expected)
        << "shards=" << count;
    if (count != 3) continue;

    // Kill the middle shard: every fresh top-k degrades (never a partial
    // merge), pairs owned by the dead shard degrade, pairs owned by live
    // shards still answer, and the stats line reports the death.
    fleet.shards[1].Stop();
    const ShardSpec& dead = fleet.shards[1].engine->spec();
    std::ostringstream post;
    post << "attr 5 3\n";
    post << "pattr 0 " << dead.attr_begin << "\n";  // dead shard's range
    post << "pattr 0 0\n";                          // shard 0's range
    post << "pair 0 " << (n - 1) << "\n";           // shard 2's range
    post << "stats\n";
    const std::string out = ServeScript(fleet.front.get(), post.str());
    std::istringstream lines(out);
    std::string line;
    std::vector<std::string> got;
    while (std::getline(lines, line)) got.push_back(line);
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[0], "err shard unavailable");
    EXPECT_EQ(got[1], "err shard unavailable");
    EXPECT_EQ(got[2].find("pattr 0 0 ok "), 0u) << got[2];
    EXPECT_EQ(got[3].find("pair 0 "), 0u) << got[3];
    EXPECT_NE(got[3].find(" ok "), std::string::npos) << got[3];
    EXPECT_NE(got[4].find("mode=router shards=3"), std::string::npos)
        << got[4];
    EXPECT_NE(got[4].find("shard1.alive=0"), std::string::npos) << got[4];
    EXPECT_NE(got[4].find("shard0.alive=1"), std::string::npos) << got[4];
  }
}

TEST(ShardRouterTest, RemoteShardServingForeignRowsDegradesInsteadOfMerging) {
  // A shard restarted on another shard position reconnects fine, but its
  // rankings carry ids outside the range it reported at the handshake.
  // Merging them would silently return wrong (here: duplicated) answers;
  // the router must degrade instead.
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const DenseMatrix gram = StoreGram(*store);
  TcpFleet fleet(*store, gram, 2);
  EXPECT_EQ(ServeScript(fleet.front.get(), "attr 5 3\n").find("attr 5 ok "),
            0u);

  // Shard 1's port now serves shard 0's rows.
  fleet.shards[1].Stop();
  fleet.shards[1].server.reset();
  TcpShard imposter =
      TcpShard::Start(*store, gram, fleet.shards[0].engine->spec(),
                      fleet.shards[1].port);
  // The first hop may still fail on the dropped connection; the second
  // reaches the imposter.
  ServeScript(fleet.front.get(), "attr 5 3\n");
  EXPECT_EQ(ServeScript(fleet.front.get(), "attr 5 3\nlink 6 3\n"),
            "err shard unavailable\nerr shard unavailable\n");
  EXPECT_NE(ServeScript(fleet.front.get(), "stats\n").find("shard1.alive=0"),
            std::string::npos);
  imposter.Stop();
}

}  // namespace
}  // namespace pane
