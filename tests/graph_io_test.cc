// Round-trip and corrupt-input tests for the graph text / container /
// edge-list persistence layer.
#include "src/graph/graph_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/api/node_embedding.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

namespace pane {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pane_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  // Saves `g` as a container, then rewrites it through `patch` with fresh
  // checksums, so the corruption reaches the structural checks.
  std::string PatchedContainer(const AttributedGraph& g,
                               const testing::StreamPatch& patch) {
    const std::string clean = Path("clean.ctn");
    const std::string patched = Path("patched.ctn");
    EXPECT_TRUE(SaveGraphContainer(g, clean).ok());
    testing::RewriteContainer(clean, patched, patch);
    return patched;
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open());
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  // Writes a minimal text-layout graph directory with the given edges /
  // attrs file contents.
  void WriteTextGraph(const std::string& dir, const std::string& edges,
                      const std::string& attrs,
                      const std::string& meta = "4 3 1\n") {
    std::filesystem::create_directories(dir);
    WriteFile(dir + "/meta.txt", meta);
    WriteFile(dir + "/edges.txt", edges);
    WriteFile(dir + "/attrs.txt", attrs);
  }

  std::filesystem::path dir_;
};

AttributedGraph SampleGraph() {
  SbmParams params;
  params.num_nodes = 120;
  params.num_edges = 500;
  params.num_attributes = 30;
  params.num_attr_entries = 400;
  params.num_communities = 4;
  params.seed = 9;
  return GenerateAttributedSbm(params);
}

void ExpectGraphsEqual(const AttributedGraph& a, const AttributedGraph& b) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_attributes(), b.num_attributes());
  EXPECT_EQ(a.num_attribute_entries(), b.num_attribute_entries());
  EXPECT_EQ(a.undirected(), b.undirected());
  EXPECT_EQ(a.adjacency().ToDense().MaxAbsDiff(b.adjacency().ToDense()), 0.0);
  EXPECT_LT(a.attributes().ToDense().MaxAbsDiff(b.attributes().ToDense()),
            1e-14);
  ASSERT_EQ(a.labels().size(), b.labels().size());
  for (size_t v = 0; v < a.labels().size(); ++v) {
    EXPECT_EQ(a.labels()[v], b.labels()[v]) << "node " << v;
  }
}

TEST_F(GraphIoTest, TextRoundTrip) {
  const AttributedGraph g = SampleGraph();
  const std::string dir = (dir_ / "text").string();
  ASSERT_TRUE(SaveGraphText(g, dir).ok());
  auto loaded = LoadGraphText(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectGraphsEqual(g, *loaded);
}

TEST_F(GraphIoTest, LoadTextMissingDirectoryFails) {
  EXPECT_TRUE(LoadGraphText((dir_ / "nope").string()).status().IsIOError());
}

TEST_F(GraphIoTest, LoadContainerMissingFileFails) {
  EXPECT_TRUE(
      LoadGraphContainer((dir_ / "nope.ctn").string()).status().IsIOError());
}

TEST_F(GraphIoTest, LoadContainerRejectsGarbage) {
  const std::string path = (dir_ / "junk.ctn").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a graph", f);
    std::fclose(f);
  }
  const auto loaded = LoadGraphContainer(path);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(GraphIoTest, TextParallelLoadMatchesSequential) {
  const AttributedGraph g = SampleGraph();
  const std::string dir = Path("text_par");
  ASSERT_TRUE(SaveGraphText(g, dir).ok());
  ThreadPool pool(4);
  auto loaded = LoadGraphText(dir, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectGraphsEqual(g, *loaded);
}

TEST_F(GraphIoTest, TextRejectsMalformedEdgeLineWithLineNumber) {
  const std::string dir = Path("bad_edges");
  WriteTextGraph(dir, "0 1\n1 zzz\n2 3\n", "");
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("edges.txt"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status();
}

TEST_F(GraphIoTest, TextRejectsTrailingGarbageOnEdgeLine) {
  const std::string dir = Path("bad_edges2");
  WriteTextGraph(dir, "0 1\n1 2 stray\n", "");
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST_F(GraphIoTest, TextRejectsMalformedAttrLine) {
  const std::string dir = Path("bad_attrs");
  WriteTextGraph(dir, "0 1\n", "0 0 0.5\n1 2 nope\n");
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("attrs.txt"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status();
}

TEST_F(GraphIoTest, TextRejectsMalformedLabelLine) {
  const std::string dir = Path("bad_labels");
  WriteTextGraph(dir, "0 1\n", "");
  WriteFile(dir + "/labels.txt", "0 1\n1 oops\n");
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("labels.txt"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST_F(GraphIoTest, TextRejectsMalformedMeta) {
  const std::string dir = Path("bad_meta");
  WriteTextGraph(dir, "0 1\n", "", "4 three 1\n");
  EXPECT_TRUE(LoadGraphText(dir).status().IsInvalidArgument());
  const std::string dir2 = Path("bad_meta2");
  WriteTextGraph(dir2, "0 1\n", "", "4 3 7\n");  // directed must be 0|1
  EXPECT_TRUE(LoadGraphText(dir2).status().IsInvalidArgument());
}

TEST_F(GraphIoTest, TextRejectsHugeMetaCountsWithoutAllocating) {
  const std::string dir = Path("huge_meta");
  WriteTextGraph(dir, "0 1\n", "", "999999999999999 1 1\n");
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("2^31"), std::string::npos);
}

TEST_F(GraphIoTest, TextRejectsNanAttributeWeight) {
  const std::string dir = Path("nan_attrs");
  WriteTextGraph(dir, "0 1\n", "0 0 nan\n");
  EXPECT_FALSE(LoadGraphText(dir).ok());
}

TEST_F(GraphIoTest, TextRejectsOutOfRangeEdge) {
  const std::string dir = Path("oob_edges");
  WriteTextGraph(dir, "0 9\n", "");  // node 9 outside n=4
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange)
      << loaded.status();
}

// --- corrupt graph containers ---------------------------------------------

/// A patch that overwrites element `index` of the array stream `stream`.
template <typename T>
testing::StreamPatch SetElement(const std::string& stream, size_t index,
                                T value) {
  return [=](const std::string& name, std::string* payload) {
    if (name == stream) {
      std::memcpy(payload->data() + index * sizeof(T), &value, sizeof(T));
    }
    return true;
  };
}

TEST_F(GraphIoTest, ContainerTruncatedAtEveryPrefixFailsCleanly) {
  const AttributedGraph g = SampleGraph();
  const std::string path = Path("good.ctn");
  ASSERT_TRUE(SaveGraphContainer(g, path).ok());
  const std::string bytes = ReadFile(path);
  // Every strict prefix must produce a Status error (never a crash or a
  // graph). Step through a spread of cut points including all short ones.
  for (size_t cut = 0; cut < bytes.size();
       cut += (cut < 64 ? 1 : bytes.size() / 37)) {
    const std::string truncated_path = Path("truncated.ctn");
    WriteFile(truncated_path, bytes.substr(0, cut));
    const auto loaded = LoadGraphContainer(truncated_path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST_F(GraphIoTest, ContainerOversizedShapeIsErrorNotAllocation) {
  // graph.meta claims 2^60 rows for both CSRs (i64 shapes from byte 8): the
  // loader must fail on the indptr length check, not size anything by it.
  const int64_t huge = int64_t{1} << 60;
  const auto loaded = LoadGraphContainer(PatchedContainer(
      SampleGraph(), [huge](const std::string& name, std::string* payload) {
        if (name == "graph.meta") {
          std::memcpy(payload->data() + 8, &huge, sizeof(huge));
          std::memcpy(payload->data() + 24, &huge, sizeof(huge));
        }
        return true;
      }));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("does not match"),
            std::string::npos);
}

TEST_F(GraphIoTest, ContainerOutOfRangeColumnIndexRejected) {
  const auto loaded = LoadGraphContainer(PatchedContainer(
      SampleGraph(), SetElement<int32_t>("graph.adj.indices", 0, 0x7fffffff)));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange)
      << loaded.status();
}

TEST_F(GraphIoTest, ContainerNonMonotoneIndptrRejected) {
  EXPECT_FALSE(LoadGraphContainer(
                   PatchedContainer(SampleGraph(),
                                    SetElement<int64_t>("graph.adj.indptr",
                                                        1, -5)))
                   .ok());
}

TEST_F(GraphIoTest, ContainerLabelOffsetsPastTheIdListRejected) {
  // n = 2, offsets {0, 2^20, 0} over zero label ids: the last offset still
  // spans the (empty) id list, so only a per-node bound on `end` stops node
  // 0 from reading 2^20 ids past the stream.
  const AttributedGraph g =
      GraphBuilder(2, 1).AddEdge(0, 1).Build().ValueOrDie();
  const auto loaded = LoadGraphContainer(PatchedContainer(
      g, SetElement<int64_t>("graph.label.offsets", 1, int64_t{1} << 20)));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("label offsets"),
            std::string::npos)
      << loaded.status();
}

TEST_F(GraphIoTest, ContainerSelfLoopAndWeightedAdjacencyRejected) {
  const AttributedGraph g =
      GraphBuilder(2, 1).AddEdge(0, 1).Build().ValueOrDie();
  {
    const auto loaded = LoadGraphContainer(PatchedContainer(
        g, SetElement<int32_t>("graph.adj.indices", 0, 0)));  // edge (0, 0)
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("self-loop"), std::string::npos)
        << loaded.status();
  }
  EXPECT_FALSE(LoadGraphContainer(
                   PatchedContainer(
                       g, SetElement<double>("graph.adj.values", 0, 2.0)))
                   .ok());
}

TEST_F(GraphIoTest, ContainerNanAttributeWeightRejected) {
  const AttributedGraph g = GraphBuilder(2, 1)
                                .AddEdge(0, 1)
                                .AddNodeAttribute(0, 0, 0.5)
                                .Build()
                                .ValueOrDie();
  const auto loaded = LoadGraphContainer(PatchedContainer(
      g, SetElement<double>("graph.attr.values", 0, std::nan(""))));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("attribute"), std::string::npos)
      << loaded.status();
}

// --- edge lists ------------------------------------------------------------

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  const AttributedGraph g = SampleGraph();
  const std::string path = Path("graph.el");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  EdgeListOptions options;
  options.num_nodes = g.num_nodes();
  auto loaded = LoadEdgeList(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->adjacency().ToDense().MaxAbsDiff(
                g.adjacency().ToDense()),
            0.0);
  EXPECT_EQ(loaded->num_attributes(), 0);
}

TEST_F(GraphIoTest, EdgeListInfersNodeCountSkipsCommentsAndWeights) {
  const std::string path = Path("snap.el");
  WriteFile(path,
            "# SNAP-style header\n% konect too\n0 1\n1 2 0.5\n\n3 4\n");
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), 5);
  EXPECT_EQ(loaded->num_edges(), 3);
}

TEST_F(GraphIoTest, EdgeListUndirectedMirrorsEdges) {
  const std::string path = Path("undirected.el");
  WriteFile(path, "0 1\n1 2\n");
  EdgeListOptions options;
  options.undirected = true;
  auto loaded = LoadEdgeList(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->undirected());
  EXPECT_EQ(loaded->num_edges(), 4);
  EXPECT_EQ(loaded->adjacency().At(1, 0), 1.0);
  EXPECT_EQ(loaded->adjacency().At(2, 1), 1.0);
}

TEST_F(GraphIoTest, EdgeListMalformedLineReportsNumber) {
  const std::string path = Path("bad.el");
  WriteFile(path, "# header\n0 1\nnope nope\n");
  const auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
      << loaded.status();
}

TEST_F(GraphIoTest, EdgeListNegativeIdRejected) {
  const std::string path = Path("negative.el");
  WriteFile(path, "0 1\n-2 1\n");
  EXPECT_FALSE(LoadEdgeList(path).ok());
}

TEST_F(GraphIoTest, EdgeListHugeIdIsErrorNotAllocation) {
  // A single corrupt id must not size the builder: 1e18 nodes of label
  // vectors is an instant OOM if it reaches the allocation.
  const std::string path = Path("huge.el");
  WriteFile(path, "0 1\n999999999999999999 0\n");
  const auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("2^31"), std::string::npos);
}

TEST_F(GraphIoTest, EdgeListHeaderPreservesNodeCountAndUndirectedFlag) {
  // An undirected graph with a trailing isolated node survives the
  // SaveEdgeList -> LoadEdgeList round trip via the header fields.
  GraphBuilder builder(4, 1);
  builder.AddUndirectedEdge(0, 1).AddUndirectedEdge(1, 2);  // node 3 isolated
  const AttributedGraph g = builder.Build(/*undirected=*/true).ValueOrDie();
  const std::string path = Path("header.el");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_nodes(), 4);
  EXPECT_TRUE(loaded->undirected());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
}

TEST_F(GraphIoTest, TextRejectsLabelAboveInt32Range) {
  const std::string dir = Path("wrap_labels");
  WriteTextGraph(dir, "0 1\n", "");
  WriteFile(dir + "/labels.txt", "0 4294967296\n");  // would wrap to 0
  const auto loaded = LoadGraphText(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

// --- format equivalence and dispatch ---------------------------------------

TEST_F(GraphIoTest, TextContainerEdgeListLoadsAgree) {
  const AttributedGraph g = SampleGraph();
  const std::string text_dir = Path("eq_text");
  const std::string container_path = Path("eq.ctn");
  const std::string el_path = Path("eq.el");
  ASSERT_TRUE(SaveGraphText(g, text_dir).ok());
  ASSERT_TRUE(SaveGraphContainer(g, container_path).ok());
  ASSERT_TRUE(SaveEdgeList(g, el_path).ok());

  ThreadPool pool(3);
  auto from_text = LoadGraphText(text_dir, &pool);
  auto from_container = LoadGraphContainer(container_path);
  ASSERT_TRUE(from_text.ok()) << from_text.status();
  ASSERT_TRUE(from_container.ok()) << from_container.status();
  ExpectGraphsEqual(*from_text, *from_container);

  EdgeListOptions options;
  options.num_nodes = g.num_nodes();
  options.pool = &pool;
  auto from_edge_list = LoadEdgeList(el_path, options);
  ASSERT_TRUE(from_edge_list.ok()) << from_edge_list.status();
  EXPECT_EQ(from_edge_list->adjacency().ToDense().MaxAbsDiff(
                from_container->adjacency().ToDense()),
            0.0);
}

TEST_F(GraphIoTest, LoadGraphAutoDispatchesOnPathKind) {
  const AttributedGraph g = SampleGraph();
  const std::string text_dir = Path("auto_text");
  const std::string container_path = Path("auto.ctn");
  const std::string el_path = Path("auto.el");
  ASSERT_TRUE(SaveGraphText(g, text_dir).ok());
  ASSERT_TRUE(SaveGraphContainer(g, container_path).ok());
  ASSERT_TRUE(SaveEdgeList(g, el_path).ok());

  auto from_dir = LoadGraphAuto(text_dir);
  ASSERT_TRUE(from_dir.ok()) << from_dir.status();
  ExpectGraphsEqual(g, *from_dir);
  auto from_container = LoadGraphAuto(container_path);
  ASSERT_TRUE(from_container.ok()) << from_container.status();
  ExpectGraphsEqual(g, *from_container);
  auto from_el = LoadGraphAuto(el_path);
  ASSERT_TRUE(from_el.ok()) << from_el.status();
  EXPECT_EQ(from_el->num_edges(), g.num_edges());

  EXPECT_TRUE(LoadGraphAuto(Path("missing")).status().IsIOError());
}

TEST_F(GraphIoTest, ContainerRoundTrip) {
  const AttributedGraph g = SampleGraph();
  const std::string path = (dir_ / "graph.pane").string();
  ASSERT_TRUE(SaveGraphContainer(g, path).ok());
  auto loaded = LoadGraphContainer(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectGraphsEqual(g, *loaded);
}

TEST_F(GraphIoTest, ContainerUndirectedFlagSurvives) {
  SbmParams params;
  params.num_nodes = 60;
  params.num_edges = 200;
  params.num_attributes = 10;
  params.num_attr_entries = 100;
  params.num_communities = 3;
  params.undirected = true;
  const AttributedGraph g = GenerateAttributedSbm(params);
  const std::string path = (dir_ / "undirected.pane").string();
  ASSERT_TRUE(SaveGraphContainer(g, path).ok());
  auto loaded = LoadGraphContainer(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->undirected());
  ExpectGraphsEqual(g, *loaded);
}

TEST_F(GraphIoTest, ContainerFlippedByteFailsWithChecksumError) {
  const AttributedGraph g = SampleGraph();
  const std::string path = (dir_ / "corrupt.pane").string();
  ASSERT_TRUE(SaveGraphContainer(g, path).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 8192u);
  // Flip one byte well inside the data pages, past the superblock.
  bytes[bytes.size() / 2 + 3] ^= 0x10;
  WriteFile(path, bytes);
  const auto loaded = LoadGraphContainer(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status();
}

TEST_F(GraphIoTest, ContainerWithoutGraphStreamsIsRejected) {
  // A perfectly valid container holding an embedding, not a graph.
  NodeEmbedding embedding;
  embedding.method = "pane";
  embedding.features = DenseMatrix(4, 3);
  for (int64_t i = 0; i < embedding.features.size(); ++i) {
    embedding.features.data()[i] = 0.5 * static_cast<double>(i);
  }
  const std::string path = (dir_ / "embedding.pane").string();
  ASSERT_TRUE(embedding.SaveContainer(path).ok());
  const auto loaded = LoadGraphContainer(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

}  // namespace
}  // namespace pane
