// Tests for the unified NodeEmbedding artifact: shape / convention checks
// and its one binary format, the checksummed container, including
// byte-for-byte save/load round trips with and without the optional factor
// blocks and hostile-container rejection.
#include "src/api/node_embedding.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/random.h"
#include "src/core/pane.h"
#include "src/store/container.h"
#include "test_util.h"

namespace pane {
namespace {

NodeEmbedding FeatureOnlyEmbedding(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  NodeEmbedding e;
  e.method = "tadw";
  e.features.Resize(n, dim);
  e.features.FillGaussian(&rng);
  e.link_convention = LinkConvention::kInnerProduct;
  e.attribute_convention = AttributeConvention::kCentroid;
  return e;
}

NodeEmbedding FactorEmbedding(int64_t n, int64_t d, int64_t h, uint64_t seed) {
  Rng rng(seed);
  NodeEmbedding e;
  e.method = "pane";
  e.xf.Resize(n, h);
  e.xb.Resize(n, h);
  e.y.Resize(d, h);
  e.xf.FillGaussian(&rng);
  e.xb.FillGaussian(&rng);
  e.y.FillGaussian(&rng);
  e.features.Resize(n, 2 * h);
  e.features.SetBlock(0, 0, e.xf);
  e.features.SetBlock(0, h, e.xb);
  e.link_convention = LinkConvention::kForwardBackward;
  e.attribute_convention = AttributeConvention::kFactors;
  return e;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class NodeEmbeddingIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dir = std::filesystem::temp_directory_path();
    path_ = (dir / ("node_emb_" + std::to_string(::getpid()) + ".ctn"))
                .string();
    path2_ = path_ + ".resaved";
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path2_);
  }
  std::string path_;
  std::string path2_;
};

TEST(NodeEmbeddingTest, CheckAcceptsWellFormedArtifacts) {
  EXPECT_TRUE(FeatureOnlyEmbedding(10, 8, 1).Check().ok());
  EXPECT_TRUE(FactorEmbedding(10, 6, 4, 2).Check().ok());
}

TEST(NodeEmbeddingTest, CheckRejectsMissingFeatures) {
  NodeEmbedding e;
  e.method = "broken";
  EXPECT_TRUE(e.Check().IsInvalidArgument());
}

TEST(NodeEmbeddingTest, CheckRejectsMismatchedFactorBlocks) {
  NodeEmbedding e = FactorEmbedding(10, 6, 4, 3);
  e.xb.Resize(10, 3);  // xf is 10 x 4
  EXPECT_TRUE(e.Check().IsInvalidArgument());
}

TEST(NodeEmbeddingTest, CheckRejectsConventionWithoutFactors) {
  NodeEmbedding e = FeatureOnlyEmbedding(10, 8, 4);
  e.link_convention = LinkConvention::kForwardBackward;
  EXPECT_TRUE(e.Check().IsInvalidArgument());

  NodeEmbedding e2 = FeatureOnlyEmbedding(10, 8, 5);
  e2.attribute_convention = AttributeConvention::kFactors;
  EXPECT_TRUE(e2.Check().IsInvalidArgument());
}

TEST_F(NodeEmbeddingIoTest, FeatureOnlyRoundTripIsByteForByte) {
  const NodeEmbedding e = FeatureOnlyEmbedding(20, 12, 6);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->method, "tadw");
  EXPECT_EQ(loaded->link_convention, LinkConvention::kInnerProduct);
  EXPECT_EQ(loaded->attribute_convention, AttributeConvention::kCentroid);
  EXPECT_TRUE(loaded->xf.empty());
  EXPECT_TRUE(loaded->y.empty());
  EXPECT_EQ(e.features.MaxAbsDiff(loaded->features), 0.0);

  ASSERT_TRUE(loaded->SaveContainer(path2_).ok());
  EXPECT_EQ(ReadFileBytes(path_), ReadFileBytes(path2_));
}

TEST_F(NodeEmbeddingIoTest, FactorRoundTripIsByteForByte) {
  const NodeEmbedding e = FactorEmbedding(15, 9, 4, 7);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->method, "pane");
  EXPECT_EQ(loaded->link_convention, LinkConvention::kForwardBackward);
  EXPECT_EQ(loaded->attribute_convention, AttributeConvention::kFactors);
  EXPECT_EQ(e.features.MaxAbsDiff(loaded->features), 0.0);
  EXPECT_EQ(e.xf.MaxAbsDiff(loaded->xf), 0.0);
  EXPECT_EQ(e.xb.MaxAbsDiff(loaded->xb), 0.0);
  EXPECT_EQ(e.y.MaxAbsDiff(loaded->y), 0.0);

  ASSERT_TRUE(loaded->SaveContainer(path2_).ok());
  EXPECT_EQ(ReadFileBytes(path_), ReadFileBytes(path2_));
}

TEST_F(NodeEmbeddingIoTest, SaveRejectsInconsistentArtifacts) {
  NodeEmbedding e = FactorEmbedding(10, 6, 4, 8);
  e.y.Resize(6, 3);  // column count no longer matches xf
  EXPECT_TRUE(e.SaveContainer(path_).IsInvalidArgument());
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(NodeEmbeddingIoTest, TrainedPaneScoresSurviveRoundTrip) {
  PaneOptions options;
  options.k = 16;
  const PaneEmbedding trained =
      Pane(options).Train(testing::SmallSbm(91, 200)).ValueOrDie();
  ASSERT_TRUE(NodeEmbedding::FromPane(trained).SaveContainer(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->method, "pane");
  EXPECT_EQ(loaded->link_convention, LinkConvention::kForwardBackward);
  const PaneEmbedding reloaded{loaded->xf, loaded->xb, loaded->y};
  for (int64_t v = 0; v < 10; ++v) {
    EXPECT_EQ(trained.AttributeScore(v, 0), reloaded.AttributeScore(v, 0));
  }
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsGarbageAndMissingFiles) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not an embedding";
  }
  EXPECT_FALSE(NodeEmbedding::Load(path_).ok());  // shorter than a superblock
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << std::string(1 << 16, 'x');
  }
  EXPECT_TRUE(NodeEmbedding::Load(path_).status().IsInvalidArgument());
  EXPECT_TRUE(
      NodeEmbedding::Load("/nonexistent/file.ctn").status().IsIOError());
}

// emb.meta field offsets (src/store/embedding_pages.cc): u32 version, i8
// link, i8 attr, u8 mask, u8 reserved, then i64 (rows, cols) per matrix.
constexpr size_t kMetaMaskOffset = 6;
constexpr size_t kMetaFeatureShapeOffset = 8;

void PutInt64(std::string* bytes, size_t offset, int64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsImplausibleMatrixShapes) {
  // CRC-valid containers whose meta lies about the features shape: Load
  // must return a Status, never attempt the allocation the shape implies.
  const NodeEmbedding e = FeatureOnlyEmbedding(10, 4, 10);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  // rows x cols x 8 wraps to 0 bytes: 2^61 x 1 over an empty stream.
  const testing::StreamPatch overflow = [](const std::string& name,
                                           std::string* payload) {
    if (name == "emb.meta") {
      PutInt64(payload, kMetaFeatureShapeOffset, int64_t{1} << 61);
      PutInt64(payload, kMetaFeatureShapeOffset + 8, 1);
    } else if (name == "emb.features") {
      payload->clear();
    }
    return true;
  };
  // 2^31 rows over the real 320-byte stream.
  const testing::StreamPatch oversized = [](const std::string& name,
                                            std::string* payload) {
    if (name == "emb.meta") {
      PutInt64(payload, kMetaFeatureShapeOffset, int64_t{1} << 31);
    }
    return true;
  };
  for (const testing::StreamPatch* patch : {&overflow, &oversized}) {
    testing::RewriteContainer(path_, path2_, *patch);
    const auto loaded = NodeEmbedding::Load(path2_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  }
}

TEST(NodeEmbeddingTest, CheckRejectsOverlongMethodNames) {
  NodeEmbedding e = FeatureOnlyEmbedding(5, 3, 11);
  e.method = std::string(300, 'x');
  EXPECT_TRUE(e.Check().IsInvalidArgument());
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsTruncatedFiles) {
  const NodeEmbedding e = FactorEmbedding(12, 5, 4, 9);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const std::string bytes = ReadFileBytes(path_);
  {
    std::ofstream out(path2_, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(NodeEmbedding::Load(path2_).ok());
}

TEST_F(NodeEmbeddingIoTest, TruncationSweepNeverSucceeds) {
  // Every strict prefix — mid-superblock, mid-page-table, mid-payload —
  // must yield a Status, never a crash, OOM attempt, or silent success.
  const NodeEmbedding e = FactorEmbedding(7, 4, 3, 13);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const std::string bytes = ReadFileBytes(path_);
  for (size_t len = 0; len < bytes.size(); len += (len < 64 ? 1 : 509)) {
    std::ofstream out(path2_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(NodeEmbedding::Load(path2_).ok()) << "prefix " << len;
  }
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsUnknownMaskBits) {
  // A future-format or corrupt presence mask must fail loudly instead of
  // silently misplacing payloads.
  const NodeEmbedding e = FeatureOnlyEmbedding(4, 3, 23);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  testing::RewriteContainer(
      path_, path2_, [](const std::string& name, std::string* payload) {
        if (name == "emb.meta") (*payload)[kMetaMaskOffset] = '\x88';
        return true;
      });
  const auto loaded = NodeEmbedding::Load(path2_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("presence"), std::string::npos)
      << loaded.status();
}

TEST_F(NodeEmbeddingIoTest, ContainerLoadDetectsFlippedBytes) {
  const NodeEmbedding e = FactorEmbedding(12, 7, 4, 33);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  std::string bytes = ReadFileBytes(path_);
  // Flip one byte in the middle of a matrix payload (the file's second
  // half is all data pages).
  bytes[bytes.size() / 2 + 17] ^= 0x20;
  {
    std::ofstream out(path2_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto corrupt = NodeEmbedding::Load(path2_);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos)
      << corrupt.status();
}

TEST_F(NodeEmbeddingIoTest, ContainerWithoutEmbeddingStreamsIsRejected) {
  // A valid container holding non-embedding streams must be refused with a
  // descriptive error, not misparsed.
  store::ContainerWriter writer;
  const double payload[4] = {1, 2, 3, 4};
  ASSERT_TRUE(writer
                  .AddStream("something.else", store::PageType::kMeta,
                             payload, sizeof(payload))
                  .ok());
  ASSERT_TRUE(writer.WriteTo(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

}  // namespace
}  // namespace pane
