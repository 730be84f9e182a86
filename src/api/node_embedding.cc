#include "src/api/node_embedding.h"

#include <cstring>
#include <utility>

#include "src/store/container.h"
#include "src/store/embedding_pages.h"

namespace pane {
namespace {

store::MatrixExtent ExtentOf(const DenseMatrix& m) {
  store::MatrixExtent extent;
  if (!m.empty()) {
    extent.data = m.data();
    extent.rows = m.rows();
    extent.cols = m.cols();
  }
  return extent;
}

void CopyExtent(const store::MatrixExtent& extent, DenseMatrix* out) {
  out->Resize(extent.rows, extent.cols);
  if (extent.present()) {
    std::memcpy(out->data(), extent.data,
                static_cast<size_t>(extent.payload_bytes()));
  }
}

}  // namespace

const char* LinkConventionToString(LinkConvention c) {
  switch (c) {
    case LinkConvention::kInnerProduct:
      return "inner-product";
    case LinkConvention::kHamming:
      return "hamming";
    case LinkConvention::kForwardBackward:
      return "forward-backward";
    case LinkConvention::kAsymmetricDot:
      return "asymmetric-dot";
  }
  return "unknown";
}

const char* AttributeConventionToString(AttributeConvention c) {
  switch (c) {
    case AttributeConvention::kCentroid:
      return "centroid";
    case AttributeConvention::kDirect:
      return "direct";
    case AttributeConvention::kFactors:
      return "factors";
  }
  return "unknown";
}

NodeEmbedding NodeEmbedding::FromPane(PaneEmbedding trained,
                                     std::string method) {
  NodeEmbedding e;
  e.method = std::move(method);
  const int64_t h = trained.xf.cols();
  e.features.Resize(trained.xf.rows(), 2 * h);
  e.features.SetBlock(0, 0, trained.xf);
  e.features.SetBlock(0, h, trained.xb);
  e.xf = std::move(trained.xf);
  e.xb = std::move(trained.xb);
  e.y = std::move(trained.y);
  e.link_convention = LinkConvention::kForwardBackward;
  e.attribute_convention = AttributeConvention::kFactors;
  return e;
}

Status NodeEmbedding::Check() const {
  if (features.empty()) {
    return Status::InvalidArgument("NodeEmbedding has no feature matrix");
  }
  if (method.size() > store::kMaxMethodNameLength) {
    return Status::InvalidArgument(
        "NodeEmbedding method name exceeds the serializable length");
  }
  if (!xf.empty() || !xb.empty()) {
    if (xf.rows() != features.rows() || !xf.SameShape(xb)) {
      return Status::InvalidArgument(
          "NodeEmbedding factor blocks xf / xb must be n x k/2 with matching "
          "shapes");
    }
  }
  if (!y.empty()) {
    if (xf.empty() || y.cols() != xf.cols()) {
      return Status::InvalidArgument(
          "NodeEmbedding attribute factor y requires xf / xb with the same "
          "column count");
    }
  }
  if (link_convention == LinkConvention::kForwardBackward &&
      !has_attribute_factors()) {
    return Status::InvalidArgument(
        "forward-backward link convention requires xf, xb and y");
  }
  if (link_convention == LinkConvention::kAsymmetricDot &&
      !has_node_factors()) {
    return Status::InvalidArgument(
        "asymmetric-dot link convention requires xf and xb");
  }
  if (attribute_convention == AttributeConvention::kFactors &&
      !has_attribute_factors()) {
    return Status::InvalidArgument(
        "factor attribute convention requires xf, xb and y");
  }
  return Status::OK();
}

Status NodeEmbedding::SaveContainer(const std::string& path) const {
  PANE_RETURN_NOT_OK(Check());
  store::EmbeddingExtents extents;
  extents.method = method;
  extents.link_convention = static_cast<int8_t>(link_convention);
  extents.attribute_convention = static_cast<int8_t>(attribute_convention);
  extents.features = ExtentOf(features);
  extents.xf = ExtentOf(xf);
  extents.xb = ExtentOf(xb);
  extents.y = ExtentOf(y);
  store::ContainerWriter writer;
  std::string meta_buf;
  PANE_RETURN_NOT_OK(
      store::AppendEmbeddingStreams(extents, &meta_buf, &writer));
  return writer.WriteTo(path);
}

Result<NodeEmbedding> NodeEmbedding::Load(const std::string& path) {
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  if (!store::HasEmbeddingStreams(container)) {
    return Status::InvalidArgument(
        "container " + path + " holds no embedding artifact");
  }
  PANE_ASSIGN_OR_RETURN(
      store::EmbeddingExtents extents,
      store::ReadEmbeddingStreams(container));
  if (extents.link_convention < 0 ||
      extents.link_convention >
          static_cast<int8_t>(LinkConvention::kAsymmetricDot)) {
    return Status::InvalidArgument("bad link convention in " + path);
  }
  if (extents.attribute_convention < 0 ||
      extents.attribute_convention >
          static_cast<int8_t>(AttributeConvention::kFactors)) {
    return Status::InvalidArgument("bad attribute convention in " + path);
  }
  NodeEmbedding e;
  e.method = std::move(extents.method);
  e.link_convention = static_cast<LinkConvention>(extents.link_convention);
  e.attribute_convention =
      static_cast<AttributeConvention>(extents.attribute_convention);
  CopyExtent(extents.features, &e.features);
  CopyExtent(extents.xf, &e.xf);
  CopyExtent(extents.xb, &e.xb);
  CopyExtent(extents.y, &e.y);
  PANE_RETURN_NOT_OK(e.Check());
  return e;
}

}  // namespace pane
