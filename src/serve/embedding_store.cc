#include "src/serve/embedding_store.h"

#include <memory>
#include <utility>

#include "src/store/embedding_pages.h"

namespace pane {
namespace serve {
namespace {

ConstMatrixView ViewOf(const store::MatrixExtent& e) {
  return e.present() ? ConstMatrixView(e.data, e.rows, e.cols)
                     : ConstMatrixView();
}

}  // namespace

Result<EmbeddingStore> EmbeddingStore::Open(const std::string& path) {
  EmbeddingStore store;
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  store.container_ = std::make_unique<store::Container>(std::move(container));
  if (!store::HasEmbeddingStreams(*store.container_)) {
    return Status::InvalidArgument("container " + path +
                                   " holds no embedding artifact");
  }
  PANE_ASSIGN_OR_RETURN(
      store::EmbeddingExtents extents,
      store::ReadEmbeddingStreams(*store.container_));
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
  store.method_ = std::move(extents.method);
  store.link_convention_ =
      static_cast<LinkConvention>(extents.link_convention);
  store.attribute_convention_ =
      static_cast<AttributeConvention>(extents.attribute_convention);
  store.features_ = ViewOf(extents.features);
  store.xf_ = ViewOf(extents.xf);
  store.xb_ = ViewOf(extents.xb);
  store.y_ = ViewOf(extents.y);
  // Cross-matrix consistency.
  const ConstMatrixView& xf = store.xf_;
  const ConstMatrixView& xb = store.xb_;
  if (store.features_.rows() * store.features_.cols() == 0) {
    return Status::InvalidArgument("embedding artifact has no features: " +
                                   path);
  }
  const bool has_xf = xf.rows() > 0;
  if (has_xf != (xb.rows() > 0) ||
      (has_xf && (xf.rows() != store.features_.rows() ||
                  xf.rows() != xb.rows() || xf.cols() != xb.cols()))) {
    return Status::InvalidArgument(
        "inconsistent factor blocks in embedding artifact: " + path);
  }
  if (store.y_.rows() > 0 && (!has_xf || store.y_.cols() != xf.cols())) {
    return Status::InvalidArgument(
        "attribute factor inconsistent with node factors in: " + path);
  }
  return store;
}

}  // namespace serve
}  // namespace pane
