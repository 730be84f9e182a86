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

Result<EmbeddingStore> EmbeddingStore::Open(
    const std::string& path, const EmbeddingStoreOptions& options) {
  EmbeddingStore store;
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  store.container_ = std::make_unique<store::Container>(std::move(container));
  if (store::HasShardStreams(*store.container_)) {
    // One shard of a split artifact: full xf/xb, y/z slices, no features.
    PANE_ASSIGN_OR_RETURN(
        store::ShardExtents extents,
        store::ReadShardStreams(*store.container_, options.verify_checksums));
    store.shard_ = std::make_unique<store::ShardMeta>(extents.meta);
    store.method_ = store.shard_->method;
    store.xf_ = ViewOf(extents.xf);
    store.xb_ = ViewOf(extents.xb);
    store.y_ = ViewOf(extents.y);
    store.z_ = ViewOf(extents.z);
    PANE_RETURN_NOT_OK(store.FinishOpen(path));
    return store;
  }
  if (!store::HasEmbeddingStreams(*store.container_)) {
    return Status::InvalidArgument("container " + path +
                                   " holds no embedding artifact");
  }
  PANE_ASSIGN_OR_RETURN(
      store::EmbeddingExtents extents,
      store::ReadEmbeddingStreams(*store.container_,
                                  options.verify_checksums));
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
  PANE_RETURN_NOT_OK(store.FinishOpen(path));
  return store;
}

Status EmbeddingStore::FinishOpen(const std::string& path) {
  // Cross-matrix consistency. Shard artifacts carry no features block —
  // their shapes were already validated against the shard meta's declared
  // ranges by ReadShardStreams — so only the factor relations apply.
  if (!sharded() && features_.rows() * features_.cols() == 0) {
    return Status::InvalidArgument("embedding artifact has no features: " +
                                   path);
  }
  const bool has_xf = xf_.rows() > 0;
  const bool has_xb = xb_.rows() > 0;
  const int64_t expected_rows = sharded() ? xf_.rows() : features_.rows();
  if (has_xf != has_xb ||
      (has_xf && (xf_.rows() != expected_rows ||
                  xf_.rows() != xb_.rows() || xf_.cols() != xb_.cols()))) {
    return Status::InvalidArgument(
        "inconsistent factor blocks in embedding artifact: " + path);
  }
  if (y_.rows() > 0 && (!has_xf || y_.cols() != xf_.cols())) {
    return Status::InvalidArgument(
        "attribute factor inconsistent with node factors in: " + path);
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace pane
