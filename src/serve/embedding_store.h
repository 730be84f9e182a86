// Immutable, memory-mapped view of a NodeEmbedding container artifact — the
// serving subsystem's storage layer. Where NodeEmbedding::Load copies the
// artifact into private heap memory, an EmbeddingStore maps the file
// read-only (PROT_READ, MAP_SHARED): the doubles are backed by the page
// cache, every server process mapping the same artifact shares one physical
// copy, and opening costs O(meta) regardless of the embedding's size. The
// file descriptor is closed at open time, so the store keeps working after
// the path is unlinked or rotated from under it. Container payloads are
// page-aligned, so the factor views always point straight into the mapping.
//
// The store itself holds only the mapped doubles. The query engine builds
// its own single-precision screen copies of the candidate rows (see
// query_engine.h) and rescores the survivors from these mapped doubles, so
// served results stay bitwise identical to the offline path. A shard
// server maps the same whole artifact and serves a row range of it
// (shard_plan.h); the store knows nothing about sharding.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/embedding_format.h"
#include "src/common/status.h"
#include "src/matrix/dense_matrix.h"
#include "src/store/container.h"

namespace pane {
namespace serve {

class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  EmbeddingStore(const EmbeddingStore&) = delete;
  EmbeddingStore& operator=(const EmbeddingStore&) = delete;
  EmbeddingStore(EmbeddingStore&&) = default;
  EmbeddingStore& operator=(EmbeddingStore&&) = default;

  /// Maps a store:: container written by NodeEmbedding::SaveContainer.
  /// Every shape is validated against its stream's size, so a corrupt
  /// artifact yields a Status, never an OOM or an out-of-bounds read.
  /// Every matrix stream's pages are CRC32C-verified at open.
  static Result<EmbeddingStore> Open(const std::string& path);

  const std::string& method() const { return method_; }
  LinkConvention link_convention() const { return link_convention_; }
  AttributeConvention attribute_convention() const {
    return attribute_convention_;
  }

  /// Factor views into the shared mapping (empty views when the artifact
  /// lacks the block).
  ConstMatrixView features() const { return features_; }
  ConstMatrixView xf() const { return xf_; }
  ConstMatrixView xb() const { return xb_; }
  ConstMatrixView y() const { return y_; }

  int64_t num_nodes() const { return features_.rows(); }
  int64_t dim() const { return features_.cols(); }
  int64_t num_attributes() const { return y_.rows(); }
  bool has_node_factors() const {
    return xf_.rows() > 0 && xb_.rows() > 0;
  }
  bool has_attribute_factors() const {
    return has_node_factors() && y_.rows() > 0;
  }

  int64_t mapped_bytes() const {
    return container_->num_pages() *
           static_cast<int64_t>(container_->page_size());
  }

 private:
  // Holds the mapping the views point into (behind a pointer so the store
  // stays default-constructible and movable).
  std::unique_ptr<store::Container> container_;
  ConstMatrixView features_, xf_, xb_, y_;
  std::string method_;
  LinkConvention link_convention_ = LinkConvention::kInnerProduct;
  AttributeConvention attribute_convention_ = AttributeConvention::kCentroid;
};

}  // namespace serve
}  // namespace pane
