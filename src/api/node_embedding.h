// The common embedding artifact of the unified api layer: every algorithm —
// PANE and all baselines — trains into a NodeEmbedding, and every downstream
// consumer (link prediction, attribute inference, node classification, the
// CLI save/load workflow) reads one, regardless of which method produced it.
//
// The artifact is a primary per-node feature matrix plus optional factor
// blocks (PANE's forward / backward node factors and its attribute factor),
// tagged with the scoring conventions the producer is evaluated under in the
// paper. One binary format serializes all of it: the paged, checksummed
// store:: container (src/store/embedding_pages.h lists its streams).
#pragma once

#include <cstdint>
#include <string>

#include "src/api/embedding_format.h"
#include "src/common/status.h"
#include "src/core/embedding.h"
#include "src/matrix/dense_matrix.h"

namespace pane {

// LinkConvention / AttributeConvention live in src/api/embedding_format.h
// (shared with the mmap-backed serving store) and are re-exported here.

const char* LinkConventionToString(LinkConvention c);
const char* AttributeConventionToString(AttributeConvention c);

/// \brief Method-agnostic trained embedding.
///
/// `features` is always present (n rows, one per node). The factor blocks
/// are optional (empty when absent): xf / xb are n x k/2 forward / backward
/// node factors, y is the d x k/2 attribute factor.
struct NodeEmbedding {
  /// Registry name of the producer ("pane", "nrp", ...).
  std::string method;

  DenseMatrix features;
  DenseMatrix xf;
  DenseMatrix xb;
  DenseMatrix y;

  LinkConvention link_convention = LinkConvention::kInnerProduct;
  AttributeConvention attribute_convention = AttributeConvention::kCentroid;

  int64_t num_nodes() const { return features.rows(); }
  int64_t dim() const { return features.cols(); }
  bool has_node_factors() const { return !xf.empty() && !xb.empty(); }
  bool has_attribute_factors() const { return has_node_factors() && !y.empty(); }

  /// PANE's trained factors as an artifact: features = [Xf | Xb] plus the
  /// three factor blocks, scored by Equations 21 and 22.
  static NodeEmbedding FromPane(PaneEmbedding trained,
                                std::string method = "pane");

  /// Shape / convention consistency checks (called by SaveContainer and by
  /// the adapters before they consume the artifact).
  Status Check() const;

  /// Writes the artifact as a store:: container (src/store/container.h):
  /// each matrix is its own page-aligned stream, every page CRC32C-guarded,
  /// committed via temp + fsync + rename. Deterministic, so a save/load/save
  /// round trip is byte-for-byte stable.
  Status SaveContainer(const std::string& path) const;

  /// Reads a container written by SaveContainer. Page checksums are verified
  /// during the load, so a single flipped bit anywhere in the file is
  /// reported, and every shape is checked against its stream's size before
  /// any allocation, so a corrupt or truncated artifact yields a Status
  /// instead of an OOM. For a shared read-only view of a large artifact (no
  /// per-process copy), open it with serve::EmbeddingStore instead.
  static Result<NodeEmbedding> Load(const std::string& path);
};

}  // namespace pane
