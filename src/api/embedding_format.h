// The NodeEmbedding artifact's scoring conventions, shared by the producer
// side (src/api/node_embedding.cc) and the serving side
// (src/serve/embedding_store.cc). Header only — src/serve includes it
// without linking pane_api. The artifact's bytes are the container's emb.*
// streams (src/store/embedding_pages.h), which carry each convention as its
// raw int8 code.
#pragma once

#include <cstdint>

namespace pane {

/// How a method's pairwise link score is computed from the artifact
/// (Section 5.3 evaluates every competitor under its best convention).
enum class LinkConvention : int8_t {
  /// Inner product over `features` rows; the adapter also tries cosine and
  /// keeps the best, mirroring the paper's best-of protocol.
  kInnerProduct = 0,
  /// Negated Hamming distance of sign patterns (binary codes, BANE).
  kHamming = 1,
  /// PANE's Equation 22 over the xf / xb / y factor blocks.
  kForwardBackward = 2,
  /// Xf[u] . Xb[w] over the node factor blocks (NRP's score; no attribute
  /// factor involved).
  kAsymmetricDot = 3,
};

/// How an attribute-inference score p(v, r) is computed.
enum class AttributeConvention : int8_t {
  /// Generic fallback: dot(features[v], centroid[r]) with per-attribute
  /// centroids fitted on the training graph by the adapter.
  kCentroid = 0,
  /// `features` is itself an n x d attribute-score matrix (BLA).
  kDirect = 1,
  /// PANE's Equation 21 over the xf / xb / y factor blocks.
  kFactors = 2,
};

}  // namespace pane
