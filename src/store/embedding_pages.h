// The NodeEmbedding artifact expressed as container streams — the only
// binary embedding format, spoken by both the producer side
// (src/api/node_embedding.cc, SaveContainer / Load) and the serving side
// (src/serve/embedding_store.cc). Lives in
// src/store so neither layer has to link the other; matrices therefore cross
// this boundary as raw double extents and conventions as raw int8 codes (the
// api layer owns the LinkConvention / AttributeConvention enums).
//
// Streams:
//   emb.meta      (kMeta)          meta version, conventions, matrix shapes,
//                                  presence mask, method name
//   emb.features  (kFactorMatrix)  n x d row-major doubles, always present
//   emb.xf        (kFactorMatrix)  forward node factors, optional
//   emb.xb        (kFactorMatrix)  backward node factors, optional
//   emb.y         (kFactorMatrix)  attribute factor, optional
//
// Each matrix is its own stream, so a reader pays the page faults (and the
// checksum pass) only for the blocks it actually serves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/store/container.h"

namespace pane {
namespace store {

inline constexpr char kEmbMetaStream[] = "emb.meta";
inline constexpr char kEmbFeaturesStream[] = "emb.features";
inline constexpr char kEmbXfStream[] = "emb.xf";
inline constexpr char kEmbXbStream[] = "emb.xb";
inline constexpr char kEmbYStream[] = "emb.y";

inline constexpr uint32_t kEmbeddingMetaVersion = 1;

/// The longest method name an embedding artifact may carry.
inline constexpr size_t kMaxMethodNameLength = 256;

/// A matrix as it crosses the store boundary: a borrowed row-major double
/// extent. rows == cols == 0 (data == nullptr) means "absent".
struct MatrixExtent {
  const double* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;

  bool present() const { return rows > 0 && cols > 0; }
  int64_t payload_bytes() const {
    return rows * cols * static_cast<int64_t>(sizeof(double));
  }
};

/// The embedding artifact, decoded from (or headed into) a container.
struct EmbeddingExtents {
  std::string method;
  int8_t link_convention = 0;
  int8_t attribute_convention = 0;
  MatrixExtent features;
  MatrixExtent xf;
  MatrixExtent xb;
  MatrixExtent y;
};

/// Serializes the meta stream into `meta_buf` and registers all streams on
/// `writer`. The caller keeps `meta_buf` and every matrix extent alive until
/// ContainerWriter::WriteTo returns (the writer stores pointers, not
/// copies). `features` must be present; xf/xb/y streams are added only when
/// present.
Status AppendEmbeddingStreams(const EmbeddingExtents& embedding,
                              std::string* meta_buf, ContainerWriter* writer);

/// Decodes and validates the embedding streams of an opened container:
/// meta version, presence mask vs. actual streams, and shape-vs-payload
/// agreement for every matrix. The matrix pages are checksummed now
/// (Container::Read).
Result<EmbeddingExtents> ReadEmbeddingStreams(const Container& container);

/// True iff the container holds an embedding artifact (has emb.meta).
inline bool HasEmbeddingStreams(const Container& container) {
  return container.Contains(kEmbMetaStream);
}

}  // namespace store
}  // namespace pane
