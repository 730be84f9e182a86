// IVF-style cluster-pruned retrieval for the approximate serving mode
// (FastGAE's sample-for-scale idea applied to retrieval): candidate vectors
// are k-means-partitioned into inverted lists; a query scores the cluster
// centroids, probes only the `nprobe` best lists, and scans their members
// in single precision. Retrieval cost drops from O(n·h) per query to
// O(C·h + n·h·nprobe/C), and `nprobe` is the recall knob — nprobe == C
// scans everything (recall 1.0 up to float rounding), nprobe == 1 is the
// fastest / coarsest. Recall@k is measured, not assumed: see RecallAtK and
// the bench_serve sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/topk.h"
#include "src/matrix/dense_matrix.h"
#include "src/store/container.h"

namespace pane {

class ThreadPool;

namespace serve {

/// \brief Row-major single-precision matrix: the IVF index's candidate
/// and centroid storage.
struct FloatMatrix {
  std::vector<float> data;
  int64_t rows = 0;
  int64_t cols = 0;

  bool empty() const { return rows * cols == 0; }
  const float* Row(int64_t i) const { return data.data() + i * cols; }
  float* MutableRow(int64_t i) { return data.data() + i * cols; }
  void Resize(int64_t r, int64_t c) {
    rows = r;
    cols = c;
    data.assign(static_cast<size_t>(r * c), 0.0f);
  }
};

struct IvfOptions {
  /// Inverted lists; 0 derives ceil(sqrt(#candidates)).
  int64_t num_clusters = 0;
  /// Lloyd iterations for the k-means build.
  int kmeans_iters = 10;
  uint64_t seed = 42;
  /// Parallelizes the assignment step of the build (search is always
  /// caller-threaded). Null => serial.
  ThreadPool* pool = nullptr;
};

/// \brief Immutable inverted-file index over one candidate matrix (Y rows
/// for attribute queries, Z = Xb (Y^T Y) rows for link queries).
class IvfIndex {
 public:
  IvfIndex() = default;

  /// K-means over the candidate rows (double input copied to float once).
  /// Deterministic for a fixed (seed, candidates, options).
  static Result<IvfIndex> Build(ConstMatrixView candidates,
                                const IvfOptions& options);
  /// Same, reusing an existing single-precision copy (e.g. the query
  /// engine's screen rows).
  static Result<IvfIndex> Build(const FloatMatrix& candidates,
                                const IvfOptions& options);

  /// Top-k candidates by inner product with `query` (length dim(), double;
  /// scored in float). Probes the `nprobe` centroid-best lists. `excluded`
  /// is a sorted id list to skip (may be empty); `skip_id` < 0 disables the
  /// self-skip. Scores in the result are the float dots widened to double.
  /// `id_base` shifts every member id into a global id space before the
  /// exclusion / self-skip checks and the result — a shard engine indexes
  /// its local candidate slice but answers (and excludes) in global ids.
  /// When `scanned` is non-null it is incremented by the number of
  /// candidates in the probed lists (before exclusion), the engine's
  /// pruning-effectiveness metric: pruned = num_candidates() - scanned.
  Ranking Search(const double* query, int64_t k, int64_t nprobe,
                 const std::vector<int64_t>& excluded = {},
                 int64_t skip_id = -1, int64_t id_base = 0,
                 int64_t* scanned = nullptr) const;

  int64_t num_clusters() const { return centroids_.rows; }
  int64_t num_candidates() const {
    return static_cast<int64_t>(member_ids_.size());
  }
  int64_t dim() const { return centroids_.cols; }
  bool empty() const { return member_ids_.empty(); }

  /// Registers the index as `<prefix>ivf.*` streams (meta, centroids,
  /// members, member_ids, offsets) on `writer`, so several indexes — e.g.
  /// the query engine's "attr." and "link." pair — pack into one container.
  /// The caller keeps the index and `meta_buf` alive until
  /// ContainerWriter::WriteTo returns, and `meta_buf` must outlive *this*
  /// call distinctly per index (one buffer per prefix).
  Status AppendToContainer(const std::string& prefix, std::string* meta_buf,
                           store::ContainerWriter* writer) const;

  /// Decodes `<prefix>ivf.*` streams from an opened container, verifying
  /// their page checksums and the structural invariants (offset monotonicity,
  /// id ranges, shape agreement). NotFound when the prefix is absent.
  static Result<IvfIndex> FromContainer(const store::Container& container,
                                        const std::string& prefix);

  /// Whole-index save/load as a standalone container file — what
  /// pane_server uses to skip the k-means build on restart.
  Status Save(const std::string& path) const;
  static Result<IvfIndex> Load(const std::string& path);

 private:
  FloatMatrix centroids_;              // C x dim
  FloatMatrix members_;                // candidate rows in cluster order
  std::vector<int32_t> member_ids_;    // original ids, ascending per cluster
  std::vector<int64_t> list_offsets_;  // C + 1 offsets into members_
};

/// \brief |approx ∩ exact| / |exact| over the result indices — the
/// measured recall@k the pruned mode reports.
double RecallAtK(const Ranking& exact, const Ranking& approx);

}  // namespace serve
}  // namespace pane
