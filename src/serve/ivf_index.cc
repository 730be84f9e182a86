#include "src/serve/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "src/common/random.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace serve {
namespace {

// Container stream-name suffixes (AppendToContainer / FromContainer).
constexpr char kIvfMetaSuffix[] = "ivf.meta";
constexpr char kIvfCentroidsSuffix[] = "ivf.centroids";
constexpr char kIvfMembersSuffix[] = "ivf.members";
constexpr char kIvfMemberIdsSuffix[] = "ivf.member_ids";
constexpr char kIvfOffsetsSuffix[] = "ivf.offsets";
constexpr uint32_t kIvfMetaVersion = 1;
constexpr int64_t kIvfMetaBytes = 4 + 4 + 3 * 8;

template <typename T>
void AppendPod(std::string* buf, const T& value) {
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

float FloatDot(const float* x, const float* y, int64_t n) {
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

FloatMatrix ToFloatMatrix(ConstMatrixView m) {
  FloatMatrix out;
  out.Resize(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    const double* src = m.Row(i);
    float* dst = out.MutableRow(i);
    for (int64_t j = 0; j < m.cols(); ++j) dst[j] = static_cast<float>(src[j]);
  }
  return out;
}

double SquaredL2(const float* x, const float* y, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
    s += d * d;
  }
  return s;
}

/// Nearest centroid by L2; ties go to the lowest cluster id, so the
/// assignment is deterministic whether it runs serially or in parallel.
int64_t NearestCentroid(const FloatMatrix& centroids, const float* row) {
  int64_t best = 0;
  double best_dist = SquaredL2(centroids.Row(0), row, centroids.cols);
  for (int64_t c = 1; c < centroids.rows; ++c) {
    const double dist = SquaredL2(centroids.Row(c), row, centroids.cols);
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

}  // namespace

Result<IvfIndex> IvfIndex::Build(ConstMatrixView candidates,
                                 const IvfOptions& options) {
  return Build(ToFloatMatrix(candidates), options);
}

Result<IvfIndex> IvfIndex::Build(const FloatMatrix& candidates,
                                 const IvfOptions& options) {
  const int64_t n = candidates.rows;
  const int64_t dim = candidates.cols;
  if (n == 0 || dim == 0) {
    return Status::InvalidArgument("IvfIndex needs a non-empty candidate set");
  }
  int64_t num_clusters = options.num_clusters;
  if (num_clusters <= 0) {
    num_clusters = static_cast<int64_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
  }
  num_clusters = std::min(num_clusters, n);

  IvfIndex index;
  index.centroids_.Resize(num_clusters, dim);
  // Seed centroids from distinct candidate rows.
  Rng rng(options.seed);
  const std::vector<int64_t> seeds =
      SampleWithoutReplacement(n, num_clusters, &rng);
  for (int64_t c = 0; c < num_clusters; ++c) {
    std::memcpy(index.centroids_.MutableRow(c), candidates.Row(seeds[c]),
                static_cast<size_t>(dim) * sizeof(float));
  }

  std::vector<int32_t> assignment(static_cast<size_t>(n), 0);
  std::vector<double> sums;  // accumulate means in double
  std::vector<int64_t> counts;
  for (int iter = 0; iter < std::max(1, options.kmeans_iters); ++iter) {
    const auto assign = [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        assignment[static_cast<size_t>(i)] = static_cast<int32_t>(
            NearestCentroid(index.centroids_, candidates.Row(i)));
      }
    };
    if (options.pool != nullptr && options.pool->num_threads() > 1) {
      ParallelFor(options.pool, 0, n, assign);
    } else {
      assign(0, n);
    }
    sums.assign(static_cast<size_t>(num_clusters * dim), 0.0);
    counts.assign(static_cast<size_t>(num_clusters), 0);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t c = assignment[static_cast<size_t>(i)];
      const float* row = candidates.Row(i);
      double* sum = sums.data() + c * dim;
      for (int64_t j = 0; j < dim; ++j) sum[j] += row[j];
      ++counts[static_cast<size_t>(c)];
    }
    for (int64_t c = 0; c < num_clusters; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) continue;  // keep old centroid
      const double inv = 1.0 / static_cast<double>(counts[static_cast<size_t>(c)]);
      const double* sum = sums.data() + c * dim;
      float* centroid = index.centroids_.MutableRow(c);
      for (int64_t j = 0; j < dim; ++j) {
        centroid[j] = static_cast<float>(sum[j] * inv);
      }
    }
  }

  // Inverted lists: bucket-count, prefix-sum, then a stable fill in
  // ascending candidate order (ids ascend within each list).
  index.list_offsets_.assign(static_cast<size_t>(num_clusters + 1), 0);
  for (int64_t i = 0; i < n; ++i) {
    ++index.list_offsets_[static_cast<size_t>(assignment[static_cast<size_t>(i)]) + 1];
  }
  for (int64_t c = 0; c < num_clusters; ++c) {
    index.list_offsets_[static_cast<size_t>(c) + 1] +=
        index.list_offsets_[static_cast<size_t>(c)];
  }
  index.member_ids_.assign(static_cast<size_t>(n), 0);
  index.members_.Resize(n, dim);
  std::vector<int64_t> cursor(index.list_offsets_.begin(),
                              index.list_offsets_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = assignment[static_cast<size_t>(i)];
    const int64_t slot = cursor[static_cast<size_t>(c)]++;
    index.member_ids_[static_cast<size_t>(slot)] = static_cast<int32_t>(i);
    std::memcpy(index.members_.MutableRow(slot), candidates.Row(i),
                static_cast<size_t>(dim) * sizeof(float));
  }
  return index;
}

Status IvfIndex::AppendToContainer(const std::string& prefix,
                                   std::string* meta_buf,
                                   store::ContainerWriter* writer) const {
  if (empty()) {
    return Status::InvalidArgument("cannot serialize an empty IvfIndex");
  }
  meta_buf->clear();
  AppendPod<uint32_t>(meta_buf, kIvfMetaVersion);
  AppendPod<uint32_t>(meta_buf, 0);  // reserved
  AppendPod<int64_t>(meta_buf, num_clusters());
  AppendPod<int64_t>(meta_buf, dim());
  AppendPod<int64_t>(meta_buf, num_candidates());
  PANE_RETURN_NOT_OK(writer->AddStream(prefix + kIvfMetaSuffix,
                                       store::PageType::kMeta,
                                       meta_buf->data(),
                                       static_cast<int64_t>(meta_buf->size())));
  PANE_RETURN_NOT_OK(writer->AddStream(
      prefix + kIvfCentroidsSuffix, store::PageType::kIvfList,
      centroids_.data.data(),
      static_cast<int64_t>(centroids_.data.size() * sizeof(float))));
  PANE_RETURN_NOT_OK(writer->AddStream(
      prefix + kIvfMembersSuffix, store::PageType::kIvfList,
      members_.data.data(),
      static_cast<int64_t>(members_.data.size() * sizeof(float))));
  PANE_RETURN_NOT_OK(writer->AddStream(
      prefix + kIvfMemberIdsSuffix, store::PageType::kIvfList,
      member_ids_.data(),
      static_cast<int64_t>(member_ids_.size() * sizeof(int32_t))));
  return writer->AddStream(
      prefix + kIvfOffsetsSuffix, store::PageType::kIvfList,
      list_offsets_.data(),
      static_cast<int64_t>(list_offsets_.size() * sizeof(int64_t)));
}

Result<IvfIndex> IvfIndex::FromContainer(const store::Container& container,
                                         const std::string& prefix) {
  const std::string meta_name = prefix + kIvfMetaSuffix;
  if (!container.Contains(meta_name)) {
    return Status::NotFound("container " + container.path() +
                            " holds no '" + prefix + "' IVF index");
  }
  PANE_ASSIGN_OR_RETURN(store::Container::StreamView meta,
                        container.Read(meta_name));
  if (meta.bytes != kIvfMetaBytes) {
    return Status::IOError("stream '" + meta_name + "' in " +
                           container.path() + " holds " +
                           std::to_string(meta.bytes) + " bytes, expected " +
                           std::to_string(kIvfMetaBytes));
  }
  uint32_t version = 0;
  std::memcpy(&version, meta.data, sizeof(version));
  if (version != kIvfMetaVersion) {
    return Status::InvalidArgument("unsupported IVF index version " +
                                   std::to_string(version) + " in " +
                                   container.path());
  }
  int64_t shape[3] = {0, 0, 0};  // clusters, dim, candidates
  std::memcpy(shape, meta.data + 8, sizeof(shape));
  const int64_t clusters = shape[0], dim = shape[1], n = shape[2];
  if (clusters <= 0 || dim <= 0 || n <= 0 || clusters > n) {
    return Status::IOError("implausible IVF shape in " + container.path());
  }

  PANE_ASSIGN_OR_RETURN(auto centroids,
                        container.ReadArray<float>(prefix + kIvfCentroidsSuffix));
  PANE_ASSIGN_OR_RETURN(auto members,
                        container.ReadArray<float>(prefix + kIvfMembersSuffix));
  PANE_ASSIGN_OR_RETURN(
      auto ids, container.ReadArray<int32_t>(prefix + kIvfMemberIdsSuffix));
  PANE_ASSIGN_OR_RETURN(
      auto offsets, container.ReadArray<int64_t>(prefix + kIvfOffsetsSuffix));
  if (centroids.count != clusters * dim || members.count != n * dim ||
      ids.count != n || offsets.count != clusters + 1) {
    return Status::IOError("IVF stream lengths disagree with '" + meta_name +
                           "' in " + container.path());
  }
  if (offsets.data[0] != 0 || offsets.data[clusters] != n) {
    return Status::IOError("IVF list offsets do not span the member set in " +
                           container.path());
  }
  for (int64_t c = 0; c < clusters; ++c) {
    if (offsets.data[c] > offsets.data[c + 1]) {
      return Status::IOError("IVF list offsets not non-decreasing in " +
                             container.path());
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    if (ids.data[i] < 0 || ids.data[i] >= n) {
      return Status::IOError("IVF member id out of range in " +
                             container.path());
    }
  }

  IvfIndex index;
  index.centroids_.Resize(clusters, dim);
  std::memcpy(index.centroids_.data.data(), centroids.data,
              static_cast<size_t>(centroids.count) * sizeof(float));
  index.members_.Resize(n, dim);
  std::memcpy(index.members_.data.data(), members.data,
              static_cast<size_t>(members.count) * sizeof(float));
  index.member_ids_.assign(ids.data, ids.data + ids.count);
  index.list_offsets_.assign(offsets.data, offsets.data + offsets.count);
  return index;
}

Status IvfIndex::Save(const std::string& path) const {
  store::ContainerWriter writer;
  std::string meta_buf;
  PANE_RETURN_NOT_OK(AppendToContainer("", &meta_buf, &writer));
  return writer.WriteTo(path);
}

Result<IvfIndex> IvfIndex::Load(const std::string& path) {
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  auto index = FromContainer(container, "");
  if (!index.ok() && index.status().IsNotFound()) {
    return Status::InvalidArgument("container " + path +
                                   " holds no IVF index");
  }
  return index;
}

Ranking IvfIndex::Search(const double* query, int64_t k, int64_t nprobe,
                         const std::vector<int64_t>& excluded,
                         int64_t skip_id, int64_t id_base,
                         int64_t* scanned) const {
  const int64_t dim = centroids_.cols;
  std::vector<float> q(static_cast<size_t>(dim));
  for (int64_t j = 0; j < dim; ++j) q[static_cast<size_t>(j)] = static_cast<float>(query[j]);

  // Probe order: centroid inner-product score, deterministic tie-break.
  Ranking probes;
  probes.reserve(static_cast<size_t>(centroids_.rows));
  for (int64_t c = 0; c < centroids_.rows; ++c) {
    probes.emplace_back(
        c, static_cast<double>(FloatDot(q.data(), centroids_.Row(c), dim)));
  }
  probes = SelectTopK(std::move(probes), std::min(nprobe, centroids_.rows));

  TopKHeap heap(k);
  for (const auto& [cluster, centroid_score] : probes) {
    (void)centroid_score;
    const int64_t begin = list_offsets_[static_cast<size_t>(cluster)];
    const int64_t end = list_offsets_[static_cast<size_t>(cluster) + 1];
    if (scanned != nullptr) *scanned += end - begin;
    for (int64_t slot = begin; slot < end; ++slot) {
      const int64_t id = id_base + member_ids_[static_cast<size_t>(slot)];
      if (id == skip_id) continue;
      if (!excluded.empty() &&
          std::binary_search(excluded.begin(), excluded.end(), id)) {
        continue;
      }
      heap.Offer(id, static_cast<double>(
                         FloatDot(q.data(), members_.Row(slot), dim)));
    }
  }
  return heap.Take();
}

double RecallAtK(const Ranking& exact, const Ranking& approx) {
  if (exact.empty()) return 1.0;
  std::unordered_set<int64_t> truth;
  truth.reserve(exact.size() * 2);
  for (const auto& [id, score] : exact) {
    (void)score;
    truth.insert(id);
  }
  size_t hits = 0;
  for (const auto& [id, score] : approx) {
    (void)score;
    hits += truth.count(id);
  }
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

}  // namespace serve
}  // namespace pane
