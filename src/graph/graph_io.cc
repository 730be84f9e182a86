#include "src/graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/string_util.h"
#include "src/graph/text_parser.h"
#include "src/parallel/thread_pool.h"
#include "src/store/container.h"

namespace pane {
namespace {

// Container stream names (SaveGraphContainer / LoadGraphContainer).
constexpr char kGraphMetaStream[] = "graph.meta";
constexpr char kAdjIndptrStream[] = "graph.adj.indptr";
constexpr char kAdjIndicesStream[] = "graph.adj.indices";
constexpr char kAdjValuesStream[] = "graph.adj.values";
constexpr char kAttrIndptrStream[] = "graph.attr.indptr";
constexpr char kAttrIndicesStream[] = "graph.attr.indices";
constexpr char kAttrValuesStream[] = "graph.attr.values";
constexpr char kLabelOffsetsStream[] = "graph.label.offsets";
constexpr char kLabelIdsStream[] = "graph.label.ids";
constexpr uint32_t kGraphMetaVersion = 1;

Status WriteAll(const std::string& path, const std::string& contents) {
  return AtomicWriteFile(path, contents);
}

/// Re-labels an error status with the file it came from.
Status AnnotateError(const Status& s, const std::string& path) {
  if (s.ok()) return s;
  return Status(s.code(), path + ": " + s.message());
}

template <typename T>
void AppendPod(std::string* buf, const T& value) {
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

Result<std::vector<std::vector<Triplet>>> ParseGraphFile(
    const std::string& path, TripletLayout layout, bool allow_comments,
    ThreadPool* pool) {
  PANE_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  TripletParseOptions options;
  options.layout = layout;
  options.allow_comments = allow_comments;
  options.pool = pool;
  auto parsed = ParseTripletChunks(text, options);
  if (!parsed.ok()) return AnnotateError(parsed.status(), path);
  return parsed;
}

}  // namespace

Status SaveGraphText(const AttributedGraph& graph, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory: " + dir);

  PANE_RETURN_NOT_OK(WriteAll(
      dir + "/meta.txt",
      StrFormat("%lld %lld %d\n", static_cast<long long>(graph.num_nodes()),
                static_cast<long long>(graph.num_attributes()),
                graph.undirected() ? 0 : 1)));

  std::string edges;
  for (int64_t u = 0; u < graph.num_nodes(); ++u) {
    const CsrMatrix::RowView row = graph.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) {
      edges += StrFormat("%lld %d\n", static_cast<long long>(u), row.cols[p]);
    }
  }
  PANE_RETURN_NOT_OK(WriteAll(dir + "/edges.txt", edges));

  std::string attrs;
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    const CsrMatrix::RowView row = graph.attributes().Row(v);
    for (int64_t p = 0; p < row.length; ++p) {
      attrs += StrFormat("%lld %d %.17g\n", static_cast<long long>(v),
                         row.cols[p], row.vals[p]);
    }
  }
  PANE_RETURN_NOT_OK(WriteAll(dir + "/attrs.txt", attrs));

  std::string labels;
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    const auto& node_labels = graph.labels()[static_cast<size_t>(v)];
    if (node_labels.empty()) continue;
    labels += StrFormat("%lld", static_cast<long long>(v));
    for (int32_t l : node_labels) labels += StrFormat(" %d", l);
    labels += "\n";
  }
  return WriteAll(dir + "/labels.txt", labels);
}

Result<AttributedGraph> LoadGraphText(const std::string& dir,
                                      ThreadPool* pool) {
  const std::string meta_path = dir + "/meta.txt";
  PANE_ASSIGN_OR_RETURN(const std::string meta, ReadFileToString(meta_path));
  const std::vector<std::string_view> fields = SplitWhitespace(meta);
  if (fields.size() != 3) {
    return Status::InvalidArgument(meta_path +
                                   ": expected 'nodes attributes directed'");
  }
  auto n = ParseInt64(fields[0]);
  auto d = ParseInt64(fields[1]);
  auto directed = ParseInt64(fields[2]);
  if (!n.ok() || !d.ok() || !directed.ok() || *n < 0 || *d < 0 ||
      (*directed != 0 && *directed != 1)) {
    return Status::InvalidArgument(meta_path + ": malformed header '" +
                                   std::string(Trim(meta)) + "'");
  }
  // Column indices are 32-bit; a larger count can only be a corrupt header,
  // and must not size the builder's allocations.
  constexpr int64_t kMaxCount = int64_t{1} << 31;
  if (*n > kMaxCount || *d > kMaxCount) {
    return Status::InvalidArgument(
        meta_path + ": node/attribute count exceeds the 2^31 format limit");
  }

  GraphBuilder builder(*n, *d);
  {
    PANE_ASSIGN_OR_RETURN(
        const std::vector<std::vector<Triplet>> edges,
        ParseGraphFile(dir + "/edges.txt", TripletLayout::kPair,
                       /*allow_comments=*/false, pool));
    builder.AddEdges(edges);
  }
  {
    PANE_ASSIGN_OR_RETURN(
        const std::vector<std::vector<Triplet>> attrs,
        ParseGraphFile(dir + "/attrs.txt", TripletLayout::kTriple,
                       /*allow_comments=*/false, pool));
    builder.AddNodeAttributes(attrs);
  }
  {
    const std::string labels_path = dir + "/labels.txt";
    std::ifstream labels(labels_path);
    if (labels) {  // optional file
      std::string line;
      int64_t line_number = 0;
      while (std::getline(labels, line)) {
        ++line_number;
        const std::vector<std::string_view> tokens = SplitWhitespace(line);
        if (tokens.empty()) continue;
        const auto node = ParseInt64(tokens[0]);
        const int64_t v = node.ok() ? *node : -1;
        bool ok = node.ok();
        for (size_t i = 1; ok && i < tokens.size(); ++i) {
          const auto label = ParseInt64(tokens[i]);
          // Range-check before the int32 narrowing so 2^32 cannot silently
          // wrap to class 0.
          ok = label.ok() && *label >= 0 && *label <= INT32_MAX;
          if (ok) builder.AddLabel(v, static_cast<int32_t>(*label));
        }
        if (!ok) {
          return Status::InvalidArgument(
              StrFormat("%s: malformed line %lld: '%s'", labels_path.c_str(),
                        static_cast<long long>(line_number),
                        std::string(Trim(line)).substr(0, 60).c_str()));
        }
      }
    }
  }
  return builder.Build(*directed == 0);
}

Status SaveGraphContainer(const AttributedGraph& graph,
                          const std::string& path) {
  // Fixed-size meta record, serialized field by field (no struct memcpy, so
  // no padding-byte nondeterminism): version u32, undirected u8, 3 reserved
  // bytes, then the two CSR shapes as i64 pairs.
  std::string meta;
  AppendPod<uint32_t>(&meta, kGraphMetaVersion);
  AppendPod<uint8_t>(&meta, graph.undirected() ? 1 : 0);
  meta.append(3, '\0');
  AppendPod<int64_t>(&meta, graph.adjacency().rows());
  AppendPod<int64_t>(&meta, graph.adjacency().cols());
  AppendPod<int64_t>(&meta, graph.attributes().rows());
  AppendPod<int64_t>(&meta, graph.attributes().cols());

  // Flatten the per-node label lists into an offsets + ids pair so they pack
  // as two flat streams.
  const int64_t n = graph.num_nodes();
  std::vector<int64_t> label_offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<int32_t> label_ids;
  for (int64_t v = 0; v < n; ++v) {
    const auto& node_labels = graph.labels()[static_cast<size_t>(v)];
    label_ids.insert(label_ids.end(), node_labels.begin(), node_labels.end());
    label_offsets[static_cast<size_t>(v) + 1] =
        static_cast<int64_t>(label_ids.size());
  }

  store::ContainerWriter writer;
  const auto add = [&writer](const char* name, store::PageType type,
                             const void* data, int64_t bytes) {
    return writer.AddStream(name, type, data, bytes);
  };
  const auto bytes_of = [](const auto& v) {
    return static_cast<int64_t>(v.size() * sizeof(v[0]));
  };
  const CsrMatrix& adj = graph.adjacency();
  const CsrMatrix& attr = graph.attributes();
  PANE_RETURN_NOT_OK(add(kGraphMetaStream, store::PageType::kMeta, meta.data(),
                         static_cast<int64_t>(meta.size())));
  PANE_RETURN_NOT_OK(add(kAdjIndptrStream, store::PageType::kGraphCsr,
                         adj.indptr().data(), bytes_of(adj.indptr())));
  PANE_RETURN_NOT_OK(add(kAdjIndicesStream, store::PageType::kGraphCsr,
                         adj.indices().data(), bytes_of(adj.indices())));
  PANE_RETURN_NOT_OK(add(kAdjValuesStream, store::PageType::kGraphCsr,
                         adj.values().data(), bytes_of(adj.values())));
  PANE_RETURN_NOT_OK(add(kAttrIndptrStream, store::PageType::kGraphCsr,
                         attr.indptr().data(), bytes_of(attr.indptr())));
  PANE_RETURN_NOT_OK(add(kAttrIndicesStream, store::PageType::kGraphCsr,
                         attr.indices().data(), bytes_of(attr.indices())));
  PANE_RETURN_NOT_OK(add(kAttrValuesStream, store::PageType::kGraphCsr,
                         attr.values().data(), bytes_of(attr.values())));
  PANE_RETURN_NOT_OK(add(kLabelOffsetsStream, store::PageType::kGraphCsr,
                         label_offsets.data(), bytes_of(label_offsets)));
  PANE_RETURN_NOT_OK(add(kLabelIdsStream, store::PageType::kGraphCsr,
                         label_ids.data(), bytes_of(label_ids)));
  return writer.WriteTo(path);
}

namespace {

/// Reads one CSR matrix from its three container streams. The arrays are
/// copied out of the mapping (the graph owns its storage) and validated by
/// FromCsrArrays before adoption.
Result<CsrMatrix> ReadContainerCsr(const store::Container& container,
                                   int64_t rows, int64_t cols,
                                   const char* indptr_name,
                                   const char* indices_name,
                                   const char* values_name) {
  PANE_ASSIGN_OR_RETURN(auto indptr_view,
                        container.ReadArray<int64_t>(indptr_name));
  PANE_ASSIGN_OR_RETURN(auto indices_view,
                        container.ReadArray<int32_t>(indices_name));
  PANE_ASSIGN_OR_RETURN(auto values_view,
                        container.ReadArray<double>(values_name));
  if (indptr_view.count != rows + 1) {
    return Status::IOError(std::string(indptr_name) +
                           " length does not match the stored row count");
  }
  if (indices_view.count != values_view.count) {
    return Status::IOError(std::string(indices_name) + " and " + values_name +
                           " lengths disagree");
  }
  std::vector<int64_t> indptr(indptr_view.data,
                              indptr_view.data + indptr_view.count);
  std::vector<int32_t> indices(indices_view.data,
                               indices_view.data + indices_view.count);
  std::vector<double> values(values_view.data,
                             values_view.data + values_view.count);
  return CsrMatrix::FromCsrArrays(rows, cols, std::move(indptr),
                                  std::move(indices), std::move(values));
}

}  // namespace

Result<AttributedGraph> LoadGraphContainer(const std::string& path) {
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  auto meta_result = container.Read(kGraphMetaStream);
  if (!meta_result.ok()) {
    if (meta_result.status().IsNotFound()) {
      return Status::InvalidArgument("container " + path +
                                     " holds no graph artifact");
    }
    return meta_result.status();
  }
  const store::Container::StreamView meta = meta_result.MoveValueUnsafe();
  constexpr int64_t kMetaBytes = 4 + 1 + 3 + 4 * 8;
  if (meta.bytes != kMetaBytes) {
    return Status::IOError("graph.meta stream in " + path + " holds " +
                           std::to_string(meta.bytes) + " bytes, expected " +
                           std::to_string(kMetaBytes));
  }
  const char* p = meta.data;
  uint32_t version = 0;
  std::memcpy(&version, p, sizeof(version));
  if (version != kGraphMetaVersion) {
    return Status::InvalidArgument(
        "unsupported graph container version " + std::to_string(version) +
        " in " + path);
  }
  const uint8_t undirected = static_cast<uint8_t>(p[4]);
  if (undirected > 1) {
    return Status::IOError("bad undirected flag in " + path);
  }
  int64_t shapes[4] = {0, 0, 0, 0};
  std::memcpy(shapes, p + 8, sizeof(shapes));
  for (int64_t s : shapes) {
    if (s < 0) return Status::IOError("negative matrix shape in " + path);
  }
  if (shapes[2] != shapes[0]) {
    return Status::IOError(
        "adjacency and attribute row counts disagree in " + path);
  }

  auto adjacency =
      ReadContainerCsr(container, shapes[0], shapes[1], kAdjIndptrStream,
                       kAdjIndicesStream, kAdjValuesStream);
  if (!adjacency.ok()) return AnnotateError(adjacency.status(), path);
  auto attributes =
      ReadContainerCsr(container, shapes[2], shapes[3], kAttrIndptrStream,
                       kAttrIndicesStream, kAttrValuesStream);
  if (!attributes.ok()) return AnnotateError(attributes.status(), path);

  const int64_t n = shapes[0];
  PANE_ASSIGN_OR_RETURN(auto offsets_view,
                        container.ReadArray<int64_t>(kLabelOffsetsStream));
  PANE_ASSIGN_OR_RETURN(auto ids_view,
                        container.ReadArray<int32_t>(kLabelIdsStream));
  if (offsets_view.count != n + 1) {
    return Status::IOError("label offsets length does not match the node "
                           "count in " + path);
  }
  if (offsets_view.data[0] != 0 ||
      offsets_view.data[n] != ids_view.count) {
    return Status::IOError("label offsets do not span the id list in " + path);
  }
  std::vector<std::vector<int32_t>> labels(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    const int64_t begin = offsets_view.data[v];
    const int64_t end = offsets_view.data[v + 1];
    // Bound each range before touching the ids: a later offset cannot be
    // trusted to reveal that this one ran past the id list.
    if (begin > end || end > ids_view.count) {
      return Status::IOError("label offsets not non-decreasing within the "
                             "id list in " + path);
    }
    auto& node_labels = labels[static_cast<size_t>(v)];
    node_labels.reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      if (ids_view.data[i] < 0) {
        return Status::IOError("negative label id in " + path);
      }
      node_labels.push_back(ids_view.data[i]);
    }
  }

  auto graph =
      AttributedGraph::FromCsr(adjacency.MoveValueUnsafe(),
                               attributes.MoveValueUnsafe(), std::move(labels),
                               undirected == 1);
  if (!graph.ok()) return AnnotateError(graph.status(), path);
  return graph;
}

// Parses "key=value" integer fields from a SaveEdgeList header line
// ("# PANE edge list: nodes=N edges=M directed=D"); returns -1 when absent.
int64_t HeaderField(std::string_view line, std::string_view key) {
  const size_t pos = line.find(key);
  if (pos == std::string_view::npos) return -1;
  std::string_view rest = line.substr(pos + key.size());
  const size_t end = rest.find_first_not_of("0123456789");
  const auto value = ParseInt64(rest.substr(0, end));
  return value.ok() ? *value : -1;
}

Result<AttributedGraph> LoadEdgeList(const std::string& path,
                                     const EdgeListOptions& options) {
  PANE_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  TripletParseOptions parse_options;
  parse_options.layout = TripletLayout::kWeightedPair;
  parse_options.allow_comments = true;
  parse_options.pool = options.pool;
  auto parsed = ParseTripletChunks(text, parse_options);
  if (!parsed.ok()) return AnnotateError(parsed.status(), path);
  const std::vector<std::vector<Triplet>>& edges = *parsed;

  // A file written by SaveEdgeList carries the node count and directedness
  // in its header; honor them so the round trip preserves trailing isolated
  // nodes and the undirected flag. Explicit options still win.
  int64_t header_nodes = -1;
  bool header_undirected = false;
  {
    const std::string_view first_line =
        std::string_view(text).substr(0, text.find('\n'));
    if (StartsWith(first_line, "# PANE edge list:")) {
      header_nodes = HeaderField(first_line, "nodes=");
      header_undirected = HeaderField(first_line, "directed=") == 0;
    }
  }

  int64_t n = options.num_nodes >= 0 ? options.num_nodes : header_nodes;
  if (n < 0) {
    n = 0;
    for (const auto& chunk : edges) {
      for (const Triplet& t : chunk) n = std::max({n, t.row + 1, t.col + 1});
    }
  }
  // Column indices are 32-bit, so a node id >= 2^31 can only be a corrupt
  // file; reject it here instead of attempting a multi-GB builder
  // allocation sized by the bogus id.
  constexpr int64_t kMaxNodes = int64_t{1} << 31;
  if (n > kMaxNodes) {
    return Status::InvalidArgument(
        StrFormat("%s: node id %lld exceeds the 2^31 format limit",
                  path.c_str(), static_cast<long long>(n - 1)));
  }

  GraphBuilder builder(n, /*num_attributes=*/0);
  if (options.undirected) {
    // The file stores one direction per line; mirror while adding.
    for (const auto& chunk : edges) {
      for (const Triplet& t : chunk) builder.AddUndirectedEdge(t.row, t.col);
    }
  } else {
    // An undirected header means both directions are already present.
    builder.AddEdges(edges);
  }
  auto graph = builder.Build(options.undirected || header_undirected);
  if (!graph.ok()) return AnnotateError(graph.status(), path);
  return graph;
}

Status SaveEdgeList(const AttributedGraph& graph, const std::string& path) {
  std::string buf = StrFormat(
      "# PANE edge list: nodes=%lld edges=%lld directed=%d\n",
      static_cast<long long>(graph.num_nodes()),
      static_cast<long long>(graph.num_edges()), graph.undirected() ? 0 : 1);
  for (int64_t u = 0; u < graph.num_nodes(); ++u) {
    const CsrMatrix::RowView row = graph.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) {
      buf += StrFormat("%lld %d\n", static_cast<long long>(u), row.cols[p]);
    }
  }
  return WriteAll(path, buf);
}

Result<AttributedGraph> LoadGraphAuto(const std::string& path,
                                      ThreadPool* pool) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return LoadGraphText(path, pool);
  }
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IOError("no such graph file or directory: " + path);
  }
  if (store::Container::PathIsContainer(path)) {
    return LoadGraphContainer(path);
  }
  EdgeListOptions options;
  options.pool = pool;
  return LoadEdgeList(path, options);
}

}  // namespace pane
