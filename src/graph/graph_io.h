// Text, container, and edge-list persistence for attributed graphs. The
// text layout mirrors the edge-list / attribute-triple / label-list files
// that public ANE datasets (Cora, Citeseer, TWeibo, ...) ship as, so real
// data drops in when available; the paged, checksummed store:: container is
// the one binary format, for fast reload of large instances; the raw
// edge-list reader ingests SNAP-style downloads without conversion.
//
// Text directory layout:
//   meta.txt    "num_nodes num_attributes directed(0|1)"
//   edges.txt   one "from to" pair per line
//   attrs.txt   one "node attr weight" triple per line
//   labels.txt  one "node label1 label2 ..." line per labeled node (optional)
//
// Container streams: graph.meta (version, undirected flag, the two CSR
// shapes), the adjacency and attribute CSR arrays (graph.{adj,attr}.
// {indptr,indices,values}), and the label lists flattened into
// graph.label.offsets + graph.label.ids. Every array is checked against the
// meta shapes and the CSR structural rules (AttributedGraph::FromCsr)
// before the graph adopts it.
//
// Edge-list input: plain whitespace/TSV "u v" pairs, one per line, optional
// third numeric weight column (ignored — PANE's adjacency is binary), and
// '#'/'%' comment lines (SNAP / KONECT headers).
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/graph/graph.h"

namespace pane {

class ThreadPool;

/// Writes the graph as the four text files under `dir` (created if needed).
Status SaveGraphText(const AttributedGraph& graph, const std::string& dir);

/// Loads a graph from the text layout above. Edge and attribute files are
/// parsed in parallel chunks on `pool` when provided. Malformed lines yield
/// InvalidArgument naming the file and 1-based line number.
Result<AttributedGraph> LoadGraphText(const std::string& dir,
                                      ThreadPool* pool = nullptr);

/// Writes the graph as a paged, checksummed store:: container
/// (src/store/container.h): one meta stream plus the adjacency / attribute
/// CSR arrays and the flattened label lists, each its own page-aligned
/// stream. Crash-safe (temp + fsync + rename) and every page CRC32C-guarded.
Status SaveGraphContainer(const AttributedGraph& graph,
                          const std::string& path);

/// Loads a container written by SaveGraphContainer. Page checksums are
/// verified for every stream read, so a flipped bit anywhere in the loaded
/// bytes is a descriptive IOError, not a corrupt graph.
Result<AttributedGraph> LoadGraphContainer(const std::string& path);

struct EdgeListOptions {
  /// Mirror every (u, v) as (v, u) — most SNAP graphs are undirected.
  bool undirected = false;
  /// Node count; -1 infers max node id + 1 (trailing isolated nodes need an
  /// explicit count).
  int64_t num_nodes = -1;
  /// Parse chunks on this pool (nullptr = sequential).
  ThreadPool* pool = nullptr;
};

/// Loads a raw edge list (format above). The graph has no attributes or
/// labels; node ids must be non-negative.
Result<AttributedGraph> LoadEdgeList(const std::string& path,
                                     const EdgeListOptions& options = {});

/// Writes the adjacency as a "# nodes=<n> edges=<m>" header plus one
/// "u v" line per edge — re-loadable with LoadEdgeList.
Status SaveEdgeList(const AttributedGraph& graph, const std::string& path);

/// Dispatches on `path`: a directory loads the text layout, a file starting
/// with the container magic loads the checksummed container, anything else
/// is parsed as a raw edge list.
Result<AttributedGraph> LoadGraphAuto(const std::string& path,
                                      ThreadPool* pool = nullptr);

}  // namespace pane
