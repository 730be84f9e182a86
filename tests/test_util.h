// Shared fixtures for the tests: the paper's Figure 1 running example,
// small SBM instances, in-RAM affinity slabs and init options for the core
// phases, a container rewriter for hostile-input cases, and the resident
// bytes of one mapping.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/core/affinity_engine.h"
#include "src/core/greedy_init.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/matrix/gemm.h"
#include "src/store/container.h"

namespace pane {
namespace testing {

/// The extended-graph running example of Figure 1 (6 nodes, 3 attributes).
/// Edges transcribed from the figure; v1 (index 0) and v2 (index 1) carry no
/// attributes, exercising the degenerate-walk footnote.
inline AttributedGraph Figure1Graph() {
  GraphBuilder builder(6, 3);
  builder.AddEdge(0, 2).AddEdge(2, 0);  // v1 <-> v3
  builder.AddEdge(0, 4).AddEdge(4, 0);  // v1 <-> v5
  builder.AddEdge(1, 2);                // v2 -> v3
  builder.AddEdge(2, 3);                // v3 -> v4
  builder.AddEdge(3, 0);                // v4 -> v1
  builder.AddEdge(4, 5);                // v5 -> v6
  builder.AddEdge(5, 3);                // v6 -> v4
  builder.AddNodeAttribute(2, 0, 1.0);  // v3 - r1
  builder.AddNodeAttribute(3, 0, 1.0);  // v4 - r1
  builder.AddNodeAttribute(4, 0, 1.0);  // v5 - r1
  builder.AddNodeAttribute(2, 1, 1.0);  // v3 - r2
  builder.AddNodeAttribute(4, 1, 1.0);  // v5 - r2
  builder.AddNodeAttribute(5, 2, 1.0);  // v6 - r3
  return builder.Build(false).ValueOrDie();
}

/// Small homophilous SBM instance for end-to-end quality tests.
inline AttributedGraph SmallSbm(uint64_t seed = 12, int64_t n = 400,
                                bool undirected = false) {
  SbmParams params;
  params.num_nodes = n;
  params.num_edges = 6 * n;
  params.num_attributes = 80;
  params.num_attr_entries = 8 * n;
  params.num_communities = 4;
  params.edge_homophily = 0.85;
  params.attr_homophily = 0.85;
  params.undirected = undirected;
  params.seed = seed;
  return GenerateAttributedSbm(params);
}

/// The benchmark's training graph: `panebench_tool gen-graph --seed=1
/// --nodes=3000 --edges=45000 --attrs=300 --attr-entries=45000
/// --communities=8`.
inline AttributedGraph BenchmarkShapedGraph() {
  SbmParams params;
  params.num_nodes = 3000;
  params.num_edges = 45000;
  params.num_attributes = 300;
  params.num_attr_entries = 45000;
  params.num_communities = 8;
  params.seed = 1;
  return GenerateAttributedSbm(params);
}

/// F' / B' of `g` through the affinity engine with t derived from
/// (epsilon, alpha), in RAM.
inline AffinitySlabs GraphAffinity(const AttributedGraph& g,
                                   double alpha = 0.5,
                                   double epsilon = 0.015) {
  AffinityEngineOptions options;
  options.alpha = alpha;
  options.t = ComputeIterationCount(epsilon, alpha);
  AffinitySlabs affinity;
  affinity.forward =
      FactorSlab::Create(g.num_nodes(), g.num_attributes()).ValueOrDie();
  affinity.backward =
      FactorSlab::Create(g.num_nodes(), g.num_attributes()).ValueOrDie();
  PANE_CHECK_OK(ComputeGraphAffinityIntoSlabs(g, options, &affinity));
  return affinity;
}

/// Init options for space budget k and t RandSVD power iterations; a pool
/// of more than one thread makes GreedyInit run Algorithm 7 with one block
/// per worker.
inline InitOptions InitFor(int k, int t, ThreadPool* pool = nullptr,
                           uint64_t seed = 42) {
  InitOptions options;
  options.k = k;
  options.t = t;
  options.pool = pool;
  options.seed = seed;
  return options;
}

/// The residual X Y^T - F: GemmTransB, then Sub. The init tests hold the
/// in-place residuals to it byte for byte, the CCD tests within tolerance.
inline DenseMatrix Residual(const DenseMatrix& x, const DenseMatrix& y,
                            const DenseMatrix& f) {
  DenseMatrix s;
  GemmTransB(x, y, &s);
  s.Sub(f);
  return s;
}

/// max |Sf - (Xf Y^T - F')| + max |Sb - (Xb Y^T - B')| of a state against
/// the affinity it was built from (0 when the residuals are consistent).
inline double ResidualConsistencyError(const EmbeddingState& s,
                                       const AffinitySlabs& affinity) {
  return s.sf.MaxAbsDiff(
             Residual(s.xf, s.y, affinity.forward.ToDense().ValueOrDie())) +
         s.sb.MaxAbsDiff(
             Residual(s.xb, s.y, affinity.backward.ToDense().ValueOrDie()));
}

/// Edits one container stream's payload in place; returns false to drop the
/// stream instead.
using StreamPatch =
    std::function<bool(const std::string& name, std::string* payload)>;

/// Copies the container at `src` to `dst` stream by stream, passing each
/// stream through `patch` first. The copy carries fresh checksums, so a
/// hostile edit reaches the loader's structural checks instead of tripping
/// the CRC.
inline void RewriteContainer(const std::string& src, const std::string& dst,
                             const StreamPatch& patch) {
  auto container = store::Container::Open(src);
  PANE_CHECK(container.ok()) << container.status();
  std::vector<std::string> payloads;
  payloads.reserve(container->streams().size());
  store::ContainerWriter writer;
  for (const store::StreamEntry& entry : container->streams()) {
    const std::string name = entry.name;
    auto view = container->Read(name);
    PANE_CHECK(view.ok()) << view.status();
    payloads.emplace_back(view->data, static_cast<size_t>(view->bytes));
    if (!patch(name, &payloads.back())) continue;
    PANE_CHECK_OK(writer.AddStream(
        name, view->type, payloads.back().data(),
        static_cast<int64_t>(payloads.back().size())));
  }
  PANE_CHECK_OK(writer.WriteTo(dst));
}

/// Resident bytes of the mapping that starts at `base` (its Rss line in
/// /proc/self/smaps), or -1 when no mapping starts there.
inline int64_t MappedRssBytes(const void* base) {
  std::ifstream smaps("/proc/self/smaps");
  const uintptr_t want = reinterpret_cast<uintptr_t>(base);
  std::string line;
  bool found = false;
  while (std::getline(smaps, line)) {
    unsigned long start = 0;
    unsigned long end = 0;
    char dash = 0;
    if (std::sscanf(line.c_str(), "%lx%c%lx", &start, &dash, &end) == 3 &&
        dash == '-') {
      found = start == want;
    } else if (found && line.rfind("Rss:", 0) == 0) {
      return int64_t{1024} * std::stoll(line.substr(4));
    }
  }
  return -1;
}

}  // namespace testing
}  // namespace pane
