// Figure 3 reproduction: end-to-end embedding time per method per dataset
// (the paper plots log-scale seconds; we print seconds). "-" marks methods
// that refuse a dataset (TADW's densification wall), reproducing the
// "exceeds one week" omissions. Expected shape: PANE (parallel) fastest,
// PANE (single) next, NRP close behind, TADW/BANE/LQANR orders of magnitude
// slower and absent on the large datasets.
//
// Every method is driven through the unified EmbedderRegistry surface; the
// per-method column is just (name, config).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "bench_common.h"
#include "src/api/registry.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/datasets/registry.h"
#include "src/common/string_util.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/graph/text_parser.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

struct MethodColumn {
  std::string label;
  std::string method;
  EmbedderConfig config;
};

std::vector<MethodColumn> Columns() {
  std::vector<MethodColumn> columns;
  columns.push_back({"NRP", "nrp", EmbedderConfig()});
  columns.push_back(
      {"TADW", "tadw", EmbedderConfig().Set("max_nodes", "4096")});
  columns.push_back({"BANE", "bane", EmbedderConfig()});
  columns.push_back({"LQANR", "lqanr", EmbedderConfig()});
  columns.push_back({"PANE st", "pane-seq", EmbedderConfig()});
  columns.push_back({"PANE par", "pane", EmbedderConfig().Set("threads", "10")});
  return columns;
}

// The pre-ingestion-subsystem text loader (single-threaded `istream >>`),
// kept here verbatim as the baseline the new chunked parser is measured
// against.
AttributedGraph LegacyLoadGraphText(const std::string& dir) {
  std::ifstream meta(dir + "/meta.txt");
  int64_t n = 0, d = 0;
  int directed = 1;
  meta >> n >> d >> directed;
  PANE_CHECK(static_cast<bool>(meta)) << "malformed meta.txt";
  GraphBuilder builder(n, d);
  {
    std::ifstream edges(dir + "/edges.txt");
    int64_t u = 0, v = 0;
    while (edges >> u >> v) builder.AddEdge(u, v);
  }
  {
    std::ifstream attrs(dir + "/attrs.txt");
    int64_t v = 0, r = 0;
    double w = 0.0;
    while (attrs >> v >> r >> w) builder.AddNodeAttribute(v, r, w);
  }
  return builder.Build(directed == 0).ValueOrDie();
}

void RunIngestion() {
  bench::PrintHeader(
      "Ingestion: graph load throughput (1M-edge Barabasi-Albert)",
      "parse = edges.txt -> triplets only; load = full graph (parse + CSR "
      "build); speedup vs the legacy istream parse / load");
  const AttributedGraph g = BarabasiAlbert(115001, 10, /*seed=*/7);
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pane_ingest_bench";
  PANE_CHECK_OK(SaveGraphText(g, dir.string()));
  const std::string edges_path = (dir / "edges.txt").string();
  const std::string edge_list_path = (dir / "graph.el").string();
  PANE_CHECK_OK(SaveEdgeList(g, edge_list_path));
  const std::string container_path = (dir / "graph.ctn").string();
  PANE_CHECK_OK(SaveGraphContainer(g, container_path));
  const double edges_mb =
      static_cast<double>(fs::file_size(edges_path)) / 1e6;
  const double text_mb =
      edges_mb +
      static_cast<double>(fs::file_size(dir / "attrs.txt")) / 1e6;
  const double edge_list_mb =
      static_cast<double>(fs::file_size(edge_list_path)) / 1e6;
  const double container_mb =
      static_cast<double>(fs::file_size(container_path)) / 1e6;
  std::printf("(graph: %s)\n", g.Summary().c_str());

  bench::PrintRow("path", {"seconds", "MB/s", "speedup"});
  const auto best_of = [](const std::function<void()>& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      fn();
      best = std::min(best, timer.ElapsedSeconds());
    }
    return best;
  };
  double baseline_seconds = 0.0;
  const auto report = [&baseline_seconds](const std::string& name,
                                          double seconds, double mb) {
    bench::PrintRow(name, {bench::TimeCell(seconds),
                           bench::Cell(seconds > 0 ? mb / seconds : 0.0),
                           seconds > 0 && baseline_seconds > 0
                               ? bench::Cell(baseline_seconds / seconds)
                               : "n/a"});
  };

  // --- Parse only: the text -> triplet step the chunked parser replaced.
  const size_t expected = static_cast<size_t>(g.num_edges());
  baseline_seconds = best_of([&] {
    std::ifstream in(edges_path);
    std::vector<Triplet> triplets;
    int64_t u = 0, v = 0;
    while (in >> u >> v) triplets.push_back(Triplet{u, v, 1.0});
    PANE_CHECK(triplets.size() == expected);
  });
  report("parse istream seq", baseline_seconds, edges_mb);
  for (const int nb : {1, 10}) {
    ThreadPool pool(nb);
    const double seconds = best_of([&] {
      const std::string text = ReadFileToString(edges_path).ValueOrDie();
      TripletParseOptions options;
      options.pool = &pool;
      auto chunks = ParseTripletChunks(text, options);
      size_t total = 0;
      for (const auto& chunk : chunks.ValueOrDie()) total += chunk.size();
      PANE_CHECK(total == expected);
    });
    report(StrFormat("parse chunked nb=%d", nb), seconds, edges_mb);
  }

  // --- Full loads: parse + builder/CSR assembly (or direct CSR adoption).
  const auto check_load = [&g](const AttributedGraph& loaded) {
    PANE_CHECK(loaded.num_edges() == g.num_edges());
  };
  baseline_seconds = best_of(
      [&] { check_load(LegacyLoadGraphText(dir.string())); });
  report("load text legacy", baseline_seconds, text_mb);
  {
    ThreadPool pool(10);
    report("load text nb=10", best_of([&] {
             check_load(LoadGraphText(dir.string(), &pool).ValueOrDie());
           }),
           text_mb);
    EdgeListOptions options;
    options.pool = &pool;
    report("load edge list nb=10", best_of([&] {
             check_load(LoadEdgeList(edge_list_path, options).ValueOrDie());
           }),
           edge_list_mb);
  }
  report("load container", best_of([&] {
           check_load(LoadGraphContainer(container_path).ValueOrDie());
         }),
         container_mb);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

void Run() {
  bench::PrintHeader("Figure 3: running time (seconds)",
                     "paper shape: PANE par < PANE st << baselines; '-' = "
                     "method cannot run the dataset");
  const std::vector<MethodColumn> columns = Columns();
  std::vector<std::string> labels;
  for (const MethodColumn& c : columns) labels.push_back(c.label);
  bench::PrintRow("dataset", labels);

  const double scale = bench::BenchScale();
  for (const DatasetSpec& spec : AllDatasets()) {
    const AttributedGraph g = MakeDataset(spec, scale);
    std::vector<std::string> cells;
    for (const MethodColumn& column : columns) {
      const auto embedder =
          EmbedderRegistry::Create(column.method, column.config);
      PANE_CHECK(embedder.ok()) << embedder.status();
      WallTimer timer;
      const auto embedding = (*embedder)->Train(g);
      cells.push_back(
          bench::TimeCell(embedding.ok() ? timer.ElapsedSeconds() : -1));
    }
    bench::PrintRow(spec.name, cells);
  }
  std::printf(
      "\n(note: this container exposes %u hardware threads, so the parallel "
      "column saturates early; the paper's 10-core server shows up to 9x.)\n",
      std::thread::hardware_concurrency());

  RunIngestion();
}

}  // namespace
}  // namespace pane

int main() {
  pane::Run();
  return 0;
}
