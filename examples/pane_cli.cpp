// Command-line front-end on the unified Embedder API: pick any registered
// method with --method (PANE or a baseline), train on a graph stored on disk
// (text-layout directory, graph container, or raw edge list — see
// src/graph/graph_io.h) and write the common NodeEmbedding artifact as a
// checksummed container; or evaluate the method on the three downstream
// tasks. There is no per-algorithm branching here — EmbedderRegistry and
// the NodeEmbedding adapters do all the dispatch.
//
//   # train (writes the embedding container embedding.ctn)
//   ./pane_cli --mode=train --method=pane --graph=/data/cora
//        --out=embedding.ctn --k=128 --alpha=0.5 --epsilon=0.015 --threads=8
//   # evaluate any method on all three tasks
//   ./pane_cli --mode=eval --method=nrp --graph=/data/cora
//
// With --graph=demo (default) a synthetic Cora-like graph is generated and
// saved to a temp directory first, so the binary runs out of the box.
#include <cstdio>
#include <filesystem>

#include "src/api/evaluate.h"
#include "src/api/node_embedding.h"
#include "src/api/registry.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/datasets/registry.h"
#include "src/graph/graph_io.h"
#include "src/parallel/thread_pool.h"

namespace {

// Dispatches on the path: text-layout directory, graph container, or raw
// edge list (SNAP-style). Text parsing is chunked across `num_threads`.
pane::AttributedGraph LoadOrDemo(const std::string& graph_arg,
                                 int num_threads) {
  if (graph_arg != "demo") {
    pane::ThreadPool pool(num_threads);
    auto loaded = pane::LoadGraphAuto(graph_arg, &pool);
    PANE_CHECK(loaded.ok()) << loaded.status();
    return loaded.MoveValueUnsafe();
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pane_cli_demo").string();
  const pane::AttributedGraph g = *pane::MakeDatasetByName("cora", 1.0);
  PANE_CHECK_OK(pane::SaveGraphText(g, dir));
  std::printf("demo graph written to %s (reload it with --graph=%s)\n",
              dir.c_str(), dir.c_str());
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddString("method", "pane",
                  "embedder to run: " + pane::Join(
                      pane::EmbedderRegistry::Names(), " | "));
  flags.AddString("mode", "eval", "train | eval");
  flags.AddString("graph", "demo",
                  "graph to load: text-layout directory, graph container, "
                  "raw edge-list file, or 'demo'");
  flags.AddString("out", "/tmp/pane_embedding.ctn",
                  "embedding container output path");
  flags.AddInt("k", 128, "space budget");
  flags.AddDouble("alpha", 0.5, "random-walk stopping probability (PANE)");
  flags.AddDouble("epsilon", 0.015, "affinity error threshold (PANE)");
  flags.AddInt("threads", 4, "worker threads (1 = Algorithm 1)");
  flags.AddInt("memory-budget-mb", 0,
               "whole-pipeline memory budget in MiB (PANE): panel scratch, "
               "CCD strips, and spill of the n x d factors through the "
               "buffer pool when they exceed it (0 = unbounded; see README "
               "\"Memory model & tuning\")");
  flags.AddString("spill-dir", "",
                  "directory for factor spill files (default: temp dir)");
  flags.AddBool("verbose", false,
                "log the engine decomposition (panel width/panels/scratch, "
                "slab spill and pool counters, CCD strips) after training");
  flags.AddInt("seed", 42, "random seed");
  flags.AddString("opt", "",
                  "extra method-specific config entries, comma-separated "
                  "key=value (e.g. teleport=0.2,bit_width=3)");
  PANE_CHECK_OK(flags.Parse(argc, argv));

  // The registered flags are bridged into the config wholesale; --opt
  // reaches any method-specific key the flag set doesn't name. The chosen
  // embedder reads the keys it knows and validates them.
  const std::string method = flags.GetString("method");
  auto config = pane::EmbedderConfig::FromFlags(flags);
  for (const auto entry : pane::Split(flags.GetString("opt"), ',')) {
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    PANE_CHECK(eq != std::string_view::npos)
        << "--opt entries must look like key=value, got: " << entry;
    config.Set(std::string(entry.substr(0, eq)),
               std::string(entry.substr(eq + 1)));
  }
  const auto embedder = pane::EmbedderRegistry::Create(method, config);
  PANE_CHECK(embedder.ok()) << embedder.status();

  const pane::AttributedGraph graph =
      LoadOrDemo(flags.GetString("graph"), flags.GetInt("threads"));
  std::printf("loaded %s\n", graph.Summary().c_str());

  if (flags.GetString("mode") == "train") {
    pane::WallTimer timer;
    const auto embedding = (*embedder)->Train(graph);
    PANE_CHECK(embedding.ok()) << embedding.status();
    PANE_CHECK_OK(embedding->SaveContainer(flags.GetString("out")));
    std::printf(
        "trained %s embedding (n=%lld, dim=%lld, link=%s, attr=%s) in %.2fs; "
        "wrote %s\n",
        embedding->method.c_str(),
        static_cast<long long>(embedding->num_nodes()),
        static_cast<long long>(embedding->dim()),
        pane::LinkConventionToString(embedding->link_convention),
        pane::AttributeConventionToString(embedding->attribute_convention),
        timer.ElapsedSeconds(), flags.GetString("out").c_str());
    return 0;
  }

  PANE_CHECK(flags.GetString("mode") == "eval")
      << "unknown --mode (use train or eval)";
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  {  // Attribute inference.
    const auto r =
        pane::RunAttributeInference(**embedder, graph, 0.2, seed);
    PANE_CHECK(r.ok()) << r.status();
    std::printf("attribute inference: AUC %.3f  AP %.3f\n", r->auc, r->ap);
  }
  {  // Link prediction.
    const auto r = pane::RunLinkPrediction(**embedder, graph, 0.3, seed);
    PANE_CHECK(r.ok()) << r.status();
    std::printf("link prediction:     AUC %.3f  AP %.3f\n", r->auc, r->ap);
  }
  if (graph.has_labels()) {  // Node classification.
    pane::NodeClassificationOptions nc;
    nc.train_fraction = 0.5;
    nc.repeats = 3;
    const auto f1 = pane::RunNodeClassification(**embedder, graph, nc);
    PANE_CHECK(f1.ok()) << f1.status();
    std::printf("node classification: micro-F1 %.3f  macro-F1 %.3f\n",
                f1->micro, f1->macro);
  } else {
    std::printf("node classification: skipped (no labels)\n");
  }
  return 0;
}
