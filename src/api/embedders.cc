// The six built-in embedders: thin adapters that parse an EmbedderConfig
// into each algorithm's option struct, delegate training to the existing
// entry points (Pane::Train, TrainTadw, ...), and package the output into
// the common NodeEmbedding artifact with the scoring conventions the paper
// evaluates that method under.
#include "src/api/embedders.h"

#include <utility>

#include "src/baselines/bane.h"
#include "src/common/logging.h"
#include "src/baselines/bla_like.h"
#include "src/baselines/lqanr.h"
#include "src/baselines/nrp.h"
#include "src/baselines/tadw.h"
#include "src/core/pane.h"
#include "src/matrix/matrix_kernels.h"

namespace pane {
namespace {

/// [xf | xb] as one n x k feature matrix (the factor methods' primary
/// features; consumers that want the normalized classifier view go through
/// the ClassifierFeatures adapter).
DenseMatrix ConcatFactors(const DenseMatrix& xf, const DenseMatrix& xb) {
  DenseMatrix features(xf.rows(), xf.cols() + xb.cols());
  features.SetBlock(0, 0, xf);
  features.SetBlock(0, xf.cols(), xb);
  return features;
}

// ---------------------------------------------------------------------------
// PANE ("pane" = Algorithm 5 parallel, "pane-seq" = Algorithm 1).

class PaneEmbedder : public Embedder {
 public:
  PaneEmbedder(PaneOptions options, bool parallel, bool verbose)
      : options_(options), parallel_(parallel), verbose_(verbose) {}

  const char* name() const override { return parallel_ ? "pane" : "pane-seq"; }

  Status Validate() const override { return ValidatePaneOptions(options_); }

  Result<NodeEmbedding> Train(const AttributedGraph& graph) const override {
    PaneStats stats;
    PANE_ASSIGN_OR_RETURN(PaneEmbedding trained,
                          Pane(options_).Train(graph, &stats));
    if (verbose_) {
      // The one stats sink every entry point shares (pane_cli --verbose):
      // how the memory budget decomposed the run.
      PANE_LOG(INFO) << name() << " affinity engine: width="
                     << stats.affinity.panel_width
                     << " panels=" << stats.affinity.num_panels
                     << " scratch=" << stats.affinity.scratch_bytes
                     << "B outputs=" << stats.affinity.output_bytes << "B"
                     << (stats.affinity.panel_parallel ? " panel-parallel"
                                                       : " row-parallel");
      PANE_LOG(INFO) << name() << " slabs: "
                     << (stats.slabs_spilled ? "mmap-spill" : "in-RAM")
                     << " total=" << stats.slab_bytes
                     << "B pool evicted=" << stats.pool.evicted_pages
                     << " written_back=" << stats.pool.writeback_pages
                     << " resident_peak=" << stats.pool.resident_peak_bytes
                     << "B; init blocks overlapped="
                     << stats.init_blocks_overlapped
                     << "; ccd strip=" << stats.ccd.strip_width
                     << " scratch=" << stats.ccd.scratch_bytes
                     << "B node_sweep=" << stats.ccd.node_sweep_seconds
                     << "s attribute_sweep="
                     << stats.ccd.attribute_sweep_seconds
                     << "s strip_copy=" << stats.ccd.strip_copy_seconds << "s";
      // Which compilation of the Dot/Axpy/GEMM kernels ran, so a training
      // time can be read against the ISA from the log alone.
      PANE_LOG(INFO) << name() << " kernels=" << GetMatrixKernels().name;
    }
    return NodeEmbedding::FromPane(std::move(trained), name());
  }

 private:
  PaneOptions options_;
  bool parallel_;
  bool verbose_;
};

Result<std::unique_ptr<Embedder>> MakePane(const EmbedderConfig& config,
                                           bool parallel) {
  PaneOptions options;
  PANE_ASSIGN_OR_RETURN(const int64_t k, config.GetInt("k", options.k));
  options.k = static_cast<int>(k);
  PANE_ASSIGN_OR_RETURN(options.alpha,
                        config.GetDouble("alpha", options.alpha));
  PANE_ASSIGN_OR_RETURN(options.epsilon,
                        config.GetDouble("epsilon", options.epsilon));
  PANE_ASSIGN_OR_RETURN(const int64_t ccd,
                        config.GetInt("ccd_iterations", 0));
  options.ccd_iterations = static_cast<int>(ccd);
  PANE_ASSIGN_OR_RETURN(options.greedy_init,
                        config.GetBool("greedy_init", true));
  // --memory-budget-mb arrives as this key: FromFlags normalizes dashed
  // flag names to the underscore spelling.
  PANE_ASSIGN_OR_RETURN(options.memory_budget_mb,
                        config.GetInt("memory_budget_mb", 0));
  options.spill_dir = config.GetString("spill_dir", "");
  PANE_ASSIGN_OR_RETURN(const bool verbose,
                        config.GetBool("verbose", false));
  PANE_ASSIGN_OR_RETURN(const int64_t seed, config.GetInt("seed", 42));
  options.seed = static_cast<uint64_t>(seed);
  if (parallel) {
    PANE_ASSIGN_OR_RETURN(const int64_t threads, config.GetInt("threads", 4));
    options.num_threads = static_cast<int>(threads);
  } else {
    options.num_threads = 1;
  }
  return std::unique_ptr<Embedder>(
      new PaneEmbedder(options, parallel, verbose));
}

// ---------------------------------------------------------------------------
// TADW.

class TadwEmbedder : public Embedder {
 public:
  explicit TadwEmbedder(TadwOptions options) : options_(options) {}

  const char* name() const override { return "tadw"; }

  Status Validate() const override {
    if (options_.k < 2 || options_.k % 2 != 0) {
      return Status::InvalidArgument("tadw: k must be even and >= 2");
    }
    if (options_.text_dim < 1) {
      return Status::InvalidArgument("tadw: text_dim must be >= 1");
    }
    if (options_.als_iterations < 1) {
      return Status::InvalidArgument("tadw: als_iterations must be >= 1");
    }
    if (options_.ridge <= 0.0) {
      return Status::InvalidArgument("tadw: ridge must be > 0");
    }
    if (options_.max_nodes < 1) {
      return Status::InvalidArgument("tadw: max_nodes must be >= 1");
    }
    return Status::OK();
  }

  Result<NodeEmbedding> Train(const AttributedGraph& graph) const override {
    PANE_ASSIGN_OR_RETURN(TadwEmbedding trained, TrainTadw(graph, options_));
    NodeEmbedding e;
    e.method = name();
    e.features = std::move(trained.features);
    e.link_convention = LinkConvention::kInnerProduct;
    e.attribute_convention = AttributeConvention::kCentroid;
    return e;
  }

 private:
  TadwOptions options_;
};

// ---------------------------------------------------------------------------
// NRP.

class NrpEmbedder : public Embedder {
 public:
  explicit NrpEmbedder(NrpOptions options) : options_(options) {}

  const char* name() const override { return "nrp"; }

  Status Validate() const override {
    if (options_.k < 2 || options_.k % 2 != 0) {
      return Status::InvalidArgument("nrp: k must be even and >= 2");
    }
    if (options_.alpha <= 0.0 || options_.alpha >= 1.0) {
      return Status::InvalidArgument("nrp: teleport must be in (0, 1)");
    }
    if (options_.ppr_iterations < 1) {
      return Status::InvalidArgument("nrp: ppr_iterations must be >= 1");
    }
    if (options_.reweight_rounds < 0) {
      return Status::InvalidArgument("nrp: reweight_rounds must be >= 0");
    }
    return Status::OK();
  }

  Result<NodeEmbedding> Train(const AttributedGraph& graph) const override {
    PANE_ASSIGN_OR_RETURN(NrpEmbedding trained, TrainNrp(graph, options_));
    NodeEmbedding e;
    e.method = name();
    e.features = ConcatFactors(trained.xf, trained.xb);
    e.xf = std::move(trained.xf);
    e.xb = std::move(trained.xb);
    e.link_convention = LinkConvention::kAsymmetricDot;
    e.attribute_convention = AttributeConvention::kCentroid;
    return e;
  }

 private:
  NrpOptions options_;
};

// ---------------------------------------------------------------------------
// BANE.

class BaneEmbedder : public Embedder {
 public:
  explicit BaneEmbedder(BaneOptions options) : options_(options) {}

  const char* name() const override { return "bane"; }

  Status Validate() const override {
    if (options_.k < 1) {
      return Status::InvalidArgument("bane: k must be >= 1");
    }
    if (options_.smoothing_hops < 0) {
      return Status::InvalidArgument("bane: smoothing_hops must be >= 0");
    }
    if (options_.iterations < 1) {
      return Status::InvalidArgument("bane: iterations must be >= 1");
    }
    return Status::OK();
  }

  Result<NodeEmbedding> Train(const AttributedGraph& graph) const override {
    PANE_ASSIGN_OR_RETURN(BaneEmbedding trained, TrainBane(graph, options_));
    NodeEmbedding e;
    e.method = name();
    e.features = std::move(trained.codes);
    e.link_convention = LinkConvention::kHamming;
    e.attribute_convention = AttributeConvention::kCentroid;
    return e;
  }

 private:
  BaneOptions options_;
};

// ---------------------------------------------------------------------------
// LQANR.

class LqanrEmbedder : public Embedder {
 public:
  explicit LqanrEmbedder(LqanrOptions options) : options_(options) {}

  const char* name() const override { return "lqanr"; }

  Status Validate() const override {
    if (options_.k < 1) {
      return Status::InvalidArgument("lqanr: k must be >= 1");
    }
    if (options_.bit_width < 1 || options_.bit_width > 8) {
      return Status::InvalidArgument("lqanr: bit_width must be in [1, 8]");
    }
    if (options_.smoothing_hops < 0) {
      return Status::InvalidArgument("lqanr: smoothing_hops must be >= 0");
    }
    if (options_.refine_iterations < 1) {
      return Status::InvalidArgument("lqanr: refine_iterations must be >= 1");
    }
    return Status::OK();
  }

  Result<NodeEmbedding> Train(const AttributedGraph& graph) const override {
    PANE_ASSIGN_OR_RETURN(LqanrEmbedding trained, TrainLqanr(graph, options_));
    NodeEmbedding e;
    e.method = name();
    e.features = std::move(trained.features);
    e.link_convention = LinkConvention::kInnerProduct;
    e.attribute_convention = AttributeConvention::kCentroid;
    return e;
  }

 private:
  LqanrOptions options_;
};

// ---------------------------------------------------------------------------
// BLA-like.

class BlaEmbedder : public Embedder {
 public:
  explicit BlaEmbedder(BlaLikeOptions options) : options_(options) {}

  const char* name() const override { return "bla"; }

  Status Validate() const override {
    if (options_.hops < 1) {
      return Status::InvalidArgument("bla: hops must be >= 1");
    }
    if (options_.decay <= 0.0 || options_.decay > 1.0) {
      return Status::InvalidArgument("bla: decay must be in (0, 1]");
    }
    if (options_.self_weight < 0.0) {
      return Status::InvalidArgument("bla: self_weight must be >= 0");
    }
    return Status::OK();
  }

  Result<NodeEmbedding> Train(const AttributedGraph& graph) const override {
    PANE_ASSIGN_OR_RETURN(BlaLikeModel trained,
                          TrainBlaLike(graph, options_));
    NodeEmbedding e;
    e.method = name();
    e.features = std::move(trained.scores);
    e.link_convention = LinkConvention::kInnerProduct;
    e.attribute_convention = AttributeConvention::kDirect;
    return e;
  }

 private:
  BlaLikeOptions options_;
};

}  // namespace

Result<std::unique_ptr<Embedder>> NewPaneEmbedder(
    const EmbedderConfig& config) {
  return MakePane(config, /*parallel=*/true);
}

Result<std::unique_ptr<Embedder>> NewPaneSeqEmbedder(
    const EmbedderConfig& config) {
  return MakePane(config, /*parallel=*/false);
}

Result<std::unique_ptr<Embedder>> NewTadwEmbedder(
    const EmbedderConfig& config) {
  TadwOptions options;
  PANE_ASSIGN_OR_RETURN(const int64_t k, config.GetInt("k", options.k));
  options.k = static_cast<int>(k);
  PANE_ASSIGN_OR_RETURN(const int64_t text_dim,
                        config.GetInt("text_dim", options.text_dim));
  options.text_dim = static_cast<int>(text_dim);
  PANE_ASSIGN_OR_RETURN(
      const int64_t als,
      config.GetInt("als_iterations", options.als_iterations));
  options.als_iterations = static_cast<int>(als);
  PANE_ASSIGN_OR_RETURN(options.ridge,
                        config.GetDouble("ridge", options.ridge));
  PANE_ASSIGN_OR_RETURN(options.max_nodes,
                        config.GetInt("max_nodes", options.max_nodes));
  PANE_ASSIGN_OR_RETURN(const int64_t seed, config.GetInt("seed", 3));
  options.seed = static_cast<uint64_t>(seed);
  return std::unique_ptr<Embedder>(new TadwEmbedder(options));
}

Result<std::unique_ptr<Embedder>> NewNrpEmbedder(const EmbedderConfig& config) {
  NrpOptions options;
  PANE_ASSIGN_OR_RETURN(const int64_t k, config.GetInt("k", options.k));
  options.k = static_cast<int>(k);
  // NRP's restart probability has its own key: "alpha" is taken by PANE's
  // walk-stopping probability in bridged flag namespaces, and the defaults
  // differ (0.15 vs 0.5).
  PANE_ASSIGN_OR_RETURN(options.alpha,
                        config.GetDouble("teleport", options.alpha));
  PANE_ASSIGN_OR_RETURN(
      const int64_t ppr,
      config.GetInt("ppr_iterations", options.ppr_iterations));
  options.ppr_iterations = static_cast<int>(ppr);
  PANE_ASSIGN_OR_RETURN(
      const int64_t rounds,
      config.GetInt("reweight_rounds", options.reweight_rounds));
  options.reweight_rounds = static_cast<int>(rounds);
  PANE_ASSIGN_OR_RETURN(
      options.reweight_ridge,
      config.GetDouble("reweight_ridge", options.reweight_ridge));
  PANE_ASSIGN_OR_RETURN(const int64_t seed, config.GetInt("seed", 99));
  options.seed = static_cast<uint64_t>(seed);
  return std::unique_ptr<Embedder>(new NrpEmbedder(options));
}

Result<std::unique_ptr<Embedder>> NewBaneEmbedder(
    const EmbedderConfig& config) {
  BaneOptions options;
  PANE_ASSIGN_OR_RETURN(const int64_t k, config.GetInt("k", options.k));
  options.k = static_cast<int>(k);
  PANE_ASSIGN_OR_RETURN(
      const int64_t hops,
      config.GetInt("smoothing_hops", options.smoothing_hops));
  options.smoothing_hops = static_cast<int>(hops);
  PANE_ASSIGN_OR_RETURN(const int64_t iters,
                        config.GetInt("iterations", options.iterations));
  options.iterations = static_cast<int>(iters);
  PANE_ASSIGN_OR_RETURN(options.ridge,
                        config.GetDouble("ridge", options.ridge));
  PANE_ASSIGN_OR_RETURN(const int64_t seed, config.GetInt("seed", 11));
  options.seed = static_cast<uint64_t>(seed);
  return std::unique_ptr<Embedder>(new BaneEmbedder(options));
}

Result<std::unique_ptr<Embedder>> NewLqanrEmbedder(
    const EmbedderConfig& config) {
  LqanrOptions options;
  PANE_ASSIGN_OR_RETURN(const int64_t k, config.GetInt("k", options.k));
  options.k = static_cast<int>(k);
  PANE_ASSIGN_OR_RETURN(const int64_t bits,
                        config.GetInt("bit_width", options.bit_width));
  options.bit_width = static_cast<int>(bits);
  PANE_ASSIGN_OR_RETURN(
      const int64_t hops,
      config.GetInt("smoothing_hops", options.smoothing_hops));
  options.smoothing_hops = static_cast<int>(hops);
  PANE_ASSIGN_OR_RETURN(
      const int64_t refine,
      config.GetInt("refine_iterations", options.refine_iterations));
  options.refine_iterations = static_cast<int>(refine);
  PANE_ASSIGN_OR_RETURN(const int64_t seed, config.GetInt("seed", 13));
  options.seed = static_cast<uint64_t>(seed);
  return std::unique_ptr<Embedder>(new LqanrEmbedder(options));
}

Result<std::unique_ptr<Embedder>> NewBlaEmbedder(const EmbedderConfig& config) {
  BlaLikeOptions options;
  PANE_ASSIGN_OR_RETURN(const int64_t hops,
                        config.GetInt("hops", options.hops));
  options.hops = static_cast<int>(hops);
  PANE_ASSIGN_OR_RETURN(options.decay,
                        config.GetDouble("decay", options.decay));
  PANE_ASSIGN_OR_RETURN(options.self_weight,
                        config.GetDouble("self_weight", options.self_weight));
  return std::unique_ptr<Embedder>(new BlaEmbedder(options));
}

}  // namespace pane
