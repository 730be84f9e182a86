// google-benchmark microbenchmarks for the kernels PANE's complexity
// analysis is built on: SpMM (the O(md t) affinity phase), GEMM / RandSVD
// (the O(ndk t) initialization), one CCD sweep (the O(ndk) refinement) and
// its row-block kernels, and the ablation of incremental residual
// maintenance (Equations 18-20) against naive recomputation.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/greedy_init.h"
#include "src/core/pane.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/graph/text_parser.h"
#include "src/matrix/gemm.h"
#include "src/matrix/matrix_kernels.h"
#include "src/matrix/rand_svd.h"
#include "src/matrix/spmm.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

AttributedGraph BenchGraph(int64_t n, int64_t attrs = 200) {
  SbmParams params;
  params.num_nodes = n;
  params.num_edges = 10 * n;
  params.num_attributes = attrs;
  params.num_attr_entries = 10 * n;
  params.num_communities = 8;
  params.seed = 77;
  return GenerateAttributedSbm(params);
}

// F' / B' of `g` at the paper defaults (alpha = 0.5, eps = 0.015), in RAM.
AffinitySlabs BenchAffinity(const AttributedGraph& g) {
  AffinityEngineOptions options;
  options.t = ComputeIterationCount(0.015, 0.5);
  AffinitySlabs affinity;
  affinity.forward =
      FactorSlab::Create(g.num_nodes(), g.num_attributes()).ValueOrDie();
  affinity.backward =
      FactorSlab::Create(g.num_nodes(), g.num_attributes()).ValueOrDie();
  PANE_CHECK_OK(ComputeGraphAffinityIntoSlabs(g, options, &affinity));
  return affinity;
}

// Greedy-init options for space budget k with t = 6 power iterations.
InitOptions SeedOptions(int k) {
  InitOptions options;
  options.k = k;
  options.t = 6;
  return options;
}

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  const AttributedGraph g = BenchGraph(n);
  const CsrMatrix p = g.RandomWalkMatrix();
  Rng rng(1);
  DenseMatrix x(n, 64);
  x.FillGaussian(&rng);
  DenseMatrix out;
  for (auto _ : state) {
    SpMM(p, x, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * p.nnz() * 64);
}
BENCHMARK(BM_SpMM)->Arg(2000)->Arg(8000);

void BM_SpMMParallel(benchmark::State& state) {
  const int64_t n = 8000;
  const AttributedGraph g = BenchGraph(n);
  const CsrMatrix p = g.RandomWalkMatrix();
  Rng rng(1);
  DenseMatrix x(n, 64);
  x.FillGaussian(&rng);
  DenseMatrix out;
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SpMM(p, x, &out, &pool);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SpMMParallel)->Arg(1)->Arg(2)->Arg(4);

// --- Ingestion kernels -----------------------------------------------------

// ~200k-line "u v" edge text, the input shape of LoadGraphText / the SNAP
// edge-list reader.
std::string EdgeText(int64_t lines) {
  const AttributedGraph g = ErdosRenyi(lines / 8, lines, /*seed=*/5);
  std::string text;
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    const CsrMatrix::RowView row = g.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) {
      text += std::to_string(u) + ' ' + std::to_string(row.cols[p]) + '\n';
    }
  }
  return text;
}

// Baseline: the legacy `istream >>` token loop the chunked parser replaced.
void BM_ParseEdgeTextIstream(benchmark::State& state) {
  const std::string text = EdgeText(200000);
  for (auto _ : state) {
    std::istringstream in(text);
    std::vector<Triplet> triplets;
    int64_t u = 0, v = 0;
    while (in >> u >> v) triplets.push_back(Triplet{u, v, 1.0});
    benchmark::DoNotOptimize(triplets.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseEdgeTextIstream);

void BM_ParseEdgeTextChunked(benchmark::State& state) {
  const std::string text = EdgeText(200000);
  ThreadPool pool(static_cast<int>(state.range(0)));
  TripletParseOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    auto triplets = ParseTriplets(text, options);
    benchmark::DoNotOptimize(triplets.ValueOrDie().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseEdgeTextChunked)->Arg(1)->Arg(4)->Arg(10);

// Graph container reload: checksummed reads + direct CSR adoption (no
// per-edge rebuild).
void BM_LoadGraphContainer(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(20000);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pane_micro_graph.ctn")
          .string();
  PANE_CHECK_OK(SaveGraphContainer(g, path));
  const int64_t bytes =
      static_cast<int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    auto loaded = LoadGraphContainer(path);
    benchmark::DoNotOptimize(loaded.ValueOrDie().num_edges());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_LoadGraphContainer);

// C = A B with A n x inner and B inner x cols (args n, inner, cols). The
// last shape is one init block's product at the benchmark point: an F'
// row block of 1500 x 300 against a 300 x 72 sketch (k/2 = 64 plus the
// oversample of 8), the baseline for a register-tiled gemm_rows.
void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t inner = state.range(1);
  const int64_t cols = state.range(2);
  Rng rng(2);
  DenseMatrix a(n, inner), b(inner, cols), c;
  a.FillGaussian(&rng);
  b.FillGaussian(&rng);
  for (auto _ : state) {
    Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * inner * cols);
}
BENCHMARK(BM_Gemm)
    ->Args({2000, 200, 64})
    ->Args({8000, 200, 64})
    ->Args({1500, 300, 72});

// C = A^T Q at the shape of RandSvd's projection on one init block: A is
// n x 300 (arg), Q is n x 72 (k/2 = 64 plus the oversample of 8).
void BM_GemmTransA(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  DenseMatrix a(n, 300), q(n, 72), c;
  a.FillGaussian(&rng);
  q.FillGaussian(&rng);
  for (auto _ : state) {
    GemmTransA(a, q, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 300 * 72);
}
BENCHMARK(BM_GemmTransA)->Arg(1500)->Arg(3000);

void BM_RandSvd(benchmark::State& state) {
  Rng rng(3);
  DenseMatrix m(static_cast<int64_t>(state.range(0)), 200);
  m.FillGaussian(&rng);
  RandSvdOptions options;
  options.power_iters = 6;
  DenseMatrix u, v;
  std::vector<double> sigma;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandSvd(m, 64, options, &u, &sigma, &v).ok());
  }
}
BENCHMARK(BM_RandSvd)->Arg(2000)->Arg(4000);

void BM_ApmiIterationCost(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(state.range(0));
  const CsrMatrix p = g.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  AffinityEngineOptions options;
  options.t = 6;
  options.panel_width =
      PlanMemory(g.num_nodes(), g.num_attributes(), 1, 0).panel_width;
  for (auto _ : state) {
    auto result = ComputeAffinitySlabs(p, pt, g.attributes(), options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ApmiIterationCost)->Arg(2000)->Arg(8000);

// One CCD sweep; args are nodes, attributes, k and threads. The
// 3000 x 300, k=128, 2-thread case is panebench's training shape.
void BM_CcdSweep(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(state.range(0), state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto seed_state =
      GreedyInit(BenchAffinity(g), SeedOptions(k)).ValueOrDie();
  const int threads = static_cast<int>(state.range(3));
  ThreadPool pool(threads);
  for (auto _ : state) {
    EmbeddingState working = seed_state;
    CcdOptions options;
    options.iterations = 1;
    options.pool = &pool;
    options.strip_width =
        PlanMemory(g.num_nodes(), g.num_attributes(), threads, 0).strip_width;
    benchmark::DoNotOptimize(CcdRefine(&working, options).ok());
  }
}
BENCHMARK(BM_CcdSweep)
    ->Args({2000, 200, 64, 1})
    ->Args({4000, 200, 64, 1})
    ->Args({3000, 300, 128, 2})
    ->UseRealTime();

// The CCD inner step on 8 rows of length n (arg 0): per-row Axpy then Dot
// (arg 1 = 0) against the fused row-block axpy_dot_rows (arg 1 = 1). Both
// give the same bits; the fused kernel runs 8 accumulator chains and reads
// each row once.
void BM_RowBlockKernels(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool fused = state.range(1) != 0;
  constexpr int64_t kRows = 8;
  Rng rng(4);
  DenseMatrix rows(kRows, n), vectors(2, n);
  rows.FillGaussian(&rng);
  vectors.FillGaussian(&rng);
  double* row_ptrs[kRows];
  for (int64_t j = 0; j < kRows; ++j) row_ptrs[j] = rows.Row(j);
  double steps[kRows];
  double dots[kRows];
  const MatrixKernels& kernels = GetMatrixKernels();
  double sign = 1e-3;
  for (auto _ : state) {
    sign = -sign;  // alternate so the rows stay bounded
    for (int64_t j = 0; j < kRows; ++j) steps[j] = sign * (1.0 + j);
    if (fused) {
      kernels.axpy_dot_rows(row_ptrs, kRows, steps, vectors.Row(0),
                            vectors.Row(1), n, dots);
    } else {
      for (int64_t j = 0; j < kRows; ++j) {
        Axpy(steps[j], vectors.Row(0), row_ptrs[j], n);
        dots[j] = Dot(row_ptrs[j], vectors.Row(1), n);
      }
    }
    benchmark::DoNotOptimize(dots);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(fused ? "axpy_dot_rows" : "per-row Axpy+Dot");
  state.SetItemsProcessed(state.iterations() * kRows * n);
}
BENCHMARK(BM_RowBlockKernels)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({3000, 0})
    ->Args({3000, 1});

// Ablation: the incremental residual maintenance of Equations (18)-(20)
// vs recomputing Sf = Xf Y^T - F' from scratch after a sweep. The paper's
// design avoids the full n x d GEMM per coordinate pass.
void BM_ResidualIncremental(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(2000);
  auto working = GreedyInit(BenchAffinity(g), SeedOptions(64)).ValueOrDie();
  CcdOptions options;
  options.iterations = 1;
  options.strip_width =
      PlanMemory(g.num_nodes(), g.num_attributes(), 1, 0).strip_width;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CcdRefine(&working, options).ok());
  }
}
BENCHMARK(BM_ResidualIncremental);

void BM_ResidualRecompute(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(2000);
  const AffinitySlabs affinity = BenchAffinity(g);
  const auto seed_state = GreedyInit(affinity, SeedOptions(64)).ValueOrDie();
  const DenseMatrix forward = affinity.forward.ToDense().ValueOrDie();
  const DenseMatrix backward = affinity.backward.ToDense().ValueOrDie();
  DenseMatrix sf, sb;
  for (auto _ : state) {
    GemmTransB(seed_state.xf, seed_state.y, &sf);
    sf.Sub(forward);
    GemmTransB(seed_state.xb, seed_state.y, &sb);
    sb.Sub(backward);
    benchmark::DoNotOptimize(sf.data());
  }
}
BENCHMARK(BM_ResidualRecompute);

}  // namespace
}  // namespace pane

BENCHMARK_MAIN();
