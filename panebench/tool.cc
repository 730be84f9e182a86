// panebench_tool: the benchmark's native half. Every subcommand times calls
// into the library's public functions from the outside and prints one JSON
// object on stdout; run.py orchestrates the subcommands, owns every
// statistic, and checks the correctness gates.
//
//   gen-graph      seeded SBM graph written as the text layout
//   ingest         LoadGraphAuto, repeated
//   train          one fresh-process PANE training + container save + AUC
//   gen-embedding  seeded clustered embedding saved as a container
//   reference      direct-engine answers for a request file (gate input)
//   layers         in-process store / engine / router / server timings
//   client         single-thread open-loop load generator (frame wire)
//   fingerprint    build and CPU facts for the result record
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/node_embedding.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/common/topk.h"
#include "src/core/pane.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/dot_block.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"
#include "src/tasks/attribute_inference.h"

namespace {

using pane::serve::EngineCallStats;
using pane::serve::QueryEngine;
using pane::serve::Request;
using pane::serve::TopKQuery;

// ---------------------------------------------------------------------------
// Arguments: --key=value pairs only; a missing required key aborts.

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("bad argument '" + arg + "' (expected --key=value)");
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const {
    return std::strtoll(Str(key).c_str(), nullptr, 10);
  }
  double Num(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

  [[noreturn]] static void Die(const std::string& message) {
    std::fprintf(stderr, "panebench_tool: %s\n", message.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

template <typename T>
T Check(pane::Result<T> result, const char* what) {
  if (!result.ok()) Args::Die(std::string(what) + ": " +
                              result.status().ToString());
  return result.MoveValueUnsafe();
}

void Check(const pane::Status& status, const char* what) {
  if (!status.ok()) Args::Die(std::string(what) + ": " + status.ToString());
}

// Minimal JSON object writer: numbers keep all significant digits.
class Json {
 public:
  Json& Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  Json& Int(const char* key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Nums(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", values[i]);
      list += buf;
    }
    return Raw(key, list + "]");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  Json& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_;
};

int64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoll(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Inputs.

int GenGraph(const Args& args) {
  pane::SbmParams params;
  params.num_nodes = args.Int("nodes");
  params.num_edges = args.Int("edges");
  params.num_attributes = args.Int("attrs");
  params.num_attr_entries = args.Int("attr-entries");
  params.num_communities = static_cast<int32_t>(args.Int("communities"));
  params.seed = static_cast<uint64_t>(args.Int("seed"));
  const pane::AttributedGraph graph = pane::GenerateAttributedSbm(params);
  const std::string out = args.Str("out");
  Check(pane::SaveGraphText(graph, out), "SaveGraphText");
  Json().Int("bytes", DirBytes(out)).Print();
  return 0;
}

// A clustered embedding with PANE's factor layout: rows are cluster
// centres plus noise, so IVF pruning has structure to exploit and scan
// cost depends only on the shape.
int GenEmbedding(const Args& args) {
  const int64_t n = args.Int("nodes");
  const int64_t d = args.Int("attrs");
  const int64_t h = args.Int("dim");
  const int64_t clusters = args.Int("clusters");
  pane::Rng rng(static_cast<uint64_t>(args.Int("seed")));
  pane::DenseMatrix centres(clusters, h);
  for (int64_t c = 0; c < clusters; ++c) {
    for (int64_t j = 0; j < h; ++j) centres.Row(c)[j] = rng.Gaussian();
  }
  const auto fill = [&](pane::DenseMatrix* m, int64_t rows) {
    *m = pane::DenseMatrix(rows, h);
    for (int64_t i = 0; i < rows; ++i) {
      const double* centre = centres.Row(static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(clusters))));
      for (int64_t j = 0; j < h; ++j) {
        m->Row(i)[j] = 0.1 * (centre[j] + 0.5 * rng.Gaussian());
      }
    }
  };
  pane::NodeEmbedding e;
  e.method = "pane";
  fill(&e.xf, n);
  fill(&e.xb, n);
  fill(&e.y, d);
  e.features = pane::DenseMatrix(n, 2 * h);
  for (int64_t i = 0; i < n; ++i) {
    std::copy(e.xf.Row(i), e.xf.Row(i) + h, e.features.Row(i));
    std::copy(e.xb.Row(i), e.xb.Row(i) + h, e.features.Row(i) + h);
  }
  e.link_convention = pane::LinkConvention::kForwardBackward;
  e.attribute_convention = pane::AttributeConvention::kFactors;
  const std::string out = args.Str("out");
  Check(e.SaveContainer(out), "SaveContainer");
  Json()
      .Int("bytes", static_cast<int64_t>(std::filesystem::file_size(out)))
      .Print();
  return 0;
}

// ---------------------------------------------------------------------------
// Training side.

int Ingest(const Args& args) {
  const std::string dir = args.Str("graph");
  pane::ThreadPool pool(static_cast<int>(args.Int("threads")));
  std::vector<double> seconds;
  for (int64_t rep = 0; rep < args.Int("reps"); ++rep) {
    pane::WallTimer timer;
    Check(pane::LoadGraphAuto(dir, &pool), "LoadGraphAuto");
    seconds.push_back(timer.ElapsedSeconds());
  }
  Json().Nums("ingest_s", seconds).Print();
  return 0;
}

int Train(const Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  pane::ThreadPool pool(static_cast<int>(args.Int("threads")));
  const pane::AttributedGraph graph =
      Check(pane::LoadGraphAuto(args.Str("graph"), &pool), "LoadGraphAuto");
  const pane::AttributeSplit split =
      Check(pane::SplitAttributes(graph, 0.2, seed), "SplitAttributes");

  pane::PaneOptions options;
  options.k = static_cast<int>(args.Int("k"));
  options.num_threads = static_cast<int>(args.Int("threads"));
  options.memory_budget_mb = args.Int("budget-mb");
  options.spill_dir = args.Str("spill-dir");
  options.seed = seed;

  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  pane::PaneStats stats;
  pane::WallTimer timer;
  pane::PaneEmbedding trained =
      Check(pane::Pane(options).Train(split.train_graph, &stats), "Train");
  const double train_only_s = timer.ElapsedSeconds();
  // The pane_cli artifact: features = [Xf | Xb] plus the factor blocks.
  pane::NodeEmbedding e;
  e.method = "pane";
  const int64_t n = trained.xf.rows();
  const int64_t half = trained.xf.cols();
  e.features = pane::DenseMatrix(n, 2 * half);
  for (int64_t i = 0; i < n; ++i) {
    std::copy(trained.xf.Row(i), trained.xf.Row(i) + half, e.features.Row(i));
    std::copy(trained.xb.Row(i), trained.xb.Row(i) + half,
              e.features.Row(i) + half);
  }
  e.xf = std::move(trained.xf);
  e.xb = std::move(trained.xb);
  e.y = std::move(trained.y);
  e.link_convention = pane::LinkConvention::kForwardBackward;
  e.attribute_convention = pane::AttributeConvention::kFactors;
  const std::string out = args.Str("out");
  Check(e.SaveContainer(out), "SaveContainer");
  const double train_s = timer.ElapsedSeconds();
  rusage after{};
  getrusage(RUSAGE_SELF, &after);

  // Equation 21 on the held-out 20% of attribute entries.
  const pane::AucAp auc = pane::EvaluateAttributeInference(
      split, [&e, half](int64_t v, int64_t r) {
        const double* yr = e.y.Row(r);
        return pane::Dot(e.xf.Row(v), yr, half) +
               pane::Dot(e.xb.Row(v), yr, half);
      });

  Json()
      .Num("train_s", train_s)
      .Num("save_s", train_s - train_only_s)
      .Num("affinity_s", stats.affinity_seconds)
      .Num("init_s", stats.init_seconds)
      .Num("ccd_s", stats.ccd_seconds)
      .Num("objective_final", stats.objective_final)
      .Num("cpu_s", CpuSeconds(after) - CpuSeconds(before))
      .Int("minor_faults", after.ru_minflt - before.ru_minflt)
      .Int("peak_rss_kb", StatusKb("VmHWM"))
      .Int("affinity_scratch_bytes", stats.affinity.scratch_bytes)
      .Int("ccd_scratch_bytes", stats.ccd.scratch_bytes)
      .Int("slab_bytes", stats.slab_bytes)
      .Int("spilled", stats.slabs_spilled ? 1 : 0)
      .Int("pool_evicted_pages", stats.pool.evicted_pages)
      .Int("pool_writeback_pages", stats.pool.writeback_pages)
      .Int("pool_resident_peak_bytes", stats.pool.resident_peak_bytes)
      .Int("artifact_bytes",
           static_cast<int64_t>(std::filesystem::file_size(out)))
      .Num("attr_auc", auc.auc)
      .Print();
  return 0;
}

// ---------------------------------------------------------------------------
// Serving side, in process.

std::vector<Request> ReadRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) Args::Die("cannot read " + path);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    requests.push_back(Check(pane::serve::ParseRequestLine(line), "request"));
  }
  return requests;
}

pane::serve::IvfOptions ServerIvfOptions(pane::ThreadPool* pool) {
  // pane_server's defaults: --clusters=0 --kmeans-iters=10 --seed=42.
  pane::serve::IvfOptions ivf;
  ivf.pool = pool;
  return ivf;
}

// The server's answer for one top-k / pair request, computed by calling
// engines directly: the unsharded exact engine, or (routed) each shard's
// pruned engine merged with MergeTopK.
class DirectAnswers {
 public:
  DirectAnswers(const pane::serve::EmbeddingStore& store, int shards,
                int64_t nprobe, pane::ThreadPool* pool)
      : nprobe_(nprobe) {
    pane::serve::QueryEngineOptions options;
    options.pool = pool;
    exact_ = std::make_unique<QueryEngine>(
        Check(QueryEngine::Create(store, options), "QueryEngine::Create"));
    if (shards > 0) {
      pane::serve::QueryEngineOptions shard_options;
      pane::serve::ServerOptions server_options;
      server_options.pruned = true;
      server_options.nprobe = nprobe;
      const pane::serve::IvfOptions ivf = ServerIvfOptions(pool);
      fleet_ = Check(pane::serve::BuildLocalShards(store, shards,
                                                   shard_options,
                                                   server_options, &ivf),
                     "BuildLocalShards");
    }
  }

  pane::Ranking Exact(const Request& r) const {
    const std::vector<TopKQuery> q = {{r.a, r.k}};
    return r.type == Request::Type::kTopKAttributes
               ? exact_->TopKAttributes(q)[0]
               : exact_->TopKTargets(q)[0];
  }

  std::string Served(const Request& r) const {
    if (r.type == Request::Type::kAttributePair ||
        r.type == Request::Type::kLinkPair) {
      const QueryEngine* owner = exact_.get();
      for (const auto& engine : fleet_.engines) {
        if (r.type == Request::Type::kAttributePair
                ? engine->OwnsAttribute(r.b)
                : engine->OwnsTarget(r.b)) {
          owner = engine.get();
        }
      }
      const std::vector<std::pair<int64_t, int64_t>> pair = {{r.a, r.b}};
      return pane::serve::FormatScore(
          r, r.type == Request::Type::kAttributePair
                 ? owner->AttributeScores(pair)[0]
                 : owner->LinkScores(pair)[0]);
    }
    if (fleet_.engines.empty()) return pane::serve::FormatRanking(r, Exact(r));
    const std::vector<TopKQuery> q = {{r.a, r.k}};
    std::vector<pane::Ranking> lists;
    for (const auto& engine : fleet_.engines) {
      lists.push_back(r.type == Request::Type::kTopKAttributes
                          ? engine->TopKAttributesPruned(q, nprobe_)[0]
                          : engine->TopKTargetsPruned(q, nprobe_)[0]);
    }
    return pane::serve::FormatRanking(r, pane::MergeTopK(lists, r.k));
  }

 private:
  int64_t nprobe_;
  std::unique_ptr<QueryEngine> exact_;
  pane::serve::LocalFleet fleet_;
};

// Writes, per request line: the expected served response, a tab, and the
// exact top-k ids (comma-separated; empty for pair requests).
int Reference(const Args& args) {
  pane::ThreadPool pool(static_cast<int>(args.Int("threads")));
  const pane::serve::EmbeddingStore store = Check(
      pane::serve::EmbeddingStore::Open(args.Str("embedding")), "Open");
  const DirectAnswers answers(store, static_cast<int>(args.Int("shards")),
                              args.Int("nprobe"), &pool);
  std::ofstream out(args.Str("out"));
  for (const Request& r : ReadRequests(args.Str("requests"))) {
    out << answers.Served(r) << '\t';
    if (r.type == Request::Type::kTopKAttributes ||
        r.type == Request::Type::kTopKTargets) {
      const pane::Ranking exact = answers.Exact(r);
      for (size_t i = 0; i < exact.size(); ++i) {
        out << (i ? "," : "") << exact[i].first;
      }
    }
    out << '\n';
  }
  Check(out.good() ? pane::Status::OK()
                   : pane::Status::IOError("reference write failed"),
        "reference");
  Json().Int("written", 1).Print();
  return 0;
}

// Times each serving layer's set-up call (median of `reps`), then replays
// the request file in batches of `batch` through (a) direct engine calls
// with EngineCallStats and (b) PaneServer::ExecuteBatch, mirroring the
// pane_server configuration (`shards` = 0: unsharded exact; > 0: local
// shards, pruned at `nprobe`).
int Layers(const Args& args) {
  const int threads = static_cast<int>(args.Int("threads"));
  const int shards = static_cast<int>(args.Int("shards"));
  const int64_t nprobe = args.Int("nprobe");
  const int64_t reps = args.Int("reps");
  const std::string path = args.Str("embedding");
  pane::ThreadPool pool(threads);
  pane::obs::MetricsRegistry registry;

  std::vector<double> open_s, create_s, split_s, ivf_s;
  std::unique_ptr<pane::serve::EmbeddingStore> store;
  std::unique_ptr<QueryEngine> engine;
  pane::serve::LocalFleet fleet;
  pane::serve::ServerOptions server_options;
  server_options.pruned = shards > 0;
  server_options.nprobe = nprobe;
  server_options.metrics = &registry;
  for (int64_t rep = 0; rep < reps; ++rep) {
    engine.reset();
    fleet = pane::serve::LocalFleet();
    store.reset();
    pane::WallTimer timer;
    store = std::make_unique<pane::serve::EmbeddingStore>(
        Check(pane::serve::EmbeddingStore::Open(path), "Open"));
    open_s.push_back(timer.ElapsedSeconds());
    if (shards == 0) {
      pane::serve::QueryEngineOptions options;
      options.pool = &pool;
      options.metrics = &registry;
      timer = pane::WallTimer();
      engine = std::make_unique<QueryEngine>(
          Check(QueryEngine::Create(*store, options), "Create"));
      create_s.push_back(timer.ElapsedSeconds());
    } else {
      pane::serve::QueryEngineOptions options;
      options.metrics = &registry;
      timer = pane::WallTimer();
      fleet = Check(pane::serve::BuildLocalShards(*store, shards, options,
                                                  server_options, nullptr),
                    "BuildLocalShards");
      split_s.push_back(timer.ElapsedSeconds());
      const pane::serve::IvfOptions ivf = ServerIvfOptions(&pool);
      timer = pane::WallTimer();
      for (auto& shard_engine : fleet.engines) {
        Check(shard_engine->BuildPrunedIndex(ivf), "BuildPrunedIndex");
      }
      ivf_s.push_back(timer.ElapsedSeconds());
    }
  }

  const std::vector<Request> requests = ReadRequests(args.Str("requests"));
  const size_t batch = static_cast<size_t>(std::max<int64_t>(1, args.Int("batch")));
  // (a) Direct engine work on the recorded batches.
  EngineCallStats call_stats;
  int64_t topk_queries = 0;
  int64_t direct_ns = 0;
  for (size_t begin = 0; begin < requests.size(); begin += batch) {
    const size_t end = std::min(requests.size(), begin + batch);
    std::vector<TopKQuery> attr, link;
    for (size_t i = begin; i < end; ++i) {
      const Request& r = requests[i];
      if (r.type == Request::Type::kTopKAttributes) attr.push_back({r.a, r.k});
      if (r.type == Request::Type::kTopKTargets) link.push_back({r.a, r.k});
    }
    topk_queries += static_cast<int64_t>(attr.size() + link.size());
    const int64_t start = pane::MonotonicNanos();
    if (shards == 0) {
      if (!attr.empty()) engine->TopKAttributes(attr, nullptr, &call_stats);
      if (!link.empty()) engine->TopKTargets(link, nullptr, &call_stats);
    } else {
      for (const auto& shard_engine : fleet.engines) {
        if (!attr.empty()) {
          shard_engine->TopKAttributesPruned(attr, nprobe, nullptr,
                                             &call_stats);
        }
        if (!link.empty()) {
          shard_engine->TopKTargetsPruned(link, nprobe, nullptr, &call_stats);
        }
      }
    }
    direct_ns += pane::MonotonicNanos() - start;
  }

  // (b) The same batches through the server core.
  std::unique_ptr<pane::serve::Router> router;
  std::unique_ptr<pane::serve::PaneServer> server;
  if (shards == 0) {
    server = std::make_unique<pane::serve::PaneServer>(engine.get(),
                                                       server_options);
  } else {
    pane::serve::RouterOptions router_options;
    router_options.pool = &pool;
    router_options.metrics = &registry;
    router = std::make_unique<pane::serve::Router>(
        Check(pane::serve::Router::Create(std::move(fleet.backends),
                                          router_options),
              "Router::Create"));
    server = std::make_unique<pane::serve::PaneServer>(router.get(),
                                                       server_options);
  }
  int64_t exec_ns = 0;
  int64_t fanout_us = 0, merge_us = 0;
  std::vector<pane::serve::PaneServer::BatchEntry> entries;
  std::vector<std::string> responses;
  bool quit = false;
  for (size_t begin = 0; begin < requests.size(); begin += batch) {
    const size_t end = std::min(requests.size(), begin + batch);
    entries.clear();
    for (size_t i = begin; i < end; ++i) {
      pane::serve::PaneServer::BatchEntry entry;
      entry.request = requests[i];
      entries.push_back(entry);
    }
    pane::obs::RequestTrace trace;
    const int64_t start = pane::MonotonicNanos();
    server->ExecuteBatch(&entries, &responses, &quit, &trace);
    exec_ns += pane::MonotonicNanos() - start;
    fanout_us += trace.us(pane::obs::Stage::kFanout);
    merge_us += trace.us(pane::obs::Stage::kMerge);
  }
  const double nreq = static_cast<double>(std::max<size_t>(1, requests.size()));
  const double nq = static_cast<double>(std::max<int64_t>(1, topk_queries));
  const int64_t scanned = call_stats.ivf_scanned.load();
  const int64_t pruned = call_stats.ivf_pruned.load();
  Json()
      .Num("open_s", Median(open_s))
      .Num("create_s", create_s.empty() ? 0.0 : Median(create_s))
      .Num("split_s", split_s.empty() ? 0.0 : Median(split_s))
      .Num("ivf_build_s", ivf_s.empty() ? 0.0 : Median(ivf_s))
      .Num("scan_us_per_query", 1e-3 * call_stats.scan_ns.load() / nq)
      .Num("select_us_per_query", 1e-3 * call_stats.select_ns.load() / nq)
      .Num("tiles_per_query", call_stats.tiles.load() / nq)
      .Num("ivf_scanned_ratio",
           scanned + pruned > 0
               ? static_cast<double>(scanned) / (scanned + pruned)
               : 1.0)
      // Server-core time outside the engine: against the direct engine
      // calls (exact), or outside the router's fan-out and merge (routed,
      // whose shard hops run in parallel and so have no serial twin).
      .Num("exec_self_us",
           shards == 0 ? 1e-3 * static_cast<double>(exec_ns - direct_ns) / nreq
                       : (1e-3 * static_cast<double>(exec_ns) -
                          static_cast<double>(fanout_us + merge_us)) /
                             nreq)
      .Print();
  return 0;
}

// ---------------------------------------------------------------------------
// Open-loop load generator: one thread, `conns` frame-wire connections,
// request i due at start + i / rate, sent round-robin. Every request is
// recorded with its due, send and receive times (ns since start; receive
// -1 when no answer arrived before the drain deadline).

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  std::deque<int64_t> pending;  // request ids, in send order
  bool open = true;
};

int Client(const Args& args) {
  const int port = static_cast<int>(args.Int("port"));
  const int nconns = static_cast<int>(args.Int("conns"));
  const double rate = args.Num("rate");
  const double seconds = args.Num("seconds");
  const int64_t nodes = args.Int("nodes");
  const int64_t attrs = args.Int("attrs");
  const int64_t k = args.Int("k");
  const double pair_share = args.Num("pair-share");
  const int64_t drain_ns = args.Int("drain-ms") * 1000000;
  pane::Rng rng(static_cast<uint64_t>(args.Int("seed")));
  // Sub-millisecond wake-ups: the default 50us timer slack would blur the
  // schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const int64_t total = std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
  std::vector<std::string> lines(static_cast<size_t>(total));
  for (std::string& line : lines) {
    const int64_t a = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(nodes)));
    if (rng.UniformDouble() < pair_share) {
      line = rng.Bernoulli(0.5)
                 ? "pattr " + std::to_string(a) + " " +
                       std::to_string(rng.UniformInt(static_cast<uint64_t>(attrs)))
                 : "pair " + std::to_string(a) + " " +
                       std::to_string(rng.UniformInt(static_cast<uint64_t>(nodes)));
    } else {
      line = (rng.Bernoulli(0.5) ? "attr " : "link ") + std::to_string(a) +
             " " + std::to_string(k);
    }
  }

  std::vector<Conn> conns(static_cast<size_t>(nconns));
  for (Conn& c : conns) {
    c.fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 ||
        connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Args::Die(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(c.fd, F_SETFL, O_NONBLOCK);
  }

  const double interval_ns = 1e9 / rate;
  std::vector<int64_t> due(static_cast<size_t>(total)),
      sent(static_cast<size_t>(total), -1), recv(static_cast<size_t>(total), -1);
  std::vector<char> ok(static_cast<size_t>(total), 0);
  for (int64_t i = 0; i < total; ++i) {
    due[static_cast<size_t>(i)] = static_cast<int64_t>(interval_ns * static_cast<double>(i));
  }
  int64_t bytes_out = 0, bytes_in = 0;
  pane::serve::FrameCodec codec;
  std::vector<pollfd> fds(conns.size());
  const int64_t start = pane::MonotonicNanos() + 1000000;
  int64_t next = 0, answered = 0;
  int64_t deadline = -1;
  while (true) {
    int64_t now = pane::MonotonicNanos() - start;
    while (next < total && due[static_cast<size_t>(next)] <= now) {
      Conn& c = conns[static_cast<size_t>(next % nconns)];
      if (c.open) {
        pane::serve::AppendFrame(lines[static_cast<size_t>(next)], &c.out);
        c.pending.push_back(next);
        sent[static_cast<size_t>(next)] = now;
      }
      ++next;
    }
    for (Conn& c : conns) {
      while (c.open && c.out_pos < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (w > 0) {
          c.out_pos += static_cast<size_t>(w);
          bytes_out += w;
        } else {
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) c.open = false;
          break;
        }
      }
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
    }
    if (next >= total) {
      if (deadline < 0) deadline = now + drain_ns;
      bool idle = true;
      for (const Conn& c : conns) idle = idle && (c.pending.empty() || !c.open);
      if (idle || now >= deadline) break;
    }
    const int64_t wake =
        next < total ? due[static_cast<size_t>(next)] : deadline;
    for (size_t j = 0; j < conns.size(); ++j) {
      fds[j].fd = conns[j].open ? conns[j].fd : -1;
      fds[j].events = static_cast<short>(
          POLLIN | (conns[j].out.empty() ? 0 : POLLOUT));
      fds[j].revents = 0;
    }
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    now = pane::MonotonicNanos() - start;
    for (size_t j = 0; j < conns.size(); ++j) {
      Conn& c = conns[j];
      if (!c.open || (fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buf[65536];
      while (true) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.in.append(buf, static_cast<size_t>(r));
          bytes_in += r;
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) c.open = false;
        break;
      }
      size_t pos = 0;
      std::string_view payload;
      std::string error;
      while (!c.pending.empty()) {
        const auto decoded = codec.Decode(c.in, &pos, &payload, &error);
        if (decoded == pane::serve::ProtocolCodec::Decoded::kNeedMore) break;
        const int64_t id = c.pending.front();
        c.pending.pop_front();
        recv[static_cast<size_t>(id)] = now;
        ok[static_cast<size_t>(id)] =
            decoded == pane::serve::ProtocolCodec::Decoded::kMessage &&
            payload.compare(0, 4, "err ") != 0;
        ++answered;
        if (decoded != pane::serve::ProtocolCodec::Decoded::kMessage) {
          c.open = false;
          break;
        }
      }
      c.in.erase(0, pos);
    }
  }
  for (Conn& c : conns) close(c.fd);

  std::ofstream out(args.Str("out"));
  for (int64_t i = 0; i < total; ++i) {
    const size_t s = static_cast<size_t>(i);
    out << due[s] << ' ' << sent[s] << ' ' << recv[s] << ' '
        << static_cast<int>(ok[s]) << '\n';
  }
  std::ofstream request_log(args.Str("requests-out"));
  for (const std::string& line : lines) request_log << line << '\n';
  Json()
      .Int("start_ns", start)
      .Int("sent", next)
      .Int("answered", answered)
      .Int("bytes_out", bytes_out)
      .Int("bytes_in", bytes_in)
      .Print();
  return 0;
}

int Fingerprint(const Args&) {
  const bool avx2 =
#if defined(__x86_64__)
      pane::serve::GetDotBlock() == &pane::serve::detail::DotBlockAvx2;
#else
      false;
#endif
  Json()
#if defined(__clang__)
      .Str("compiler", std::string("clang ") + __VERSION__)
#else
      .Str("compiler", std::string("gcc ") + __VERSION__)
#endif
      .Int("cpu_cores", sysconf(_SC_NPROCESSORS_ONLN))
      .Int("avx2_dot_kernel", avx2 ? 1 : 0)
      .Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Args::Die("usage: panebench_tool <subcommand> --key=value ...");
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "gen-graph") return GenGraph(args);
  if (command == "gen-embedding") return GenEmbedding(args);
  if (command == "ingest") return Ingest(args);
  if (command == "train") return Train(args);
  if (command == "reference") return Reference(args);
  if (command == "layers") return Layers(args);
  if (command == "client") return Client(args);
  if (command == "fingerprint") return Fingerprint(args);
  Args::Die("unknown subcommand " + command);
}
