// The serving front-end: opens a trained NodeEmbedding artifact through the
// mmap-shared EmbeddingStore, builds a batched QueryEngine (exact, or
// IVF-pruned with --pruned), and serves the line protocol of
// src/serve/line_protocol.h over stdin/stdout (default) or TCP (--port).
//
//   # train an artifact first
//   ./pane_cli --mode=train --method=pane --graph=/data/cora --out=emb.ctn
//   # serve it: one request per line, responses in request order
//   printf 'attr 3 5\nlink 3 5\npair 0 7\n' | ./pane_server --embedding=emb.ctn
//   # recommendation mode (skip known attributes / existing edges)
//   ./pane_server --embedding=emb.ctn --graph=/data/cora
//   # approximate mode with a recall knob
//   ./pane_server --embedding=emb.ctn --pruned --nprobe=8 --clusters=64
//   # TCP instead of stdin (loopback)
//   ./pane_server --embedding=emb.ctn --port=7077
//
// Sharded serving (the scatter-gather fabric of src/serve/router.h):
//
//   # router over an in-process fleet: the candidate space is cut into N
//   # row shards, each scanned by a serial engine, fanned out in parallel
//   ./pane_server --embedding=emb.ctn --local-shards=4 --port=7077
//   # router over remote shard servers, each serving shard i of N of the
//   # same artifact (--pruned, --ivf, --graph and the other engine flags
//   # apply per shard; the router refuses them)
//   ./pane_server --embedding=emb.ctn --shard=0/2 --port=7071 &
//   ./pane_server --embedding=emb.ctn --shard=1/2 --port=7072 &
//   ./pane_server --shards=127.0.0.1:7071,127.0.0.1:7072 --port=7077
//
// Either way the router's responses are byte-identical to an unsharded
// server over the same artifact; a dead shard degrades the affected
// queries to `err shard unavailable` rather than a partial merge. An
// unsharded server is shard 0/1: it and a --shard=i/N server build their
// engine with the same QueryEngine::Create call, a --local-shards fleet
// builds each of its engines with it too.
//
// Each connection (and stdin) speaks the wire its first byte selects: the
// frame magic for length-prefixed frames, anything else for lines.
//
// Because the store maps the artifact read-only (MAP_SHARED), any number of
// pane_server processes over the same file — shard servers included —
// share one physical copy of the embedding through the page cache.
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/graph/graph_io.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"

namespace {

/// Splits a comma-separated --shards list; empty elements are rejected.
std::vector<std::string> SplitAddresses(const std::string& list) {
  std::vector<std::string> addresses;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    PANE_CHECK(end > begin) << "--shards has an empty element: " << list;
    addresses.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return addresses;
}

/// Parses --shard=i/N into (index, count), both ints with 0 <= i < N.
std::pair<int, int> ParseShardPosition(const std::string& text) {
  const std::vector<std::string_view> parts = pane::Split(text, '/');
  const auto index = pane::ParseInt64(parts.front());
  const auto count = pane::ParseInt64(parts.back());
  PANE_CHECK(parts.size() == 2 && index.ok() && count.ok() && *count > 0 &&
             *count <= INT_MAX && *index >= 0 && *index < *count)
      << "--shard must be i/N with 0 <= i < N, got '" << text << "'";
  return {static_cast<int>(*index), static_cast<int>(*count)};
}

}  // namespace

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddString("embedding", "", "NodeEmbedding artifact to serve");
  flags.AddString("graph", "",
                  "optional graph for recommendation mode: known attributes "
                  "/ existing out-edges of the query node are skipped");
  flags.AddInt("port", 0, "TCP port to listen on (0 = serve stdin/stdout; "
                          "loopback only)");
  flags.AddInt("max-connections", 256,
               "open-connection cap; connections beyond it are refused "
               "with 'err server busy' and closed");
  flags.AddInt("idle-timeout-ms", 0,
               "reap TCP connections idle this long (0 disables)");
  flags.AddInt("threads", 4, "engine worker threads for batch execution");
  flags.AddInt("batch-size", 64, "max requests per engine batch");
  flags.AddInt("cache-size", 1024, "LRU result-cache entries (0 disables)");
  flags.AddBool("pruned", false,
                "serve top-k through the IVF cluster-pruned indexes "
                "(approximate; see --nprobe). Like --nprobe, --clusters, "
                "--kmeans-iters, --seed and --memory-budget-mb it configures "
                "this process's engines, so --shards refuses it: set it on "
                "each shard server");
  flags.AddInt("nprobe", 8, "clusters probed per pruned query (recall knob)");
  flags.AddInt("clusters", 0,
               "IVF clusters (0 = ceil(sqrt(#candidates)))");
  flags.AddInt("kmeans-iters", 10, "k-means iterations for the IVF build");
  flags.AddInt("seed", 42, "IVF build seed");
  flags.AddString("ivf", "",
                  "pruned-index container path: when the file exists the "
                  "indexes are loaded from it (skipping the k-means build); "
                  "when it does not, they are built and saved there for the "
                  "next start; needs --pruned and one engine (refused with "
                  "--local-shards or --shards)");
  flags.AddInt("memory-budget-mb", 0,
               "caps the engine's per-batch scoring scratch (0 = default)");
  flags.AddInt("local-shards", 0,
               "router mode over an in-process fleet: cut --embedding into "
               "this many row shards, each scanned by a serial engine, "
               "fanned out across --threads (0 = unsharded serving)");
  flags.AddString("shard", "",
                  "serve shard i of N of --embedding, written i/N: the row "
                  "ranges MakeShardPlan gives shard i, for a router's "
                  "--shards list (empty = the whole artifact)");
  flags.AddString("shards", "",
                  "router mode over remote shards: comma-separated "
                  "host:port list of shard servers, in plan order "
                  "(--embedding not needed; --graph, --ivf and the engine "
                  "flags --pruned, --nprobe, --clusters, --kmeans-iters, "
                  "--seed and --memory-budget-mb are refused)");
  flags.AddInt("hop-timeout-ms", 2000,
               "router: per-shard-hop deadline; a shard missing it answers "
               "'err shard unavailable'");
  flags.AddInt("max-frame-mb", 0,
               "upper bound on one inbound frame payload, in MiB, 0..16 "
               "(0 = the protocol default, 16); also bounds router hop "
               "replies");
  flags.AddBool("stats", false,
                "print one consistent counter snapshot to stderr at exit "
                "(taken in a single locked read, not field by field)");
  flags.AddInt("metrics-interval-ms", 0,
               "log a one-line metrics summary (requests, batch-latency "
               "percentiles) to stderr this often (0 disables); the full "
               "exposition is always available via the 'metrics' verb");
  flags.AddInt("slow-query-us", 0,
               "log one structured stage breakdown per engine batch whose "
               "traced total reaches this many microseconds (0 disables)");
  flags.AddBool("verbose", false, "log store / engine configuration");
  const std::map<std::string, std::string> defaults = flags.ValueMap();
  PANE_CHECK_OK(flags.Parse(argc, argv));

  const std::string shards_flag = flags.GetString("shards");
  const int local_shards = static_cast<int>(flags.GetInt("local-shards"));
  const bool remote_router = !shards_flag.empty();
  const std::string shard_flag = flags.GetString("shard");
  PANE_CHECK(int{remote_router} + int{local_shards > 0} +
                 int{!shard_flag.empty()} <=
             1)
      << "--shard, --shards and --local-shards are mutually exclusive";
  int shard_index = 0, shard_count = 1;  // 0/1: the whole artifact
  if (!shard_flag.empty()) {
    std::tie(shard_index, shard_count) = ParseShardPosition(shard_flag);
  }
  // A remote router builds no engine: pruning, the IVF build and the
  // engine's scratch budget are each shard server's own flags, and one set
  // on the router would reach nothing.
  if (remote_router) {
    const std::map<std::string, std::string> values = flags.ValueMap();
    for (const char* name : {"pruned", "nprobe", "clusters", "kmeans-iters",
                             "seed", "memory-budget-mb"}) {
      PANE_CHECK(values.at(name) == defaults.at(name))
          << "--" << name << " applies to each shard server, not to a "
          << "--shards router";
    }
  }
  // The index file belongs to one engine; a router would never read it.
  const std::string ivf_path = flags.GetString("ivf");
  PANE_CHECK(ivf_path.empty() || flags.GetBool("pruned"))
      << "--ivf needs --pruned";
  PANE_CHECK(ivf_path.empty() || (!remote_router && local_shards == 0))
      << "--ivf cannot be combined with --local-shards or --shards";
  // Checked before the shift: a negative or huge value must not reach it.
  const int64_t max_frame_mb = flags.GetInt("max-frame-mb");
  constexpr int64_t kMaxFrameMb = pane::serve::kMaxFramePayload >> 20;
  PANE_CHECK(max_frame_mb >= 0 && max_frame_mb <= kMaxFrameMb)
      << "--max-frame-mb must be in [0, " << kMaxFrameMb << "], got "
      << max_frame_mb;
  PANE_CHECK(remote_router || !flags.GetString("embedding").empty())
      << "--embedding=<artifact> is required (train one with pane_cli) "
         "unless routing to remote --shards";

  pane::ThreadPool pool(static_cast<int>(flags.GetInt("threads")));

  // One registry for the whole process: engine, router, shards, transport,
  // and server all record into it, so the `metrics` verb exposes every
  // layer in one exposition. Declared before the server objects — they
  // hold handles into it.
  pane::obs::MetricsRegistry registry;

  // The store stays copy-free, which preserves the MAP_SHARED
  // one-physical-copy property across server processes; the engine builds
  // its own f32 screen rows (which also feed the IVF build).
  std::unique_ptr<pane::serve::EmbeddingStore> store;
  if (!remote_router) {
    auto opened =
        pane::serve::EmbeddingStore::Open(flags.GetString("embedding"));
    PANE_CHECK(opened.ok()) << opened.status();
    store = std::make_unique<pane::serve::EmbeddingStore>(
        opened.MoveValueUnsafe());
    if (flags.GetBool("verbose")) {
      std::fprintf(stderr,
                   "store: method=%s n=%lld dim=%lld attrs=%lld mapped=%lldB\n",
                   store->method().c_str(),
                   static_cast<long long>(store->num_nodes()),
                   static_cast<long long>(store->dim()),
                   static_cast<long long>(store->num_attributes()),
                   static_cast<long long>(store->mapped_bytes()));
    }
  }

  pane::serve::IvfOptions ivf;
  ivf.num_clusters = flags.GetInt("clusters");
  ivf.kmeans_iters = static_cast<int>(flags.GetInt("kmeans-iters"));
  ivf.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  ivf.pool = &pool;

  std::unique_ptr<pane::serve::QueryEngine> engine;
  if (!remote_router && local_shards == 0) {
    pane::serve::QueryEngineOptions engine_options;
    engine_options.pool = &pool;
    engine_options.memory_budget_mb = flags.GetInt("memory-budget-mb");
    engine_options.metrics = &registry;
    // The whole artifact is shard 0/1; --shard=i/N serves the row ranges
    // MakeShardPlan gives shard i, exactly as a --local-shards fleet cuts
    // them.
    auto created = pane::serve::QueryEngine::Create(
        *store,
        pane::serve::MakeShardPlan(store->num_nodes(),
                                   store->num_attributes(), shard_count)
            .shards[static_cast<size_t>(shard_index)],
        pane::ConstMatrixView(), engine_options);
    PANE_CHECK(created.ok()) << created.status();
    engine = std::make_unique<pane::serve::QueryEngine>(
        created.MoveValueUnsafe());
    if (flags.GetBool("verbose")) {
      const pane::serve::ShardSpec& spec = engine->spec();
      std::fprintf(stderr, "shard: %lld/%lld nodes=%lld:%lld attrs=%lld:%lld\n",
                   static_cast<long long>(spec.shard_index),
                   static_cast<long long>(spec.shard_count),
                   static_cast<long long>(spec.node_begin),
                   static_cast<long long>(spec.node_end),
                   static_cast<long long>(spec.attr_begin),
                   static_cast<long long>(spec.attr_end));
    }

    if (flags.GetBool("pruned")) {
      std::error_code ec;
      if (!ivf_path.empty() && std::filesystem::exists(ivf_path, ec)) {
        // Restart path: adopt the saved indexes instead of re-running
        // k-means.
        pane::WallTimer timer;
        PANE_CHECK_OK(engine->LoadPrunedIndex(ivf_path));
        std::fprintf(stderr, "ivf: loaded %s in %.3fs (k-means skipped)\n",
                     ivf_path.c_str(), timer.ElapsedSeconds());
      } else {
        pane::WallTimer timer;
        PANE_CHECK_OK(engine->BuildPrunedIndex(ivf));
        std::fprintf(stderr, "ivf: built in %.3fs\n",
                     timer.ElapsedSeconds());
        if (!ivf_path.empty()) {
          PANE_CHECK_OK(engine->SavePrunedIndex(ivf_path));
          std::fprintf(stderr, "ivf: saved to %s (next start loads it)\n",
                       ivf_path.c_str());
        }
      }
      if (flags.GetBool("verbose")) {
        std::fprintf(
            stderr, "ivf: attr_clusters=%lld link_clusters=%lld\n",
            static_cast<long long>(engine->attr_index().num_clusters()),
            static_cast<long long>(engine->link_index().num_clusters()));
      }
    }
  }

  pane::AttributedGraph exclude_graph;
  pane::serve::ServerOptions server_options;
  if (!flags.GetString("graph").empty()) {
    PANE_CHECK(store != nullptr)
        << "--graph needs a local --embedding (remote shards apply their "
           "own --graph)";
    auto loaded = pane::LoadGraphAuto(flags.GetString("graph"), &pool);
    PANE_CHECK(loaded.ok()) << loaded.status();
    exclude_graph = loaded.MoveValueUnsafe();
    PANE_CHECK(exclude_graph.num_nodes() == store->num_nodes())
        << "graph / embedding node-count mismatch";
    server_options.exclude = &exclude_graph;
  }
  server_options.batch_size = flags.GetInt("batch-size");
  server_options.cache_capacity = flags.GetInt("cache-size");
  server_options.pruned = flags.GetBool("pruned");
  server_options.nprobe = flags.GetInt("nprobe");
  server_options.max_connections = flags.GetInt("max-connections");
  server_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms");
  server_options.max_frame_bytes = max_frame_mb << 20;
  server_options.metrics = &registry;
  server_options.slow_query_us = flags.GetInt("slow-query-us");

  // The fleet (local mode) and router must outlive the server.
  pane::serve::LocalFleet fleet;
  std::unique_ptr<pane::serve::Router> router;
  std::unique_ptr<pane::serve::PaneServer> server;
  if (remote_router || local_shards > 0) {
    pane::serve::RouterOptions router_options;
    router_options.hop_timeout_ms = flags.GetInt("hop-timeout-ms");
    router_options.max_frame_bytes = server_options.max_frame_bytes;
    router_options.pool = &pool;
    router_options.metrics = &registry;
    std::vector<std::unique_ptr<pane::serve::ShardBackend>> backends;
    if (remote_router) {
      for (const std::string& address : SplitAddresses(shards_flag)) {
        backends.push_back(
            std::make_unique<pane::serve::RemoteShard>(address,
                                                       router_options));
      }
    } else {
      // Serial shard engines; the router's fan-out over `pool` is the
      // parallelism, so engine and fan-out threads never nest.
      pane::serve::QueryEngineOptions shard_engine_options;
      shard_engine_options.memory_budget_mb =
          flags.GetInt("memory-budget-mb");
      shard_engine_options.metrics = &registry;
      auto built = pane::serve::BuildLocalShards(
          *store, local_shards, shard_engine_options, server_options,
          flags.GetBool("pruned") ? &ivf : nullptr);
      PANE_CHECK(built.ok()) << built.status();
      fleet = built.MoveValueUnsafe();
      backends = std::move(fleet.backends);
    }
    auto created =
        pane::serve::Router::Create(std::move(backends), router_options);
    PANE_CHECK(created.ok()) << created.status();
    router = std::make_unique<pane::serve::Router>(created.MoveValueUnsafe());
    if (flags.GetBool("verbose")) {
      std::fprintf(stderr, "router: shards=%d n=%lld attrs=%lld dim=%lld\n",
                   router->num_shards(),
                   static_cast<long long>(router->num_nodes()),
                   static_cast<long long>(router->num_attributes()),
                   static_cast<long long>(router->dim()));
    }
    server = std::make_unique<pane::serve::PaneServer>(router.get(),
                                                       server_options);
  } else {
    server = std::make_unique<pane::serve::PaneServer>(engine.get(),
                                                       server_options);
  }

  // Periodic metrics logging through the guarded logger: a background
  // thread reads the batch histogram and the served-request counters from
  // the registry every --metrics-interval-ms. Short sleep steps keep
  // shutdown prompt.
  const auto count = [&registry](const char* name) {
    return static_cast<unsigned long long>(
        registry.GetCounter(std::string("pane_server_") + name + "_total")
            ->value());
  };
  const int64_t metrics_interval_ms = flags.GetInt("metrics-interval-ms");
  std::atomic<bool> stop_metrics{false};
  std::thread metrics_thread;
  if (metrics_interval_ms > 0) {
    metrics_thread = std::thread([&registry, &count, &stop_metrics,
                                  metrics_interval_ms]() {
      pane::obs::Histogram* batch_us =
          registry.GetHistogram("pane_server_batch_us");
      int64_t last_ms = pane::MonotonicMillis();
      while (!stop_metrics.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const int64_t now_ms = pane::MonotonicMillis();
        if (now_ms - last_ms < metrics_interval_ms) continue;
        last_ms = now_ms;
        const pane::obs::Histogram::Snapshot snap = batch_us->TakeSnapshot();
        PANE_LOG(INFO) << "metrics requests=" << count("requests")
                       << " batches=" << count("batches")
                       << " errors=" << count("errors")
                       << " cache_hits=" << count("cache_hits")
                       << " batch_us_count=" << snap.count
                       << " batch_us_p50=" << snap.p50
                       << " batch_us_p99=" << snap.p99
                       << " batch_us_max=" << snap.max;
      }
    });
  }

  const int64_t port = flags.GetInt("port");
  if (port == 0) {
    server->ServeStream(std::cin, std::cout);
  } else {
    const auto bound = server->ListenTcp(static_cast<int>(port));
    PANE_CHECK(bound.ok()) << bound.status();
    std::fprintf(stderr, "pane_server listening on 127.0.0.1:%d\n", *bound);
    server->AcceptLoop();
  }
  if (metrics_thread.joinable()) {
    stop_metrics.store(true, std::memory_order_release);
    metrics_thread.join();
  }
  if (flags.GetBool("stats") || flags.GetBool("verbose")) {
    std::fprintf(stderr,
                 "%s: requests=%llu batches=%llu dedup=%llu cache=%llu "
                 "errors=%llu timeouts=%llu rejected=%llu frames=%llu\n",
                 flags.GetBool("stats") ? "stats" : "served", count("requests"),
                 count("batches"), count("dedup_hits"), count("cache_hits"),
                 count("errors"), count("timeouts"), count("rejected"),
                 count("frames"));
  }
  return 0;
}
