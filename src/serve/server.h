// The pane_server batching core. After the transport/session/codec split
// this class no longer touches sockets or wire bytes: it executes batches
// of parsed requests on one typed executor (a ShardBackend — a LocalShard
// over a QueryEngine, or a Router over a shard fleet) and composes the
// layers below it — an EpollTransport for TCP, a ServeSession per
// connection (and per ServeStream call), and a ProtocolCodec chosen per
// connection.
//
// Batching is what turns the engine's blocked kernels on: consecutive
// buffered requests (up to batch_size, or until the input drains or the
// codec signals an explicit flush) become one engine batch. Identical
// requests inside a batch are deduplicated, and a small LRU cache
// short-circuits repeats across batches — an immutable store means a
// cached response never goes stale.
//
// Threading: the TCP path runs every session on the single transport loop
// thread; parallelism comes from the engine's internal pool (or the
// router's fan-out pool) inside a batch. ServeStream may additionally run
// on any number of caller threads: the engine is read-only, the cache is
// the only shared state under a lock, and the counts are atomic registry
// counters, so a `stats` line reads each count on its own rather than all
// of them at one instant.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/line_protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/shard_plan.h"

namespace pane {
namespace serve {

class EpollTransport;
class Router;
class ShardBackend;

struct ServerOptions {
  /// Max requests executed as one engine batch.
  int64_t batch_size = 64;
  /// LRU result-cache entries (0 disables caching).
  int64_t cache_capacity = 1024;
  /// Answer top-k requests through the pruned IVF indexes (the engine must
  /// have BuildPrunedIndex'd) instead of the exact scan.
  bool pruned = false;
  int64_t nprobe = 8;
  /// Recommendation mode: skip attributes / out-neighbors the query node
  /// already has in this graph (must outlive the server).
  const AttributedGraph* exclude = nullptr;
  /// Connections beyond this cap are refused with `err server busy` and
  /// an immediate close (the transport's 503).
  int64_t max_connections = 256;
  /// TCP connections idle this long are reaped; 0 disables the sweep.
  int64_t idle_timeout_ms = 0;
  /// Upper bound on one inbound frame payload, in [0, kMaxFramePayload];
  /// 0 = the protocol default (kMaxFramePayload). The --max-frame-mb flag
  /// feeds this.
  int64_t max_frame_bytes = 0;
  /// Registry for every count and histogram the server and its transport
  /// keep, which the `stats` and `metrics` verbs render. Null makes the
  /// server own a private registry; a shared one (pane_server wires the
  /// same registry into engine, router, and server) must outlive the
  /// server, and two servers on one registry share its counts.
  obs::MetricsRegistry* metrics = nullptr;
  /// Batches whose traced stage total (decode through merge; encode happens
  /// after the batch returns) reaches this many microseconds log one
  /// structured `slow_query` line. 0 disables.
  int64_t slow_query_us = 0;
};

class PaneServer {
 public:
  /// The engine (and anything its views borrow) must outlive the server;
  /// batches run on a LocalShard wrapping it.
  PaneServer(const QueryEngine* engine, const ServerOptions& options);
  /// Router mode: batches execute through scatter-gather over the router's
  /// shard fleet instead of a local engine (same protocol, byte-identical
  /// responses). The router must outlive the server.
  PaneServer(Router* router, const ServerOptions& options);
  ~PaneServer();

  PaneServer(const PaneServer&) = delete;
  PaneServer& operator=(const PaneServer&) = delete;

  /// Serves one request stream until EOF or `quit`, flushing `out` after
  /// every pump. Thread-safe: may run concurrently with the TCP loop and
  /// with other ServeStream calls.
  void ServeStream(std::istream& in, std::ostream& out);

  /// Binds a loopback listening socket (`port` 0 picks an ephemeral port)
  /// and returns the bound port.
  Result<int> ListenTcp(int port);

  /// Runs the transport event loop — accepts, reads, batches, writes — on
  /// the calling thread until Shutdown(). A safe no-op (not a crash) if
  /// ListenTcp has not succeeded.
  void AcceptLoop();

  /// Thread-safe: wakes the event loop, which closes every connection and
  /// returns from AcceptLoop. Safe in any order relative to ListenTcp.
  void Shutdown();

  /// One decoded request, parsed by the session layer; a parse or framing
  /// failure travels as an entry too, so errors stay in request order.
  struct BatchEntry {
    Request request;
    bool parse_error = false;
    std::string error;
  };

  /// Executes one batch in request order: validates ranges, consults the
  /// LRU cache, folds duplicates, runs the engine's blocked kernels on
  /// the rest, and fills *responses with one payload (no wire framing)
  /// per entry. Sets *quit on a kQuit entry. Clears *batch.
  ///
  /// A non-null `trace` carries the session's decode / batch-wait times in
  /// and leaves with the executor's stages stamped (scan / select for an
  /// engine, fan-out / merge for a router); only externally-traced batches
  /// record the decode and batch-wait histograms.
  void ExecuteBatch(std::vector<BatchEntry>* batch,
                    std::vector<std::string>* responses, bool* quit,
                    obs::RequestTrace* trace = nullptr)
      PANE_EXCLUDES(cache_mutex_);

  /// Counts decoded binary frames (called by frame-codec sessions).
  void RecordFrames(uint64_t delta = 1) { frames_->Add(delta); }

  /// Records one stage sample into the per-stage histogram. The session
  /// layer uses this for the stages that live outside ExecuteBatch
  /// (encode).
  void RecordStageTime(obs::Stage stage, int64_t us);

  const ServerOptions& options() const { return options_; }

 private:
  struct RequestHash {
    size_t operator()(const Request& r) const;
  };

  bool CacheLookup(const Request& key, std::string* response)
      PANE_EXCLUDES(cache_mutex_);
  void CacheInsert(const Request& key, const std::string& response)
      PANE_EXCLUDES(cache_mutex_);
  std::string StatsResponse() const;

  /// Shared constructor tail (executor plan, transport wiring, metrics
  /// handles).
  void Init();

  /// Every batch runs on executor_: owned_executor_ (the engine
  /// constructor's LocalShard) or the caller's router.
  std::unique_ptr<ShardBackend> owned_executor_;
  ShardBackend* executor_ = nullptr;
  /// executor_'s Plan(): the ranges and capabilities requests are
  /// validated against, and the `plan` verb's answer.
  ShardSpec spec_;
  ServerOptions options_;

  /// Guards the LRU result cache (the list order is part of the state, so
  /// even lookups mutate under the lock).
  mutable Mutex cache_mutex_;
  std::list<std::pair<Request, std::string>> lru_
      PANE_GUARDED_BY(cache_mutex_);  // most recent at front
  std::unordered_map<Request,
                     std::list<std::pair<Request, std::string>>::iterator,
                     RequestHash>
      cache_ PANE_GUARDED_BY(cache_mutex_);

  /// Backs metrics_ when the options supply no registry; metrics_ (the
  /// options' registry or this one) is never null after Init.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Per-stage histograms (pane_stage_<name>_us), indexed by obs::Stage,
  /// plus the whole-batch one; handles resolved once in Init.
  obs::Histogram* stage_us_[obs::kNumStages] = {};
  obs::Histogram* batch_us_ = nullptr;
  /// The served-request counts (pane_server_<name>_total): well-formed
  /// requests, engine batches flushed, duplicates folded inside a batch,
  /// LRU cache answers, malformed / out-of-range / framing / shard errors,
  /// and binary frames decoded.
  obs::Counter* requests_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* dedup_hits_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* frames_ = nullptr;
  /// The transport's idle reaps and refusals (pane_transport_*_total),
  /// which `stats` reports beside them.
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* rejected_ = nullptr;

  /// Created in the constructor and never reassigned, so every thread that
  /// can observe the server sees the same transport — there is no
  /// ListenTcp-before-Shutdown ordering to get wrong anymore.
  std::unique_ptr<EpollTransport> transport_;
};

}  // namespace serve
}  // namespace pane
