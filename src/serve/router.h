// The scatter-gather layer of the sharded serving fabric. A Router fronts
// N shard backends — each one QueryEngine over a row range of the one
// artifact, either in-process (LocalShard) or a remote pane_server reached
// over the frame protocol (RemoteShard) — and answers every query with
// byte-exactly the payload an unsharded server would produce. Backends and
// the router share one typed interface (ShardBackend): top-k queries in,
// Rankings out; pairs in, scores out. There is no separate unsharded mode:
// an unsharded server is shard 0 of 1, its engine built by the same
// QueryEngine::Create as every shard's.
//
//   top-k    fan the queries out to every shard, k-way MergeTopK each
//            query's already-sorted per-shard rankings (global ids) under
//            the (score desc, index asc) total order. A local hop hands
//            the engine's doubles over as they are; a remote hop parses
//            the shard's %.17g text with strtod, which round-trips doubles
//            exactly, so either way the merge sees the shard's bits.
//   pairs    route to the single shard owning the candidate row (pattr by
//            attribute range, pair by target-node range).
//
// At Create the router asks each backend for its Plan() (a remote shard
// answers the `plan` verb) and cross-validates the specs: every shard must
// agree on the global (n, d, dim) and the ranges must tile [0, n) and
// [0, d) exactly — a fleet mixing shards of two different splits is an
// error at startup, not wrong answers at query time.
//
// Degradation: each hop runs under a configurable deadline; a shard that
// cannot be reached (after one reconnect attempt), or that answers a
// ranking MergeTopK cannot trust, marks itself dead and every top-k query
// in the affected batch answers `err shard unavailable` — top-k answers
// are never silently computed from a subset of shards. Per-shard health
// (requests, errors, p50/p99/max hop latency, last-alive age) is surfaced
// through StatsSuffix on the router's `stats` response; hop latencies live
// in per-shard `pane_router_hop_us` histograms (src/obs/metrics.h), shared
// with the Prometheus exposition when the router is built over a
// MetricsRegistry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/matrix/dense_matrix.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/line_protocol.h"
#include "src/serve/server.h"
#include "src/serve/shard_plan.h"
#include "src/serve/transport.h"

namespace pane {

class ThreadPool;

namespace serve {

struct RouterOptions {
  /// Per-hop budget covering connect + send + receive for one batch.
  int64_t hop_timeout_ms = 2000;
  /// Inbound bound on one shard-reply frame, in [0, kMaxFramePayload]
  /// (0 = kMaxFramePayload).
  int64_t max_frame_bytes = 0;
  /// Fans batches out across shards concurrently. Null => sequential hops.
  /// Local shards run serial engines, so this pool is the parallelism.
  ThreadPool* pool = nullptr;
  /// Optional registry for the per-shard hop-latency histograms
  /// (pane_router_hop_us{shard="N"}) and the local hops' engine stages
  /// (pane_stage_engine_scan_us / topk_select_us, one sample per hop).
  /// Null keeps the hop histograms router-private (stats still reports
  /// them) and skips hop stage timing; the registry must outlive the
  /// router.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The text every query answers when an executor fails it (formatted as
/// `err shard unavailable`): a top-k is never silently merged from a
/// subset of shards.
inline constexpr char kShardUnavailable[] = "shard unavailable";

/// One pair-scoring batch: (node, attribute) or (source, target) ids.
using PairList = std::vector<std::pair<int64_t, int64_t>>;

/// A typed query executor: a shard as the router sees it, and what a
/// PaneServer runs every batch against. Calls take validated, in-range
/// queries of one family (the caller checks ids against Plan()) and
/// return global ids. Implementations are single-owner — the router
/// serializes calls per backend (fan-out parallelism is across backends,
/// never into one). A non-OK status means the backend is unreachable or
/// answered garbage.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// The candidate space this executor answers for.
  virtual Result<ShardSpec> Plan() = 0;

  /// One ranking per query for `family` (kTopKAttributes or kTopKTargets),
  /// each sorted by (score desc, index asc). A non-null `trace` gets the
  /// stages this executor ran stamped onto it.
  virtual Status TopK(Request::Type family,
                      const std::vector<TopKQuery>& queries,
                      std::vector<Ranking>* rankings,
                      obs::RequestTrace* trace) = 0;

  /// One score per pair for `family` (kAttributePair or kLinkPair). A pair
  /// left empty could not be answered (a router whose owner shard failed);
  /// the other pairs stand.
  virtual Status Scores(Request::Type family, const PairList& pairs,
                        std::vector<std::optional<double>>* scores,
                        obs::RequestTrace* trace) = 0;

  /// Appended to a fronting server's `stats` response.
  virtual std::string StatsSuffix() const { return std::string(); }

  /// Stable human-readable identity ("local:2", "127.0.0.1:7071").
  virtual std::string describe() const = 0;
};

/// In-process shard: calls a QueryEngine — every engine is a shard, the
/// unsharded one shard 0 of 1 — directly with the fronting server's serving
/// semantics. Plan() is the engine's spec().
class LocalShard final : public ShardBackend {
 public:
  /// `engine` must outlive the shard. Only the serving semantics of
  /// `options` apply: pruned / nprobe / exclude. A pruned query over a
  /// non-empty local slice needs the engine's index (BuildPrunedIndex or
  /// LoadPrunedIndex) by the time it runs.
  LocalShard(const QueryEngine* engine, const ServerOptions& options);

  Result<ShardSpec> Plan() override;
  Status TopK(Request::Type family, const std::vector<TopKQuery>& queries,
              std::vector<Ranking>* rankings,
              obs::RequestTrace* trace) override;
  Status Scores(Request::Type family, const PairList& pairs,
                std::vector<std::optional<double>>* scores,
                obs::RequestTrace* trace) override;
  /// " mode=exact" or " mode=pruned nprobe=<n>".
  std::string StatsSuffix() const override;
  std::string describe() const override;

 private:
  const QueryEngine* engine_;
  bool pruned_;
  int64_t nprobe_;
  const AttributedGraph* exclude_;
};

/// Remote shard: one blocking ShardConnection speaking the frame protocol,
/// reconnecting (once per call) after a drop, with every batch under the
/// router's hop deadline. The only backend that serializes: requests go
/// out as FormatRequest lines and replies are parsed and validated against
/// the range the shard reported at Plan().
class RemoteShard final : public ShardBackend {
 public:
  RemoteShard(std::string address, const RouterOptions& options);

  Result<ShardSpec> Plan() override;
  Status TopK(Request::Type family, const std::vector<TopKQuery>& queries,
              std::vector<Ranking>* rankings,
              obs::RequestTrace* trace) override;
  Status Scores(Request::Type family, const PairList& pairs,
                std::vector<std::optional<double>>* scores,
                obs::RequestTrace* trace) override;
  std::string describe() const override { return address_; }

 private:
  Status EnsureConnected(int64_t deadline_ms);
  /// One hop: sends `requests` as frames, reads one reply payload each.
  Status RoundTrip(const std::vector<Request>& requests,
                   std::vector<std::string>* replies);

  std::string address_;
  int64_t hop_timeout_ms_;
  size_t max_frame_payload_;
  ShardConnection conn_;
  ShardSpec spec_;  // from Plan(); empty ranges reject every ranking
};

/// Scatter-gather over a validated shard fleet, itself an executor: a
/// PaneServer fronting a Router answers byte-identically to one fronting
/// the unsharded engine.
class Router final : public ShardBackend {
 public:
  /// Handshakes every backend with Plan(), validates that the specs tile
  /// one consistent shard plan, and adopts the fleet. At least one shard;
  /// every shard must be reachable at create time.
  static Result<Router> Create(
      std::vector<std::unique_ptr<ShardBackend>> shards,
      const RouterOptions& options);

  Router(Router&&) = default;
  Router& operator=(Router&&) = default;

  int64_t num_nodes() const { return plan_.num_nodes; }
  int64_t num_attributes() const { return plan_.num_attributes; }
  int64_t dim() const { return plan_.shards[0].dim; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The whole fleet as plan position 0/1 over the full candidate space.
  Result<ShardSpec> Plan() override;
  /// Fans out to every shard and MergeTopKs; any failed shard fails the
  /// whole call. Stamps fanout and merge.
  Status TopK(Request::Type family, const std::vector<TopKQuery>& queries,
              std::vector<Ranking>* rankings,
              obs::RequestTrace* trace) override;
  /// Routes each pair to the shard owning its candidate row; a failed
  /// owner leaves only its own pairs empty. Stamps fanout and merge.
  Status Scores(Request::Type family, const PairList& pairs,
                std::vector<std::optional<double>>* scores,
                obs::RequestTrace* trace) override;

  /// " mode=router shards=N shard0.requests=.. shard0.errors=..
  /// shard0.p50_us=.. shard0.p99_us=.. shard0.max_us=.. shard0.alive=..
  /// shard0.age_ms=.. shard1. ..." — appended to the stats response.
  std::string StatsSuffix() const override;
  std::string describe() const override { return "router"; }

 private:
  struct ShardHealth {
    uint64_t requests = 0;
    uint64_t errors = 0;
    /// Hop-latency histogram: registry-owned when RouterOptions.metrics is
    /// set, else one of owned_latency_'s. Never null after Create.
    obs::Histogram* latency = nullptr;
    int64_t last_alive_ms = 0;
    bool alive = true;
  };

  Router() = default;

  /// One tracked hop of `count` queries: runs `hop`, records latency /
  /// health, and records the hop's stamped scan/select stages into the
  /// registry (a local shard's engine work).
  Status CallShard(size_t shard, size_t count,
                   const std::function<Status(obs::RequestTrace*)>& hop);
  /// Runs fn(shard) for every shard, across the pool when present, as the
  /// traced fan-out stage; returns its end time (0 untraced).
  int64_t FanOut(obs::RequestTrace* trace,
                 const std::function<void(size_t)>& fn);
  /// Index of the shard whose range holds this candidate id.
  size_t OwnerShard(int64_t id, bool by_attribute) const;

  RouterOptions options_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<ShardBackend>> shards_;
  /// pane_stage_engine_scan_us / pane_stage_topk_select_us, null without a
  /// registry.
  obs::Histogram* hop_scan_us_ = nullptr;
  obs::Histogram* hop_select_us_ = nullptr;

  mutable std::unique_ptr<Mutex> health_mutex_;  // unique_ptr: movable
  std::vector<ShardHealth> health_;
  /// Backing storage for ShardHealth::latency when no registry is supplied
  /// (unique_ptrs: addresses survive Router moves).
  std::vector<std::unique_ptr<obs::Histogram>> owned_latency_;
};

/// A complete in-process shard fleet over one store: G = Y^T Y derived
/// once and every shard engine built by QueryEngine::Create over the plan's
/// ranges, one LocalShard backend per engine. The struct owns everything
/// the backends borrow, so keep it alive as long as the Router.
struct LocalFleet {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  std::vector<std::unique_ptr<ShardBackend>> backends;
};

/// Builds `num_shards` local shards over `store` (which must stay alive
/// and hold attribute factors). `shard_options` carries the serving
/// semantics of every shard (pruned / nprobe / exclude);
/// `ivf` non-null builds each shard's pruned indexes with those options.
Result<LocalFleet> BuildLocalShards(const EmbeddingStore& store,
                                    int num_shards,
                                    const QueryEngineOptions& engine_options,
                                    const ServerOptions& shard_options,
                                    const IvfOptions* ivf);

}  // namespace serve
}  // namespace pane
