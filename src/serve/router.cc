#include "src/serve/router.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"

namespace pane {
namespace serve {
namespace {

/// A hop's status, demoted to an error when the shard answered fewer
/// results than it was asked for.
Status Answered(const Status& status, size_t got, size_t want) {
  if (status.ok() && got != want) {
    return Status::IOError("shard answered a short batch");
  }
  return status;
}

}  // namespace

// ---- LocalShard ----------------------------------------------------------

LocalShard::LocalShard(const QueryEngine* engine, const ServerOptions& options)
    : engine_(engine),
      pruned_(options.pruned),
      nprobe_(options.nprobe),
      exclude_(options.exclude) {
  PANE_CHECK(engine_ != nullptr);
}

Result<ShardSpec> LocalShard::Plan() { return engine_->spec(); }

Status LocalShard::TopK(Request::Type family,
                        const std::vector<TopKQuery>& queries,
                        std::vector<Ranking>* rankings,
                        obs::RequestTrace* trace) {
  EngineCallStats call_stats;
  EngineCallStats* stats = trace != nullptr ? &call_stats : nullptr;
  const bool attributes = family == Request::Type::kTopKAttributes;
  if (pruned_) {
    *rankings = attributes ? engine_->TopKAttributesPruned(queries, nprobe_,
                                                           exclude_, stats)
                           : engine_->TopKTargetsPruned(queries, nprobe_,
                                                        exclude_, stats);
  } else {
    *rankings = attributes ? engine_->TopKAttributes(queries, exclude_, stats)
                           : engine_->TopKTargets(queries, exclude_, stats);
  }
  if (trace != nullptr) {
    trace->Add(obs::Stage::kScan, call_stats.scan_ns.load() / 1000);
    trace->Add(obs::Stage::kSelect, call_stats.select_ns.load() / 1000);
  }
  return Status::OK();
}

Status LocalShard::Scores(Request::Type family, const PairList& pairs,
                          std::vector<std::optional<double>>* scores,
                          obs::RequestTrace* trace) {
  const int64_t start_ns = trace != nullptr ? MonotonicNanos() : 0;
  const std::vector<double> values =
      family == Request::Type::kAttributePair
          ? engine_->AttributeScores(pairs)
          : engine_->LinkScores(pairs);
  // Pair scoring has no tile/select split — its wall time counts as scan,
  // the stage it is.
  if (trace != nullptr) {
    trace->Add(obs::Stage::kScan, (MonotonicNanos() - start_ns) / 1000);
  }
  scores->assign(values.begin(), values.end());
  return Status::OK();
}

std::string LocalShard::describe() const {
  return "local:" + std::to_string(engine_->spec().shard_index);
}

std::string LocalShard::StatsSuffix() const {
  return pruned_ ? " mode=pruned nprobe=" + std::to_string(nprobe_)
                 : std::string(" mode=exact");
}

// ---- RemoteShard ---------------------------------------------------------

RemoteShard::RemoteShard(std::string address, const RouterOptions& options)
    : address_(std::move(address)),
      hop_timeout_ms_(options.hop_timeout_ms),
      max_frame_payload_(options.max_frame_bytes > 0
                             ? static_cast<size_t>(options.max_frame_bytes)
                             : kMaxFramePayload) {
  PANE_CHECK(options.max_frame_bytes >= 0 &&
             options.max_frame_bytes <= static_cast<int64_t>(kMaxFramePayload))
      << "max_frame_bytes must be in [0, " << kMaxFramePayload << "], got "
      << options.max_frame_bytes;
}

Status RemoteShard::EnsureConnected(int64_t deadline_ms) {
  if (conn_.connected()) return Status::OK();
  const auto budget = [deadline_ms]() {
    return deadline_ms - ShardConnection::NowMs();
  };
  // Retry the connect once: a shard restarting between batches costs one
  // extra round, not a dead hop.
  Status status = conn_.Connect(address_, budget());
  if (!status.ok() && budget() > 0) {
    status = conn_.Connect(address_, budget());
  }
  return status;
}

Status RemoteShard::RoundTrip(const std::vector<Request>& requests,
                              std::vector<std::string>* replies) {
  const int64_t deadline_ms = ShardConnection::NowMs() + hop_timeout_ms_;
  PANE_RETURN_NOT_OK(EnsureConnected(deadline_ms));

  std::string wire;
  for (const Request& request : requests) {
    AppendFrame(FormatRequest(request), &wire);
  }
  Status status = conn_.SendAll(wire, deadline_ms);
  if (!status.ok()) {
    conn_.Close();
    return status;
  }

  FrameCodec codec(max_frame_payload_);
  std::string buffer;
  size_t pos = 0;
  replies->clear();
  replies->reserve(requests.size());
  while (replies->size() < requests.size()) {
    std::string_view payload;
    std::string error;
    const ProtocolCodec::Decoded decoded =
        codec.Decode(buffer, &pos, &payload, &error);
    if (decoded == ProtocolCodec::Decoded::kMessage) {
      replies->emplace_back(payload);
      continue;
    }
    if (decoded == ProtocolCodec::Decoded::kNeedMore) {
      status = conn_.RecvSome(&buffer, deadline_ms);
      if (!status.ok()) {
        conn_.Close();
        return status;
      }
      continue;
    }
    conn_.Close();
    return Status::IOError("bad frame from shard " + address_ + ": " + error);
  }
  return Status::OK();
}

Result<ShardSpec> RemoteShard::Plan() {
  std::vector<std::string> replies;
  PANE_RETURN_NOT_OK(RoundTrip({{Request::Type::kPlan}}, &replies));
  PANE_ASSIGN_OR_RETURN(spec_, ParsePlanResponse(replies[0]));
  return spec_;
}

Status RemoteShard::TopK(Request::Type family,
                         const std::vector<TopKQuery>& queries,
                         std::vector<Ranking>* rankings,
                         obs::RequestTrace* /*trace*/) {
  std::vector<Request> requests;
  for (const TopKQuery& q : queries) {
    requests.push_back({family, q.node, 0, q.k});
  }
  std::vector<std::string> replies;
  PANE_RETURN_NOT_OK(RoundTrip(requests, &replies));
  const bool attributes = family == Request::Type::kTopKAttributes;
  const int64_t begin = attributes ? spec_.attr_begin : spec_.node_begin;
  const int64_t end = attributes ? spec_.attr_end : spec_.node_end;
  rankings->resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    PANE_RETURN_NOT_OK(ParseRankingResponse(replies[i], requests[i], begin,
                                            end, &(*rankings)[i]));
  }
  return Status::OK();
}

Status RemoteShard::Scores(Request::Type family, const PairList& pairs,
                           std::vector<std::optional<double>>* scores,
                           obs::RequestTrace* /*trace*/) {
  std::vector<Request> requests;
  for (const auto& [a, b] : pairs) requests.push_back({family, a, b, 0});
  std::vector<std::string> replies;
  PANE_RETURN_NOT_OK(RoundTrip(requests, &replies));
  scores->assign(pairs.size(), std::nullopt);
  for (size_t i = 0; i < pairs.size(); ++i) {
    double score = 0.0;
    PANE_RETURN_NOT_OK(ParseScoreResponse(replies[i], requests[i], &score));
    (*scores)[i] = score;
  }
  return Status::OK();
}

// ---- Router --------------------------------------------------------------

Result<Router> Router::Create(
    std::vector<std::unique_ptr<ShardBackend>> shards,
    const RouterOptions& options) {
  if (shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  Router router;
  router.options_ = options;
  if (router.options_.metrics == nullptr) {
    router.owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    router.options_.metrics = router.owned_metrics_.get();
  }
  obs::MetricsRegistry* metrics = router.options_.metrics;
  router.shards_ = std::move(shards);
  router.health_mutex_ = std::make_unique<Mutex>();
  router.health_.resize(router.shards_.size());
  for (size_t i = 0; i < router.health_.size(); ++i) {
    router.health_[i].latency = metrics->GetHistogram(
        "pane_router_hop_us", "shard=\"" + std::to_string(i) + "\"");
  }
  router.hop_scan_us_ = metrics->GetHistogram("pane_stage_engine_scan_us");
  router.hop_select_us_ = metrics->GetHistogram("pane_stage_topk_select_us");

  // Plan handshake: every backend reports its spec; together they must
  // tile one consistent plan. Sequential — startup, not the hot path.
  std::vector<ShardSpec> specs;
  specs.reserve(router.shards_.size());
  for (const auto& shard : router.shards_) {
    PANE_ASSIGN_OR_RETURN(ShardSpec spec, shard->Plan());
    specs.push_back(std::move(spec));
  }
  PANE_RETURN_NOT_OK(ValidateShardSpecs(specs, &router.plan_));
  const int64_t now = ShardConnection::NowMs();
  for (ShardHealth& h : router.health_) h.last_alive_ms = now;
  return router;
}

Result<ShardSpec> Router::Plan() {
  ShardSpec spec = MakeShardPlan(plan_.num_nodes, plan_.num_attributes, 1)
                       .shards[0];
  const ShardSpec& first = plan_.shards[0];
  spec.dim = first.dim;
  spec.has_attributes = first.has_attributes;
  spec.has_links = first.has_links;
  return spec;
}

Status Router::CallShard(
    size_t shard, size_t count,
    const std::function<Status(obs::RequestTrace*)>& hop) {
  obs::RequestTrace hop_trace;
  const int64_t start_us = MonotonicMicros();
  const Status status = hop(&hop_trace);
  const int64_t elapsed_us = MonotonicMicros() - start_us;
  if (status.ok() && hop_trace.stamped(obs::Stage::kScan)) {
    hop_scan_us_->Record(hop_trace.us(obs::Stage::kScan));
  }
  if (status.ok() && hop_trace.stamped(obs::Stage::kSelect)) {
    hop_select_us_->Record(hop_trace.us(obs::Stage::kSelect));
  }
  MutexLock lock(health_mutex_.get());
  ShardHealth& h = health_[shard];
  h.requests += count;
  if (status.ok()) {
    h.alive = true;
    h.last_alive_ms = ShardConnection::NowMs();
    h.latency->Record(elapsed_us);
  } else {
    h.alive = false;
    h.errors += count;
    PANE_LOG(WARNING) << "shard " << shards_[shard]->describe()
                      << " unavailable: " << status.message();
  }
  return status;
}

int64_t Router::FanOut(obs::RequestTrace* trace,
                       const std::function<void(size_t)>& fn) {
  const int64_t start_us = trace != nullptr ? MonotonicMicros() : 0;
  const int64_t count = static_cast<int64_t>(shards_.size());
  if (options_.pool != nullptr && options_.pool->num_threads() > 1 &&
      count > 1) {
    ParallelFor(options_.pool, 0, count, [&fn](int64_t begin, int64_t end) {
      for (int64_t s = begin; s < end; ++s) {
        fn(static_cast<size_t>(s));
      }
    });
  } else {
    for (int64_t s = 0; s < count; ++s) fn(static_cast<size_t>(s));
  }
  if (trace == nullptr) return 0;
  const int64_t end_us = MonotonicMicros();
  trace->Add(obs::Stage::kFanout, end_us - start_us);
  return end_us;
}

Status Router::TopK(Request::Type family,
                    const std::vector<TopKQuery>& queries,
                    std::vector<Ranking>* rankings,
                    obs::RequestTrace* trace) {
  const size_t num_shards = shards_.size();
  // per_shard[s][i]: shard s's sorted ranking for query i.
  std::vector<std::vector<Ranking>> per_shard(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  const int64_t merge_start_us = FanOut(trace, [&](size_t s) {
    statuses[s] = CallShard(s, queries.size(), [&](obs::RequestTrace* t) {
      Status status = shards_[s]->TopK(family, queries, &per_shard[s], t);
      return Answered(status, per_shard[s].size(), queries.size());
    });
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return Status::IOError(kShardUnavailable);
  }
  rankings->resize(queries.size());
  std::vector<Ranking> lists(num_shards);
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t s = 0; s < num_shards; ++s) {
      lists[s] = std::move(per_shard[s][i]);
    }
    (*rankings)[i] = MergeTopK(lists, queries[i].k);
  }
  if (trace != nullptr) {
    trace->Add(obs::Stage::kMerge, MonotonicMicros() - merge_start_us);
  }
  return Status::OK();
}

size_t Router::OwnerShard(int64_t id, bool by_attribute) const {
  for (size_t s = 0; s < plan_.shards.size(); ++s) {
    const ShardSpec& spec = plan_.shards[s];
    const int64_t begin = by_attribute ? spec.attr_begin : spec.node_begin;
    const int64_t end = by_attribute ? spec.attr_end : spec.node_end;
    if (id >= begin && id < end) return s;
  }
  PANE_CHECK(false) << "candidate id " << id
                    << " outside the validated plan ranges";
  return 0;
}

Status Router::Scores(Request::Type family, const PairList& pairs,
                      std::vector<std::optional<double>>* scores,
                      obs::RequestTrace* trace) {
  scores->assign(pairs.size(), std::nullopt);
  const bool by_attribute = family == Request::Type::kAttributePair;
  const size_t num_shards = shards_.size();
  std::vector<PairList> routed(num_shards);
  std::vector<std::vector<size_t>> owners(num_shards);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t s = OwnerShard(pairs[i].second, by_attribute);
    routed[s].push_back(pairs[i]);
    owners[s].push_back(i);
  }
  std::vector<std::vector<std::optional<double>>> replies(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  const int64_t merge_start_us = FanOut(trace, [&](size_t s) {
    if (routed[s].empty()) return;
    statuses[s] = CallShard(s, routed[s].size(), [&](obs::RequestTrace* t) {
      Status status = shards_[s]->Scores(family, routed[s], &replies[s], t);
      return Answered(status, replies[s].size(), routed[s].size());
    });
  });
  // A failed owner leaves only its own pairs empty — the other shards'
  // answers stand.
  for (size_t s = 0; s < num_shards; ++s) {
    if (!statuses[s].ok()) continue;
    for (size_t j = 0; j < owners[s].size(); ++j) {
      (*scores)[owners[s][j]] = replies[s][j];
    }
  }
  if (trace != nullptr) {
    trace->Add(obs::Stage::kMerge, MonotonicMicros() - merge_start_us);
  }
  return Status::OK();
}

std::string Router::StatsSuffix() const {
  std::string out = " mode=router shards=" + std::to_string(num_shards());
  const int64_t now = ShardConnection::NowMs();
  MutexLock lock(health_mutex_.get());
  for (size_t s = 0; s < health_.size(); ++s) {
    const ShardHealth& h = health_[s];
    const obs::Histogram::Snapshot latency = h.latency->TakeSnapshot();
    const std::string prefix = " shard" + std::to_string(s) + '.';
    out += prefix + "requests=" + std::to_string(h.requests);
    out += prefix + "errors=" + std::to_string(h.errors);
    out += prefix + "p50_us=" + std::to_string(latency.p50);
    out += prefix + "p99_us=" + std::to_string(latency.p99);
    out += prefix + "max_us=" + std::to_string(latency.max);
    out += prefix + "alive=" + (h.alive ? "1" : "0");
    out += prefix + "age_ms=" + std::to_string(now - h.last_alive_ms);
  }
  return out;
}

// ---- Local fleets -------------------------------------------------------

Result<LocalFleet> BuildLocalShards(const EmbeddingStore& store,
                                    int num_shards,
                                    const QueryEngineOptions& engine_options,
                                    const ServerOptions& shard_options,
                                    const IvfOptions* ivf) {
  if (num_shards <= 0) {
    return Status::InvalidArgument("shard count must be positive");
  }
  // G = Y^T Y of the full Y once; each shard derives its own rows of
  // Z = Xb G from it, bitwise the unsharded engine's Z.
  DenseMatrix gram;
  if (store.has_attribute_factors()) GemmTransA(store.y(), store.y(), &gram);
  const ShardPlan plan =
      MakeShardPlan(store.num_nodes(), store.num_attributes(), num_shards);
  LocalFleet fleet;
  for (const ShardSpec& spec : plan.shards) {
    PANE_ASSIGN_OR_RETURN(
        QueryEngine engine,
        QueryEngine::Create(store, spec, gram.View(), engine_options));
    auto owned = std::make_unique<QueryEngine>(std::move(engine));
    if (ivf != nullptr) {
      PANE_RETURN_NOT_OK(owned->BuildPrunedIndex(*ivf));
    }
    fleet.backends.push_back(
        std::make_unique<LocalShard>(owned.get(), shard_options));
    fleet.engines.push_back(std::move(owned));
  }
  return fleet;
}

}  // namespace serve
}  // namespace pane
