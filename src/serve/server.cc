#include "src/serve/server.h"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <streambuf>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/serve/shard_plan.h"
#include "src/serve/transport.h"

namespace pane {
namespace serve {
namespace {

/// Bytes pulled from the stream per ServeStream pump.
constexpr std::streamsize kStreamChunk = 64 << 10;

}  // namespace

size_t PaneServer::RequestHash::operator()(const Request& r) const {
  size_t h = static_cast<size_t>(r.type);
  const auto mix = [&h](uint64_t v) {
    h ^= static_cast<size_t>(v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  mix(static_cast<uint64_t>(r.a));
  mix(static_cast<uint64_t>(r.b));
  mix(static_cast<uint64_t>(r.k));
  return h;
}

PaneServer::PaneServer(const QueryEngine* engine, const ServerOptions& options)
    : owned_executor_(std::make_unique<LocalShard>(engine, options)),
      executor_(owned_executor_.get()),
      options_(options) {
  Init();
}

PaneServer::PaneServer(Router* router, const ServerOptions& options)
    : executor_(router), options_(options) {
  PANE_CHECK(executor_ != nullptr);
  Init();
}

void PaneServer::Init() {
  PANE_CHECK(options_.batch_size > 0);
  PANE_CHECK(options_.max_frame_bytes >= 0 &&
             options_.max_frame_bytes <=
                 static_cast<int64_t>(kMaxFramePayload))
      << "max_frame_bytes must be in [0, " << kMaxFramePayload << "], got "
      << options_.max_frame_bytes;
  spec_ = executor_->Plan().ValueOrDie();
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  for (int s = 0; s < obs::kNumStages; ++s) {
    stage_us_[s] = metrics_->GetHistogram(
        std::string("pane_stage_") +
        obs::StageName(static_cast<obs::Stage>(s)) + "_us");
  }
  batch_us_ = metrics_->GetHistogram("pane_server_batch_us");
  TransportOptions transport_options;
  transport_options.max_connections = options_.max_connections;
  transport_options.idle_timeout_ms = options_.idle_timeout_ms;
  transport_options.refusal = "err server busy\n";
  transport_options.metrics = metrics_;
  transport_ = std::make_unique<EpollTransport>(
      [this]() -> std::unique_ptr<ConnectionHandler> {
        return std::make_unique<ServeSession>(this);
      },
      transport_options);
}

PaneServer::~PaneServer() { Shutdown(); }

bool PaneServer::CacheLookup(const Request& key, std::string* response) {
  if (options_.cache_capacity <= 0) return false;
  MutexLock lock(&cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  *response = it->second->second;
  return true;
}

void PaneServer::CacheInsert(const Request& key, const std::string& response) {
  if (options_.cache_capacity <= 0) return;
  MutexLock lock(&cache_mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = response;
    return;
  }
  lru_.emplace_front(key, response);
  cache_[key] = lru_.begin();
  if (static_cast<int64_t>(lru_.size()) > options_.cache_capacity) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void PaneServer::Count(uint64_t Counters::*field, uint64_t delta) {
  MutexLock lock(&stats_mutex_);
  counters_.*field += delta;
}

void PaneServer::RecordFrames(uint64_t delta) {
  Count(&Counters::frames, delta);
}

void PaneServer::RecordStageTime(obs::Stage stage, int64_t us) {
  stage_us_[static_cast<int>(stage)]->Record(us);
}

std::string PaneServer::StatsResponse() const {
  const Counters snapshot = counters();  // one instant, one lock hold
  std::string out = "stats ok";
  const auto field = [&out](const char* name, uint64_t value) {
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("requests", snapshot.requests);
  field("batches", snapshot.batches);
  field("dedup_hits", snapshot.dedup_hits);
  field("cache_hits", snapshot.cache_hits);
  field("errors", snapshot.errors);
  field("timeouts", snapshot.timeouts);
  field("rejected", snapshot.rejected);
  field("frames", snapshot.frames);
  return out + executor_->StatsSuffix();
}

std::string PaneServer::MetricsResponse() const {
  // The registry first (stage/transport/engine/router series), then the
  // served-request counters as their own families, then the explicit
  // terminator clients scan for — a multi-line payload needs one.
  std::string out = metrics_->RenderPrometheus();
  const Counters snapshot = counters();
  const auto counter = [&out](const char* name, uint64_t value) {
    out += "# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  counter("pane_server_requests_total", snapshot.requests);
  counter("pane_server_batches_total", snapshot.batches);
  counter("pane_server_dedup_hits_total", snapshot.dedup_hits);
  counter("pane_server_cache_hits_total", snapshot.cache_hits);
  counter("pane_server_errors_total", snapshot.errors);
  counter("pane_server_timeouts_total", snapshot.timeouts);
  counter("pane_server_rejected_total", snapshot.rejected);
  counter("pane_server_frames_total", snapshot.frames);
  out += "# EOF";
  return out;
}

void PaneServer::ExecuteBatch(std::vector<BatchEntry>* batch,
                              std::vector<std::string>* responses,
                              bool* quit, obs::RequestTrace* trace) {
  responses->clear();
  if (batch->empty()) return;
  const size_t count = batch->size();
  responses->resize(count);
  // Every batch is timed: its stages land in the histograms and, past
  // slow_query_us, in a slow-query line.
  obs::RequestTrace local_trace;
  obs::RequestTrace* t = trace != nullptr ? trace : &local_trace;
  const int64_t batch_start_us = MonotonicMicros();
  // Key -> index of the entry that owns the executor work for it.
  std::unordered_map<Request, size_t, RequestHash> first_seen;
  std::vector<size_t> duplicates;  // entries answered by an earlier twin
  // Executor work per family, [0] attributes and [1] links; *_owner[f][j]
  // is the entry that query / pair j of family f answers.
  std::vector<TopKQuery> topk[2];
  PairList pairs[2];
  std::vector<size_t> topk_owner[2], pair_owner[2];

  for (size_t i = 0; i < count; ++i) {
    BatchEntry& entry = (*batch)[i];
    if (entry.parse_error) {
      (*responses)[i] = FormatError(entry.error);
      Count(&Counters::errors);
      continue;
    }
    const Request& r = entry.request;
    Count(&Counters::requests);
    if (r.type == Request::Type::kQuit) {
      (*responses)[i] = "bye";
      *quit = true;
      continue;
    }
    if (r.type == Request::Type::kPlan) {
      (*responses)[i] = FormatPlanResponse(spec_);
      continue;
    }
    if (r.type == Request::Type::kStats ||
        r.type == Request::Type::kMetrics) {
      continue;  // formatted at emit time, after this batch's engine work
    }
    // Validation up front against the executor's plan: the engine
    // PANE_CHECKs its inputs, and a served request must never abort the
    // process. The last check is for a shard server reached directly (not
    // via its router), which must refuse pairs whose candidate row lives
    // elsewhere.
    const bool attr_like = r.type == Request::Type::kTopKAttributes ||
                           r.type == Request::Type::kAttributePair;
    const bool is_pair = r.type == Request::Type::kAttributePair ||
                         r.type == Request::Type::kLinkPair;
    const int64_t b_end = attr_like ? spec_.num_attributes : spec_.num_nodes;
    const int64_t held_begin = attr_like ? spec_.attr_begin : spec_.node_begin;
    const int64_t held_end = attr_like ? spec_.attr_end : spec_.node_end;
    const char* invalid = nullptr;
    if (r.a < 0 || r.a >= spec_.num_nodes) {
      invalid = "node out of range";
    } else if (is_pair && (r.b < 0 || r.b >= b_end)) {
      invalid = "id out of range";
    } else if (attr_like ? !spec_.has_attributes : !spec_.has_links) {
      invalid = attr_like ? "attribute scoring unavailable"
                          : "link scoring unavailable";
    } else if (is_pair && (r.b < held_begin || r.b >= held_end)) {
      invalid = "id not on this shard";
    }
    if (invalid != nullptr) {
      (*responses)[i] = FormatError(invalid);
      Count(&Counters::errors);
      continue;
    }
    std::string cached;
    if (CacheLookup(r, &cached)) {
      (*responses)[i] = std::move(cached);
      Count(&Counters::cache_hits);
      continue;
    }
    const auto [it, inserted] = first_seen.emplace(r, i);
    if (!inserted) {
      duplicates.push_back(i);
      Count(&Counters::dedup_hits);
      continue;
    }
    const int f = attr_like ? 0 : 1;
    if (is_pair) {
      pairs[f].emplace_back(r.a, r.b);
      pair_owner[f].push_back(i);
    } else {
      topk[f].push_back({r.a, r.k});
      topk_owner[f].push_back(i);
    }
  }

  // The one format/cache step. A failed executor call (a router's shard
  // outage) answers `err shard unavailable`, which counts as an error and
  // must not outlive the outage in the cache.
  const auto answer = [this, batch, responses](size_t i, std::string payload) {
    if (payload.compare(0, 4, "err ") == 0) {
      Count(&Counters::errors);
    } else {
      CacheInsert((*batch)[i].request, payload);
    }
    (*responses)[i] = std::move(payload);
  };
  constexpr Request::Type kTopKFamily[2] = {Request::Type::kTopKAttributes,
                                            Request::Type::kTopKTargets};
  constexpr Request::Type kPairFamily[2] = {Request::Type::kAttributePair,
                                            Request::Type::kLinkPair};
  bool ran_engine = false;
  for (int f = 0; f < 2; ++f) {
    if (topk_owner[f].empty()) continue;
    std::vector<Ranking> rankings;
    const bool ok =
        executor_->TopK(kTopKFamily[f], topk[f], &rankings, t).ok();
    for (size_t j = 0; j < topk_owner[f].size(); ++j) {
      const size_t i = topk_owner[f][j];
      answer(i, ok ? FormatRanking((*batch)[i].request, rankings[j])
                   : FormatError(kShardUnavailable));
    }
    ran_engine = true;
  }
  for (int f = 0; f < 2; ++f) {
    if (pair_owner[f].empty()) continue;
    std::vector<std::optional<double>> scores;
    const bool ok =
        executor_->Scores(kPairFamily[f], pairs[f], &scores, t).ok();
    for (size_t j = 0; j < pair_owner[f].size(); ++j) {
      const size_t i = pair_owner[f][j];
      answer(i, ok && scores[j].has_value()
                    ? FormatScore((*batch)[i].request, *scores[j])
                    : FormatError(kShardUnavailable));
    }
    ran_engine = true;
  }
  if (ran_engine) Count(&Counters::batches);

  // Decode / batch-wait come stamped on an external (session) trace. Of
  // the executor stages, only the ones it stamped are recorded (an
  // engine's scan/select, a router's fan-out/merge), so every histogram
  // stays zero-free by design.
  if (trace != nullptr) {
    stage_us_[static_cast<int>(obs::Stage::kDecode)]->Record(
        trace->us(obs::Stage::kDecode));
    stage_us_[static_cast<int>(obs::Stage::kBatchWait)]->Record(
        trace->us(obs::Stage::kBatchWait));
  }
  if (ran_engine) {
    for (const obs::Stage stage : {obs::Stage::kScan, obs::Stage::kSelect,
                                   obs::Stage::kFanout, obs::Stage::kMerge}) {
      if (t->stamped(stage)) {
        stage_us_[static_cast<int>(stage)]->Record(t->us(stage));
      }
    }
  }
  batch_us_->Record(MonotonicMicros() - batch_start_us);
  // One structured line per offending engine batch (encode happens later
  // in the session, outside this window).
  if (options_.slow_query_us > 0 && ran_engine &&
      t->total_us() >= options_.slow_query_us) {
    std::string first;
    for (const BatchEntry& entry : *batch) {
      if (!entry.parse_error) {
        first = FormatRequest(entry.request);
        break;
      }
    }
    PANE_LOG(WARNING) << "slow_query total_us=" << t->total_us()
                      << " requests=" << count << ' '
                      << t->FormatBreakdown() << " first=\"" << first << '"';
  }

  for (const size_t i : duplicates) {
    const auto it = first_seen.find((*batch)[i].request);
    PANE_CHECK(it != first_seen.end());
    (*responses)[i] = (*responses)[it->second];
  }
  // Stats / metrics entries format last so they see this batch's own
  // counter bumps, the same instant the old stream loop printed them at.
  for (size_t i = 0; i < count; ++i) {
    if ((*batch)[i].parse_error) continue;
    if ((*batch)[i].request.type == Request::Type::kStats) {
      (*responses)[i] = StatsResponse();
    } else if ((*batch)[i].request.type == Request::Type::kMetrics) {
      (*responses)[i] = MetricsResponse();
    }
  }
  batch->clear();
}

void PaneServer::ServeStream(std::istream& in, std::ostream& out) {
  ServeSession session(this);
  std::string input;
  std::string output;
  std::string chunk;
  const auto emit = [&out, &output]() {
    if (output.empty()) return;
    out.write(output.data(), static_cast<std::streamsize>(output.size()));
    out.flush();
    output.clear();
  };
  while (true) {
    // peek() blocks until at least one byte (or EOF) is available; the
    // inner loop then drains whatever else the streambuf already holds so
    // a burst of requests becomes one pump — and one engine batch.
    if (in.peek() == std::char_traits<char>::eof()) break;
    do {
      const std::streamsize want =
          std::min(std::max<std::streamsize>(in.rdbuf()->in_avail(), 1),
                   kStreamChunk);
      chunk.resize(static_cast<size_t>(want));
      in.read(chunk.data(), want);
      const std::streamsize got = in.gcount();
      if (got <= 0) break;
      input.append(chunk.data(), static_cast<size_t>(got));
    } while (in.good() && in.rdbuf()->in_avail() > 0);
    const ConnectionHandler::Action action = session.OnData(&input, &output);
    emit();
    if (action == ConnectionHandler::Action::kClose) return;
  }
  session.OnEof(&input, &output);
  emit();
}

Result<int> PaneServer::ListenTcp(int port) { return transport_->Listen(port); }

void PaneServer::AcceptLoop() { transport_->Run(); }

void PaneServer::Shutdown() { transport_->Shutdown(); }

PaneServer::Counters PaneServer::counters() const {
  Counters snapshot;
  {
    MutexLock lock(&stats_mutex_);
    snapshot = counters_;
  }
  const TransportStats transport = transport_->stats();
  snapshot.timeouts = transport.timeouts;
  snapshot.rejected = transport.rejected;
  return snapshot;
}

}  // namespace serve
}  // namespace pane
