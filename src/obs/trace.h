// Per-request stage timeline. A RequestTrace rides along with one batch
// through the serving stack and accumulates how long each pipeline stage
// took, in the order a request actually experiences them:
//
//   decode      bytes -> Request structs (codec + request-line parse)
//   batch_wait  first request parsed -> batch dispatched to the engine
//   engine_scan scoring work: the f32 screen (exact) or IVF probes
//   topk_select certification, f64 rescoring and heap selection (exact)
//   fanout      router scatter: per-shard hops, issued concurrently
//   merge       router gather: k-way merge of shard rankings, pair reassembly
//   encode      response strings -> wire bytes
//
// Each executor stamps only the stages it runs: an engine (LocalShard)
// scan/select, a routing front fanout/merge — the router stamps each local
// shard hop's scan/select on a per-hop trace of its own, since hops run
// concurrently. stamped() tells a stage that ran in 0 µs from one that
// never ran. The trace itself is plain data owned by one session — it is
// NOT thread-safe; cross-thread accumulation happens in EngineCallStats
// (query_engine.h) and is folded in by the owner.
//
// Two consumers: PaneServer records each stamped stage into the registry's
// pane_stage_* histograms, and --slow-query-us logs FormatBreakdown() for
// batches over the threshold.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace pane {
namespace obs {

enum class Stage : int {
  kDecode = 0,
  kBatchWait,
  kScan,
  kSelect,
  kFanout,
  kMerge,
  kEncode,
};

inline constexpr int kNumStages = 7;

/// Stable lowercase token used in metric names, the slow-query log line,
/// and the README stage glossary.
const char* StageName(Stage stage);

class RequestTrace {
 public:
  void Add(Stage stage, int64_t us) {
    us_[static_cast<size_t>(stage)] += us;
    stamped_ |= 1u << static_cast<int>(stage);
  }

  int64_t us(Stage stage) const { return us_[static_cast<size_t>(stage)]; }

  /// Whether Add touched `stage` since the last Reset.
  bool stamped(Stage stage) const {
    return (stamped_ >> static_cast<int>(stage)) & 1u;
  }

  int64_t total_us() const;

  void Reset() {
    us_.fill(0);
    stamped_ = 0;
  }

  /// One space-separated token per stage, in pipeline order:
  /// "decode_us=12 batch_wait_us=3 engine_scan_us=840 ...".
  std::string FormatBreakdown() const;

 private:
  std::array<int64_t, kNumStages> us_{};
  uint32_t stamped_ = 0;
};

}  // namespace obs
}  // namespace pane
