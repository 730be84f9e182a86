// The shard plan: how one embedding artifact's candidate space is cut into
// contiguous row ranges, and the protocol text that lets a router learn a
// shard's ranges at startup (the `plan` verb).
//
// A plan slices both candidate matrices in lockstep — shard i holds Y rows
// [attr_begin, attr_end) and Z rows [node_begin, node_end) — while the
// query-side factors (Xf, Xb) are replicated in full, so any shard can form
// the query vector for any node id. Shard engines scan their local slices
// but offer *global* candidate ids to the selection heap, which is what
// makes the router's MergeTopK output bitwise-identical to a single
// unsharded scan: the (score desc, index asc) order is a strict total
// order over global ids, so the top-k set and its order are unique.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/store/shard_pages.h"

namespace pane {
namespace serve {

/// A shard's identity and held ranges — the store-layer meta doubles as the
/// serving-layer spec (it carries exactly the fields a shard engine and the
/// router's merge need).
using ShardSpec = store::ShardMeta;

/// The full plan a router validates its backends against: every shard's
/// ranges, which must tile [0, n) and [0, d) contiguously in shard order.
struct ShardPlan {
  int64_t num_nodes = 0;
  int64_t num_attributes = 0;
  std::vector<ShardSpec> shards;
};

/// Cuts [0, n) and [0, d) into `num_shards` contiguous ranges with the same
/// near-even split ParallelFor uses (the first n % s ranges get one extra
/// row), so shard load is balanced to within one row.
ShardPlan MakeShardPlan(int64_t num_nodes, int64_t num_attributes,
                        int num_shards);

/// Validates that `specs` (in vector order) form exactly the plan
/// MakeShardPlan would produce positions for: shard i at index i, all
/// agreeing on the global shapes, node ranges tiling [0, n) and attribute
/// ranges tiling [0, d). On success fills *plan.
Status ValidateShardSpecs(const std::vector<ShardSpec>& specs,
                          ShardPlan* plan);

/// Splits an embedding container artifact into `num_shards`
/// shard containers "<out_prefix>.<i>". The full Z = Xb (Y^T Y) is derived
/// once with the same kernels the unsharded engine uses and row-sliced, so
/// every shard's link scores are bitwise the unsharded engine's. Appends
/// the written paths to *out_paths when non-null.
Status SplitEmbeddingArtifact(const std::string& input_path,
                              const std::string& out_prefix, int num_shards,
                              std::vector<std::string>* out_paths);

/// "plan ok shard=<i>/<count> nodes=<begin>:<end>/<n>
///  attrs=<begin>:<end>/<d> dim=<h> attr_scoring=<0|1> link_scoring=<0|1>"
/// — the response a shard server gives to the `plan` verb, and what the
/// router parses at startup.
std::string FormatPlanResponse(const ShardSpec& spec);

/// Parses a FormatPlanResponse payload; anything else (including an err
/// response) is an InvalidArgument.
Result<ShardSpec> ParsePlanResponse(std::string_view payload);

}  // namespace serve
}  // namespace pane
