// The shard plan: how one embedding artifact's candidate space is cut into
// contiguous row ranges, and the protocol text that lets a router learn a
// shard's ranges at startup (the `plan` verb).
//
// A shard is a row-range view of the one PANECTN1 artifact: shard i scans
// Y rows [attr_begin, attr_end) and the link candidates [node_begin,
// node_end), whose rows of Z = Xb (Y^T Y) it derives from the full Gram
// matrix G = Y^T Y, while the query-side factors (Xf, Xb) stay whole, so
// any shard can form the query vector for any node id. Shard engines scan
// their local slices but offer *global* candidate ids to the selection
// heap, which is what makes the router's MergeTopK output bitwise-identical
// to a single unsharded scan: the (score desc, index asc) order is a strict
// total order over global ids, so the top-k set and its order are unique.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace pane {
namespace serve {

/// One shard's identity inside a plan: which contiguous global candidate
/// ranges it holds, and the global shapes it was cut from — the fields a
/// shard engine and the router's merge need.
struct ShardSpec {
  int64_t shard_index = 0;
  int64_t shard_count = 1;
  int64_t num_nodes = 0;       ///< global n (Xf / Xb rows)
  int64_t num_attributes = 0;  ///< global d (Y rows)
  int64_t dim = 0;             ///< h, the factor width
  int64_t node_begin = 0;      ///< link candidates held: [node_begin, node_end)
  int64_t node_end = 0;
  int64_t attr_begin = 0;      ///< Y rows held: [attr_begin, attr_end)
  int64_t attr_end = 0;
  /// Global capability flags: whether the artifact supports each query
  /// family. A shard whose local slice happens to be empty still reports
  /// the global capability, so its engine answers with an empty ranking
  /// instead of an error the merge cannot absorb.
  bool has_attributes = false;
  bool has_links = false;
};

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
