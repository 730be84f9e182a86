#include "src/serve/shard_plan.h"

#include "src/common/string_util.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace serve {
namespace {

/// Strict non-negative integer parse for the plan-response fields.
bool ParseCount(std::string_view token, int64_t* out) {
  if (token.empty() || token.size() > 18) return false;
  int64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

/// Splits "a<sep>b" into exactly two numeric halves.
bool SplitPair(std::string_view token, char sep, int64_t* a, int64_t* b) {
  const size_t cut = token.find(sep);
  if (cut == std::string_view::npos) return false;
  return ParseCount(token.substr(0, cut), a) &&
         ParseCount(token.substr(cut + 1), b);
}

}  // namespace

ShardPlan MakeShardPlan(int64_t num_nodes, int64_t num_attributes,
                        int num_shards) {
  ShardPlan plan;
  plan.num_nodes = num_nodes;
  plan.num_attributes = num_attributes;
  const std::vector<Range> node_ranges = PartitionRange(num_nodes, num_shards);
  const std::vector<Range> attr_ranges =
      PartitionRange(num_attributes, num_shards);
  plan.shards.resize(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    ShardSpec& spec = plan.shards[static_cast<size_t>(i)];
    spec.shard_index = i;
    spec.shard_count = num_shards;
    spec.num_nodes = num_nodes;
    spec.num_attributes = num_attributes;
    spec.node_begin = node_ranges[static_cast<size_t>(i)].begin;
    spec.node_end = node_ranges[static_cast<size_t>(i)].end;
    spec.attr_begin = attr_ranges[static_cast<size_t>(i)].begin;
    spec.attr_end = attr_ranges[static_cast<size_t>(i)].end;
  }
  return plan;
}

Status ValidateShardSpecs(const std::vector<ShardSpec>& specs,
                          ShardPlan* plan) {
  if (specs.empty()) {
    return Status::InvalidArgument("shard plan needs at least one shard");
  }
  const int64_t count = static_cast<int64_t>(specs.size());
  int64_t node_cursor = 0, attr_cursor = 0;
  for (int64_t i = 0; i < count; ++i) {
    const ShardSpec& s = specs[static_cast<size_t>(i)];
    const std::string who = "shard " + std::to_string(i);
    if (s.shard_index != i || s.shard_count != count) {
      return Status::InvalidArgument(
          who + " reports plan position " + std::to_string(s.shard_index) +
          "/" + std::to_string(s.shard_count) + "; pass backends in plan "
          "order (expected " + std::to_string(i) + "/" +
          std::to_string(count) + ")");
    }
    if (s.num_nodes != specs[0].num_nodes ||
        s.num_attributes != specs[0].num_attributes ||
        s.dim != specs[0].dim) {
      return Status::InvalidArgument(
          who + " disagrees with shard 0 on the global shapes — the "
          "backends were cut from different artifacts");
    }
    if (s.node_begin != node_cursor || s.attr_begin != attr_cursor ||
        s.node_end < s.node_begin || s.attr_end < s.attr_begin) {
      return Status::InvalidArgument(
          who + " ranges do not continue the previous shard's — the plan "
          "must tile the candidate space contiguously");
    }
    node_cursor = s.node_end;
    attr_cursor = s.attr_end;
  }
  if (node_cursor != specs[0].num_nodes ||
      attr_cursor != specs[0].num_attributes) {
    return Status::InvalidArgument(
        "shard ranges stop at " + std::to_string(node_cursor) + "/" +
        std::to_string(attr_cursor) + " but the globals are " +
        std::to_string(specs[0].num_nodes) + "/" +
        std::to_string(specs[0].num_attributes) + " — a shard is missing");
  }
  if (plan != nullptr) {
    plan->num_nodes = specs[0].num_nodes;
    plan->num_attributes = specs[0].num_attributes;
    plan->shards = specs;
  }
  return Status::OK();
}

std::string FormatPlanResponse(const ShardSpec& spec) {
  std::string out = "plan ok shard=";
  out += std::to_string(spec.shard_index);
  out += '/';
  out += std::to_string(spec.shard_count);
  out += " nodes=";
  out += std::to_string(spec.node_begin);
  out += ':';
  out += std::to_string(spec.node_end);
  out += '/';
  out += std::to_string(spec.num_nodes);
  out += " attrs=";
  out += std::to_string(spec.attr_begin);
  out += ':';
  out += std::to_string(spec.attr_end);
  out += '/';
  out += std::to_string(spec.num_attributes);
  out += " dim=";
  out += std::to_string(spec.dim);
  out += " attr_scoring=";
  out += spec.has_attributes ? '1' : '0';
  out += " link_scoring=";
  out += spec.has_links ? '1' : '0';
  return out;
}

Result<ShardSpec> ParsePlanResponse(std::string_view payload) {
  const std::vector<std::string_view> tokens = SplitWhitespace(payload);
  if (tokens.size() != 8 || tokens[0] != "plan" || tokens[1] != "ok") {
    return Status::InvalidArgument("not a plan response: " +
                                   std::string(payload));
  }
  ShardSpec spec;
  const auto field = [&tokens](size_t i, std::string_view key)
      -> Result<std::string_view> {
    const std::string_view token = tokens[i];
    if (token.size() <= key.size() + 1 ||
        token.substr(0, key.size()) != key || token[key.size()] != '=') {
      return Status::InvalidArgument("plan response field " +
                                     std::to_string(i) + " is not " +
                                     std::string(key) + "=...");
    }
    return token.substr(key.size() + 1);
  };
  PANE_ASSIGN_OR_RETURN(std::string_view shard, field(2, "shard"));
  PANE_ASSIGN_OR_RETURN(std::string_view nodes, field(3, "nodes"));
  PANE_ASSIGN_OR_RETURN(std::string_view attrs, field(4, "attrs"));
  PANE_ASSIGN_OR_RETURN(std::string_view dim, field(5, "dim"));
  PANE_ASSIGN_OR_RETURN(std::string_view attr_scoring,
                        field(6, "attr_scoring"));
  PANE_ASSIGN_OR_RETURN(std::string_view link_scoring,
                        field(7, "link_scoring"));

  const auto range = [](std::string_view token, int64_t* begin, int64_t* end,
                        int64_t* total) {
    const size_t slash = token.rfind('/');
    if (slash == std::string_view::npos) return false;
    return SplitPair(token.substr(0, slash), ':', begin, end) &&
           ParseCount(token.substr(slash + 1), total);
  };
  bool ok = SplitPair(shard, '/', &spec.shard_index, &spec.shard_count);
  ok = ok && range(nodes, &spec.node_begin, &spec.node_end, &spec.num_nodes);
  ok = ok &&
       range(attrs, &spec.attr_begin, &spec.attr_end, &spec.num_attributes);
  ok = ok && ParseCount(dim, &spec.dim);
  ok = ok && (attr_scoring == "0" || attr_scoring == "1") &&
       (link_scoring == "0" || link_scoring == "1");
  if (!ok) {
    return Status::InvalidArgument("malformed plan response: " +
                                   std::string(payload));
  }
  spec.has_attributes = attr_scoring == "1";
  spec.has_links = link_scoring == "1";
  if (spec.shard_count <= 0 || spec.shard_index < 0 ||
      spec.shard_index >= spec.shard_count || spec.node_begin < 0 ||
      spec.node_end < spec.node_begin || spec.node_end > spec.num_nodes ||
      spec.attr_begin < 0 || spec.attr_end < spec.attr_begin ||
      spec.attr_end > spec.num_attributes || spec.dim <= 0) {
    return Status::InvalidArgument("inconsistent plan response: " +
                                   std::string(payload));
  }
  return spec;
}

}  // namespace serve
}  // namespace pane
