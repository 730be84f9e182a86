// The unified training interface of the api layer: every algorithm in the
// reproduction (PANE and the baselines of Tables 4-5) is an Embedder that
// validates its typed options up front and trains an AttributedGraph into
// the common NodeEmbedding artifact. Concrete embedders are constructed via
// EmbedderRegistry::Create (src/api/registry.h) from an EmbedderConfig — a
// string-keyed option map bridged from the FlagSet command-line parser.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/api/node_embedding.h"
#include "src/common/status.h"
#include "src/graph/graph.h"

namespace pane {

class FlagSet;

/// \brief String-keyed configuration for an Embedder.
///
/// Values are stored as strings and parsed by the typed getters, which
/// return the supplied default when the key is absent and InvalidArgument
/// when a present value fails to parse. Unknown keys are tolerated: configs
/// are commonly bridged from a FlagSet whose namespace is shared with
/// harness-level flags (--graph, --mode, ...).
class EmbedderConfig {
 public:
  EmbedderConfig() = default;

  static EmbedderConfig FromMap(std::map<std::string, std::string> values);

  /// Bridge from the command-line parser: every registered flag becomes an
  /// entry, rendered to its string form.
  static EmbedderConfig FromFlags(const FlagSet& flags);

  /// Sets one entry (chainable): config.Set("k", "64").Set("alpha", "0.3").
  ///
  /// All write paths (FromMap, FromFlags, Set) normalize dashes in keys to
  /// underscores (--memory-budget-mb => memory_budget_mb) so config
  /// keys have one spelling however the value arrived.
  EmbedderConfig& Set(const std::string& key, std::string value);

  bool Has(const std::string& key) const;

  Result<int64_t> GetInt(const std::string& key, int64_t default_value) const;
  Result<double> GetDouble(const std::string& key,
                           double default_value) const;
  Result<bool> GetBool(const std::string& key, bool default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// \brief Abstract trainer: one name, validated options, one Train() that
/// produces the common artifact.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Registry name of this embedder ("pane", "tadw", ...).
  virtual const char* name() const = 0;

  /// Checks the parsed options; returns InvalidArgument with a descriptive
  /// message instead of training with silently-misbehaving parameters.
  /// EmbedderRegistry::Create calls this, so a successfully created embedder
  /// always carries valid options.
  virtual Status Validate() const = 0;

  /// Trains on the graph and returns the method-agnostic artifact.
  virtual Result<NodeEmbedding> Train(const AttributedGraph& graph) const = 0;
};

}  // namespace pane
