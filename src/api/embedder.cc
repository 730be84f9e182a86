#include "src/api/embedder.h"

#include <algorithm>
#include <utility>

#include "src/common/flags.h"
#include "src/common/string_util.h"

namespace pane {
namespace {

// Dashed spellings (--memory-budget-mb) are normalized to the underscore
// spelling every config key uses, on every write path (FromMap, FromFlags,
// Set — including the CLI's --opt merge), so embedders read one key
// regardless of how the value arrived.
std::string NormalizeKey(std::string key) {
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

}  // namespace

EmbedderConfig EmbedderConfig::FromMap(
    std::map<std::string, std::string> values) {
  EmbedderConfig config;
  for (auto& [key, value] : values) {
    config.values_[NormalizeKey(key)] = std::move(value);
  }
  return config;
}

EmbedderConfig EmbedderConfig::FromFlags(const FlagSet& flags) {
  return FromMap(flags.ValueMap());
}

EmbedderConfig& EmbedderConfig::Set(const std::string& key,
                                    std::string value) {
  values_[NormalizeKey(key)] = std::move(value);
  return *this;
}

bool EmbedderConfig::Has(const std::string& key) const {
  return values_.count(key) != 0;
}

Result<int64_t> EmbedderConfig::GetInt(const std::string& key,
                                       int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  auto parsed = ParseInt64(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("config key '" + key +
                                   "': not an integer: " + it->second);
  }
  return *parsed;
}

Result<double> EmbedderConfig::GetDouble(const std::string& key,
                                         double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("config key '" + key +
                                   "': not a number: " + it->second);
  }
  return *parsed;
}

Result<bool> EmbedderConfig::GetBool(const std::string& key,
                                     bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string v = ToLower(it->second);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return Status::InvalidArgument("config key '" + key +
                                 "': not a bool: " + it->second);
}

std::string EmbedderConfig::GetString(const std::string& key,
                                      const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

}  // namespace pane
