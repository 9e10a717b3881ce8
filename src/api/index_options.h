#ifndef FLOOD_API_INDEX_OPTIONS_H_
#define FLOOD_API_INDEX_OPTIONS_H_

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace flood {

/// A generic string-keyed options map for index construction through the
/// IndexRegistry. Factories read the keys they understand and ignore the
/// rest, so one options bag can be handed to any index (e.g. a bench tuning
/// "page_size" across every page-structured baseline).
///
/// Well-known keys (consumed by the built-in factories):
///   page_size, leaf_capacity, fanout, max_depth, max_directory_entries,
///   sort_dim, rmi_leaves,
///   target_cells, layout, flatten_mode ("cdf"|"linear"), use_cell_models,
///   plm_delta, plm_min_cell_size, max_cells, seed, learn_layout,
///   enable_run_merging, enable_exact_ranges.
class IndexOptions {
 public:
  IndexOptions() = default;

  IndexOptions& Set(const std::string& key, std::string value) {
    kv_[key] = std::move(value);
    return *this;
  }
  IndexOptions& SetInt(const std::string& key, int64_t v) {
    return Set(key, std::to_string(v));
  }
  IndexOptions& SetBool(const std::string& key, bool v) {
    return Set(key, v ? "true" : "false");
  }

  bool Has(const std::string& key) const { return kv_.count(key) > 0; }

  std::optional<std::string> Get(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = kv_.find(key);
    if (it == kv_.end() || it->second.empty()) return fallback;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    return (end == nullptr || *end != '\0') ? fallback
                                            : static_cast<int64_t>(v);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = kv_.find(key);
    if (it == kv_.end() || it->second.empty()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    return (end == nullptr || *end != '\0') ? fallback : v;
  }

  bool GetBool(const std::string& key, bool fallback) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    const std::string& s = it->second;
    if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
    if (s == "false" || s == "0" || s == "no" || s == "off") return false;
    return fallback;
  }

  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    keys.reserve(kv_.size());
    for (const auto& [k, v] : kv_) keys.push_back(k);
    return keys;
  }

  bool empty() const { return kv_.empty(); }
  size_t size() const { return kv_.size(); }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace flood

#endif  // FLOOD_API_INDEX_OPTIONS_H_
