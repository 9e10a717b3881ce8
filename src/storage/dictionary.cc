#include "storage/dictionary.h"

#include <algorithm>
#include <numeric>

namespace flood {

Value Dictionary::Encode(std::string_view s) {
  auto it = code_of_.find(std::string(s));
  if (it != code_of_.end()) return it->second;
  const Value code = static_cast<Value>(strings_.size());
  strings_.emplace_back(s);
  code_of_.emplace(strings_.back(), code);
  return code;
}

Value Dictionary::Lookup(std::string_view s) const {
  auto it = code_of_.find(std::string(s));
  if (it == code_of_.end()) return -1;
  return it->second;
}

const std::string& Dictionary::Decode(Value code) const {
  FLOOD_CHECK(code >= 0 && static_cast<size_t>(code) < strings_.size());
  return strings_[static_cast<size_t>(code)];
}

std::vector<Value> Dictionary::Finalize() {
  const size_t n = strings_.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return strings_[a] < strings_[b];
  });
  // order[rank] = old code; invert to old -> new.
  std::vector<Value> mapping(n);
  std::vector<std::string> sorted(n);
  for (size_t rank = 0; rank < n; ++rank) {
    mapping[order[rank]] = static_cast<Value>(rank);
    sorted[rank] = std::move(strings_[order[rank]]);
  }
  strings_ = std::move(sorted);
  code_of_.clear();
  for (size_t i = 0; i < n; ++i) {
    code_of_.emplace(strings_[i], static_cast<Value>(i));
  }
  return mapping;
}

size_t Dictionary::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const auto& s : strings_) bytes += s.size() + sizeof(std::string);
  bytes += code_of_.size() * (sizeof(Value) + sizeof(void*) * 2);
  return bytes;
}

}  // namespace flood
