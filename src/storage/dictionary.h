#ifndef FLOOD_STORAGE_DICTIONARY_H_
#define FLOOD_STORAGE_DICTIONARY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/column.h"

namespace flood {

/// Order-preserving-insertion dictionary encoder for string attributes
/// (paper §7.1: "any string values are dictionary encoded prior to
/// evaluation"). Codes are dense integers assigned in first-seen order;
/// call Finalize() to re-map codes into lexicographic order so that range
/// predicates over the encoded column are meaningful.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the code for `s`, inserting it if unseen.
  Value Encode(std::string_view s);

  /// Returns the code for `s`, or -1 if it was never inserted.
  Value Lookup(std::string_view s) const;

  /// Returns the string for `code`. Requires a valid code.
  const std::string& Decode(Value code) const;

  /// Re-assigns codes in lexicographic string order and returns the mapping
  /// old_code -> new_code. Apply the mapping to any already-encoded column.
  std::vector<Value> Finalize();

  size_t size() const { return strings_.size(); }
  size_t MemoryUsageBytes() const;

 private:
  std::unordered_map<std::string, Value> code_of_;
  std::vector<std::string> strings_;
};

}  // namespace flood

#endif  // FLOOD_STORAGE_DICTIONARY_H_
