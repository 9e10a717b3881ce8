#ifndef FLOOD_COMMON_COUNTER_FIELDS_H_
#define FLOOD_COMMON_COUNTER_FIELDS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace flood {

/// One named member of a counter struct. Each counter struct has one field
/// list, a constexpr std::tuple of these beside the struct; its snapshot,
/// sums and Introspect() keys walk the list, so each count is named once.
template <typename S, typename M>
struct Field {
  const char* name;
  M S::*member;
};

/// Calls `fn(field)` for each Field of `fields`, in order.
template <typename Fields, typename Fn>
constexpr void ForEachField(const Fields& fields, Fn&& fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); }, fields);
}

/// Appends one Introspect()-style entry ("<prefix><name>", value) per
/// listed field of `s`.
template <typename S, typename Fields>
void AppendFieldEntries(const Fields& fields, const S& s, const char* prefix,
                        std::vector<std::pair<std::string, double>>* out) {
  ForEachField(fields, [&](const auto& f) {
    out->emplace_back(std::string(prefix) + f.name,
                      static_cast<double>(s.*f.member));
  });
}

// Counters shared across threads stay plain uint64_t fields; every access
// goes through these relaxed std::atomic_ref helpers (a count orders
// nothing).
static_assert(std::atomic_ref<uint64_t>::required_alignment ==
              alignof(uint64_t));

/// Adds `n` to a shared counter and returns the new value.
inline uint64_t CounterAdd(uint64_t& counter, uint64_t n = 1) {
  return std::atomic_ref(counter).fetch_add(n, std::memory_order_relaxed) + n;
}

inline void CounterDecrement(uint64_t& counter) {
  std::atomic_ref(counter).fetch_sub(1, std::memory_order_relaxed);
}

inline uint64_t CounterLoad(uint64_t& counter) {
  return std::atomic_ref(counter).load(std::memory_order_relaxed);
}

/// Copies each listed field of the shared `live` struct into `*out`.
template <typename S, typename Fields>
void LoadCounters(const Fields& fields, S& live, S* out) {
  ForEachField(fields, [&](const auto& f) {
    out->*f.member = CounterLoad(live.*f.member);
  });
}

}  // namespace flood

#endif  // FLOOD_COMMON_COUNTER_FIELDS_H_
