#ifndef FLOOD_COMMON_BYTES_H_
#define FLOOD_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace flood {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes,
/// folded 8 bytes per step (slicing-by-8); the value is the bytewise
/// algorithm's. Chainable: feed the previous result back through `seed`.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Appends little-endian fixed-width primitives to a caller-owned string.
/// The writer never fails; the paired ByteReader carries the error state.
/// This is the raw-page substrate of the persistence layer: Column and
/// Table serialize through it, src/persist frames the result into
/// checksummed sections.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLE(bits);
  }

  void PutBytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

  /// Appends `n` 64-bit integers as PutU64 / PutI64 would; on a
  /// little-endian host that is one copy.
  template <typename T>
  void PutWords(const T* data, size_t n) {
    static_assert(std::is_integral_v<T> && sizeof(T) == 8);
    if constexpr (std::endian::native == std::endian::little) {
      PutBytes(data, n * sizeof(T));
    } else {
      for (size_t i = 0; i < n; ++i) PutLE(static_cast<uint64_t>(data[i]));
    }
  }

  /// Length-prefixed (u32) string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  size_t size() const { return out_->size(); }

 private:
  template <typename T>
  void PutLE(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

/// Bounds-checked little-endian reader over a byte span it does not own.
/// Reads past the end return zero values and latch `ok() == false`; callers
/// validate `ok()` (and sanity-check any count they are about to allocate
/// for) instead of checking every individual read. Truncated or corrupt
/// input can therefore never read out of bounds — it only poisons the
/// reader.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : pos_(static_cast<const uint8_t*>(data)),
        end_(static_cast<const uint8_t*>(data) + size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  /// Latches the failure state (callers flag semantic errors the bounds
  /// checks can't see, e.g. an impossible element count).
  void MarkFailed() { ok_ = false; }

  uint8_t GetU8() {
    if (!Ensure(1)) return 0;
    return *pos_++;
  }
  uint32_t GetU32() { return GetLE<uint32_t>(); }
  uint64_t GetU64() { return GetLE<uint64_t>(); }
  int64_t GetI64() { return static_cast<int64_t>(GetLE<uint64_t>()); }
  double GetF64() {
    const uint64_t bits = GetLE<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Length-prefixed (u32) string; empty on failure.
  std::string GetString() {
    const uint32_t n = GetU32();
    if (!Ensure(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(pos_), n);
    pos_ += n;
    return s;
  }

 private:
  template <typename T>
  T GetLE() {
    if (!Ensure(sizeof(T))) return T{0};
    T v{0};
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(pos_[i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  bool Ensure(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* pos_;
  const uint8_t* end_;
  bool ok_ = true;
};

}  // namespace flood

#endif  // FLOOD_COMMON_BYTES_H_
