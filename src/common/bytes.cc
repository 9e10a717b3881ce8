#include "common/bytes.h"

#include <array>

namespace flood {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: row 0 is the
/// classic bytewise table, and row k advances a byte's contribution by k
/// further zero bytes, so eight bytes fold into the CRC with eight
/// independent lookups per step.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Tables =
    MakeCrc32Tables();

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrc32Tables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    // The first four bytes are assembled little-endian by hand, so the
    // result does not depend on the host's byte order.
    const uint32_t word = uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                          uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
    const uint32_t lo = c ^ word;
    const uint32_t hi = t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    const uint32_t mid = t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ hi;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ mid;
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace flood
