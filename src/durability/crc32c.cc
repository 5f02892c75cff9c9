#include "durability/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define MISTIQUE_CRC32C_X86 1
#endif

namespace mistique {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected.

struct Crc32cTables {
  // table[0] is the classic byte-at-a-time table; tables 1..7 fold the
  // CRC of a zero-extended byte 1..7 positions further along, enabling the
  // slice-by-8 inner loop.
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#ifdef MISTIQUE_CRC32C_X86
/// The SSE4.2 `crc32` instruction implements this same reflected
/// Castagnoli step on the un-inverted state, 8 bytes at a time.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc ^= 0xFFFFFFFFu;
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }
  uint64_t crc64 = crc;
  while (len >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    len -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (len > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }
  return crc ^ 0xFFFFFFFFu;
}
#endif  // MISTIQUE_CRC32C_X86

Crc32cExtendFn PickExtend() {
  if (Crc32cExtendFn hardware = Crc32cHardwareExtend()) return hardware;
  return Crc32cExtendPortable;
}

}  // namespace

Crc32cExtendFn Crc32cHardwareExtend() {
#ifdef MISTIQUE_CRC32C_X86
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return nullptr;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  static const Crc32cExtendFn extend = PickExtend();
  return extend(crc, data, len);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len) {
  const Crc32cTables& tab = Tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc ^= 0xFFFFFFFFu;

  // Align to 8 bytes so the slice loop can read full words.
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = tab.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  while (len >= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = tab.t[7][lo & 0xFFu] ^ tab.t[6][(lo >> 8) & 0xFFu] ^
          tab.t[5][(lo >> 16) & 0xFFu] ^ tab.t[4][lo >> 24] ^
          tab.t[3][hi & 0xFFu] ^ tab.t[2][(hi >> 8) & 0xFFu] ^
          tab.t[1][(hi >> 16) & 0xFFu] ^ tab.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = tab.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace mistique
