#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

namespace bqs {
namespace crc32c {

namespace {

// Slice-by-8 lookup tables, generated at compile time from the reflected
// Castagnoli polynomial. table[0] is the classic byte-at-a-time table;
// table[k][b] is the CRC of byte b followed by k zero bytes, which lets the
// hot loop fold 8 input bytes with 8 independent loads and xors.
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr auto kTables = MakeTables();

bool DetectSse42() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

using ExtendFn = uint32_t (*)(uint32_t, const void*, std::size_t);

ExtendFn SelectExtend() {
#if defined(__x86_64__) || defined(_M_X64)
  if (DetectSse42()) return internal::ExtendSse42;
#endif
  return internal::ExtendPortable;
}

}  // namespace

uint32_t Extend(uint32_t crc, const void* data, std::size_t size) {
  // The CPU is probed once; every later call is one indirect call.
  static const ExtendFn extend = SelectExtend();
  return extend(crc, data, size);
}

namespace internal {

bool HardwareAccelerated() { return DetectSse42(); }

uint32_t ExtendPortable(uint32_t crc, const void* data, std::size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;

  // Head: byte-at-a-time until 8-byte progress is possible.
  while (size != 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = kTables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --size;
  }

  // Body: slice-by-8. The memcpy compiles to one unaligned load; going
  // through it (instead of casting) keeps the read well-defined under
  // UBSan and on strict-alignment targets. The 8-byte fold assumes the
  // load presents p[0] in the low byte, i.e. little-endian; big-endian
  // hosts take the (correct, slower) byte loop below instead.
  while (std::endian::native == std::endian::little && size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= crc;
    crc = kTables[7][chunk & 0xffu] ^
          kTables[6][(chunk >> 8) & 0xffu] ^
          kTables[5][(chunk >> 16) & 0xffu] ^
          kTables[4][(chunk >> 24) & 0xffu] ^
          kTables[3][(chunk >> 32) & 0xffu] ^
          kTables[2][(chunk >> 40) & 0xffu] ^
          kTables[1][(chunk >> 48) & 0xffu] ^
          kTables[0][(chunk >> 56) & 0xffu];
    p += 8;
    size -= 8;
  }

  // Tail.
  while (size != 0) {
    crc = kTables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --size;
  }
  return ~crc;
}

}  // namespace internal
}  // namespace crc32c
}  // namespace bqs
