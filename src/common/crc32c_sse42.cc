// CRC32C on the SSE4.2 crc32 instruction. This translation unit is
// compiled with -msse4.2 (see CMakeLists.txt) and reached only through
// crc32c::Extend after the CPU has reported SSE4.2, the same containment
// as the SIMD kernel tiers (repo_lint's intrinsics allowlist).

#if defined(__x86_64__) || defined(_M_X64)

#include <nmmintrin.h>

#include <cstdint>
#include <cstring>

#include "common/crc32c.h"

namespace bqs {
namespace crc32c {
namespace internal {

uint32_t ExtendSse42(uint32_t crc, const void* data, std::size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  // The instruction folds the reflected Castagnoli polynomial with the
  // same bit order as the slice-by-8 tables, so the pre- and
  // post-inversion are the same too.
  uint32_t c = ~crc;
  while (size != 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --size;
  }
  uint64_t c64 = c;
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c64 = _mm_crc32_u64(c64, chunk);
    p += 8;
    size -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (size != 0) {
    c = _mm_crc32_u8(c, *p++);
    --size;
  }
  return ~c;
}

}  // namespace internal
}  // namespace crc32c
}  // namespace bqs

#endif  // x86-64
