// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the WAL stamps on every record and segment header. CRC32C is
// the storage-industry choice (iSCSI, ext4, RocksDB/LevelDB logs) because
// its error-detection properties are proven for exactly this job: catching
// torn writes and bit rot in length-prefixed log records.
//
// Extend runs on the SSE4.2 crc32 instruction when the CPU reports it
// (crc32c_sse42.cc, ~0.16 ns/B measured on an AVX2 x86-64 VM) and on the
// portable slice-by-8 tables otherwise (~0.85 ns/B there), the only path
// on hosts without it. Both compute the same function, so stored CRCs
// and the on-disk format do not depend on the host; crc32c_test holds
// them equal at every alignment and length up to 4 KiB. Every WAL
// append, compaction run, BlockStore::Open and recovery checksums its
// bytes through here.
//
// Like LevelDB/RocksDB, stored CRCs are *masked* (rotate + constant) so a
// log that embeds CRC-protected payloads never stores the CRC of data that
// itself starts with a CRC — a degenerate case where corruption of both
// goes undetected.
#ifndef BQS_COMMON_CRC32C_H_
#define BQS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bqs {
namespace crc32c {

/// Extends `crc` (the running checksum of bytes seen so far, 0 for the
/// first chunk) with `size` bytes at `data`.
uint32_t Extend(uint32_t crc, const void* data, std::size_t size);

/// CRC32C of one contiguous buffer.
inline uint32_t Value(const void* data, std::size_t size) {
  return Extend(0, data, size);
}

/// LevelDB-style masking for CRCs stored next to the bytes they cover.
inline constexpr uint32_t kMaskDelta = 0xa282ead8u;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

namespace internal {

/// The slice-by-8 table path Extend takes on hosts without SSE4.2.
uint32_t ExtendPortable(uint32_t crc, const void* data, std::size_t size);

/// True when Extend runs on the SSE4.2 crc32 instruction.
bool HardwareAccelerated();

#if defined(__x86_64__) || defined(_M_X64)
/// The crc32-instruction path; call only when HardwareAccelerated().
uint32_t ExtendSse42(uint32_t crc, const void* data, std::size_t size);
#endif

}  // namespace internal

}  // namespace crc32c
}  // namespace bqs

#endif  // BQS_COMMON_CRC32C_H_
