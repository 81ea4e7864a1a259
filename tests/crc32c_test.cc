// CRC32C: known-answer vectors, incremental Extend equivalence, and the
// LevelDB-style masking the WAL stores its checksums under.
#include "common/crc32c.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bqs {
namespace {

TEST(Crc32cTest, KnownAnswerVectors) {
  // The canonical CRC32C check value (RFC 3720 / every published table).
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  // Empty input.
  EXPECT_EQ(crc32c::Value("", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  uint8_t zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8A9136AAu);
  // 32 0xFF bytes (iSCSI test vector).
  uint8_t ones[32];
  std::memset(ones, 0xff, sizeof(ones));
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62A8AB43u);
  // 0x00..0x1F ascending (iSCSI test vector).
  uint8_t ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc32c::Value(ascending, sizeof(ascending)), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendMatchesOneShotAtEverySplit) {
  // Chunked computation must equal the one-shot value no matter where the
  // buffer is split — the WAL extends the length-prefix CRC with the
  // payload, so the boundary crosses the slice-by-8 alignment paths.
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = crc32c::Value(data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, HardwarePathMatchesThePortableTables) {
  // Extend takes the SSE4.2 crc32 instruction when the CPU has it; its
  // values must be the slice-by-8 tables' at every start alignment and
  // every length up to 4 KiB (head, 8-byte body and tail all vary), and
  // when extending a running CRC. Without SSE4.2 both sides are the
  // tables and the test is a tautology.
  if (!crc32c::internal::HardwareAccelerated()) {
    GTEST_LOG_(INFO) << "no SSE4.2: Extend is the portable path";
  }
  std::mt19937_64 rng(20260);
  std::vector<uint8_t> buf(4096 + 8 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32c::Value(p, len),
                crc32c::internal::ExtendPortable(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t offset = rng() % 8;
    const std::size_t len = rng() % 4097;
    const uint32_t seed = static_cast<uint32_t>(rng());
    for (std::size_t i = 0; i < len; ++i) {
      buf[offset + i] = static_cast<uint8_t>(rng());
    }
    const uint8_t* p = buf.data() + offset;
    ASSERT_EQ(crc32c::Extend(seed, p, len),
              crc32c::internal::ExtendPortable(seed, p, len))
        << "trial " << trial;
  }
}

TEST(Crc32cTest, MaskUnmaskRoundTripsAndChangesValue) {
  const uint32_t samples[] = {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xa282ead8u};
  for (const uint32_t crc : samples) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    // The point of masking: a stored CRC never equals the raw CRC.
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "key-point wal record payload";
  const uint32_t good = crc32c::Value(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32c::Value(data.data(), data.size()), good)
          << "flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

}  // namespace
}  // namespace bqs
