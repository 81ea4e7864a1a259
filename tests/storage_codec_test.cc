// The shared storage codec (storage/codec.h): the file header every WAL
// segment, block file and MANIFEST starts with, the length + CRC32C frame
// around every record/block/entry, and the point-column coder inside WAL
// records and blocks. Each must reject every damaged input it can be
// handed and round-trip every int64 pattern.
#include "storage/codec.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "storage/block_format.h"
#include "storage/manifest.h"
#include "storage/wal_format.h"

namespace bqs {
namespace {

constexpr uint32_t kMagics[] = {wal::kWalMagic, blk::kBlockMagic,
                                manifestfmt::kManifestMagic};

std::span<const uint8_t> AsSpan(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

codec::FileHeader SampleHeader() {
  codec::FileHeader header;
  header.quant.time_quantum = 0.25;
  header.quant.coord_quantum = 0.125;
  header.seq = 0x0123456789abcdefULL;
  header.count = 9;
  return header;
}

/// Overwrites the `width`-byte little-endian field at `at` with `v` and
/// re-stamps the header CRC, so only the field's own validation can reject
/// the result.
std::string WithField(std::string bytes, std::size_t at, uint64_t v,
                      std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  const uint32_t crc =
      crc32c::Mask(crc32c::Value(bytes.data(), codec::kFileHeaderBytes - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[codec::kFileHeaderBytes - 4 + i] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(FileHeaderTest, RoundTripsUnderEveryMagic) {
  for (const uint32_t magic : kMagics) {
    std::string bytes;
    codec::EncodeFileHeader(magic, SampleHeader(), &bytes);
    ASSERT_EQ(bytes.size(), codec::kFileHeaderBytes);
    codec::FileHeader decoded;
    ASSERT_TRUE(codec::DecodeFileHeader(AsSpan(bytes), magic, &decoded));
    EXPECT_EQ(decoded, SampleHeader());
  }
}

TEST(FileHeaderTest, EveryTruncationAndByteFlipRejects) {
  for (const uint32_t magic : kMagics) {
    std::string bytes;
    codec::EncodeFileHeader(magic, SampleHeader(), &bytes);
    codec::FileHeader decoded;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(
          codec::DecodeFileHeader(AsSpan(bytes).first(cut), magic, &decoded))
          << "magic " << magic << " cut " << cut;
    }
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
        EXPECT_FALSE(codec::DecodeFileHeader(AsSpan(corrupt), magic, &decoded))
            << "magic " << magic << " flip at byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(FileHeaderTest, ForeignMagicRejects) {
  for (const uint32_t written : kMagics) {
    std::string bytes;
    codec::EncodeFileHeader(written, SampleHeader(), &bytes);
    for (const uint32_t expected : kMagics) {
      codec::FileHeader decoded;
      EXPECT_EQ(codec::DecodeFileHeader(AsSpan(bytes), expected, &decoded),
                written == expected)
          << "written " << written << " expected " << expected;
    }
  }
}

TEST(FileHeaderTest, OtherVersionsFlagsAndBadQuantaReject) {
  for (const uint32_t magic : kMagics) {
    std::string bytes;
    codec::EncodeFileHeader(magic, SampleHeader(), &bytes);
    codec::FileHeader decoded;
    // The CRC-restamped original still decodes: the rejections below are
    // the field checks, not the checksum.
    ASSERT_TRUE(codec::DecodeFileHeader(
        AsSpan(WithField(bytes, 4, codec::kFormatVersion, 2)), magic,
        &decoded));
    for (const uint64_t version : {0u, 1u, 3u, 0xffffu}) {
      EXPECT_FALSE(codec::DecodeFileHeader(
          AsSpan(WithField(bytes, 4, version, 2)), magic, &decoded))
          << "version " << version;
    }
    EXPECT_FALSE(codec::DecodeFileHeader(AsSpan(WithField(bytes, 6, 1, 2)),
                                         magic, &decoded))
        << "nonzero flags";
    for (const double q : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
      const uint64_t bits = std::bit_cast<uint64_t>(q);
      for (const std::size_t at : {std::size_t{8}, std::size_t{16}}) {
        EXPECT_FALSE(codec::DecodeFileHeader(
            AsSpan(WithField(bytes, at, bits, 8)), magic, &decoded))
            << "quantum " << q << " at " << at;
      }
    }
  }
}

TEST(FrameTest, ParseReturnsEachOutcome) {
  const std::string payload = "columns and a little more";
  std::string framed;
  ASSERT_TRUE(codec::AppendFrame(payload, 64, &framed));
  ASSERT_EQ(framed.size(), codec::kFrameHeaderBytes + payload.size());

  // kOk, with trailing bytes after the frame left alone.
  std::string stream = framed + "next";
  codec::Frame frame = codec::ParseFrame(AsSpan(stream), 64);
  ASSERT_EQ(frame.status, codec::FrameStatus::kOk);
  EXPECT_EQ(frame.size, framed.size());
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()), payload);

  // kShortHeader: fewer than 8 bytes, at every such length.
  for (std::size_t cut = 0; cut < codec::kFrameHeaderBytes; ++cut) {
    frame = codec::ParseFrame(AsSpan(framed).first(cut), 64);
    EXPECT_EQ(frame.status, codec::FrameStatus::kShortHeader) << cut;
    EXPECT_EQ(frame.size, 0u);
  }

  // kBadLength: the payload runs past the input, or past the limit.
  for (std::size_t cut = codec::kFrameHeaderBytes; cut < framed.size();
       ++cut) {
    frame = codec::ParseFrame(AsSpan(framed).first(cut), 64);
    EXPECT_EQ(frame.status, codec::FrameStatus::kBadLength) << cut;
    EXPECT_EQ(frame.size, 0u);
  }
  frame = codec::ParseFrame(AsSpan(framed), payload.size() - 1);
  EXPECT_EQ(frame.status, codec::FrameStatus::kBadLength);

  // kBadCrc: any flip in the CRC or the payload; the size still lets a
  // reader skip the frame.
  for (std::size_t i = 4; i < framed.size(); ++i) {
    std::string corrupt = framed;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    frame = codec::ParseFrame(AsSpan(corrupt), 64);
    EXPECT_EQ(frame.status, codec::FrameStatus::kBadCrc) << "flip at " << i;
    EXPECT_EQ(frame.size, framed.size());
    EXPECT_TRUE(frame.payload.empty());
  }
}

TEST(FrameTest, AppendRefusesPayloadsOverTheLimit) {
  const std::string payload(100, 'x');
  std::string out = "keep";
  EXPECT_FALSE(codec::AppendFrame(payload, payload.size() - 1, &out));
  EXPECT_EQ(out, "keep");
  EXPECT_TRUE(codec::AppendFrame(payload, payload.size(), &out));
  EXPECT_EQ(out.size(), 4 + codec::kFrameHeaderBytes + payload.size());
  EXPECT_TRUE(codec::AppendFrame("", 0, &out));  // an empty payload frames
}

/// Extremes and wrap-adjacent values, with indices wrapping through
/// UINT64_MAX: the column deltas overflow in signed arithmetic.
wal::WalCheckpoint HostileCheckpoint() {
  wal::WalCheckpoint cp;
  cp.device = UINT64_MAX;
  cp.seq = 5;
  const int64_t values[] = {INT64_MIN, INT64_MAX,     0,
                            -1,        1,             INT64_MIN + 1,
                            INT64_MAX - 1};
  uint64_t index = UINT64_MAX - 3;
  for (const int64_t v : values) {
    const int64_t negated = v == INT64_MIN ? v : -v;
    cp.points.push_back(wal::WalPoint{index++, v, negated, v});
  }
  cp.points.push_back(wal::WalPoint{0, INT64_MIN, INT64_MAX, -1});
  return cp;
}

TEST(PointColumnsTest, HostileInt64ColumnsRoundTripAndTruncationsReject) {
  const wal::WalCheckpoint cp = HostileCheckpoint();
  std::string bytes;
  codec::PutPointColumns(cp.points, &bytes);

  std::vector<wal::WalPoint> decoded(cp.points.size());
  const uint8_t* pos = AsSpan(bytes).data();
  const uint8_t* const end = pos + bytes.size();
  ASSERT_TRUE(codec::GetPointColumns(&pos, end, decoded));
  EXPECT_EQ(pos, end);
  EXPECT_EQ(decoded, cp.points);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const uint8_t* p = AsSpan(bytes).data();
    EXPECT_FALSE(codec::GetPointColumns(&p, p + cut, decoded)) << cut;
  }
}

TEST(PointColumnsTest, HostileCheckpointRoundTripsThroughWalAndBlock) {
  const wal::WalCheckpoint cp = HostileCheckpoint();

  std::string record;
  ASSERT_TRUE(wal::EncodeRecord(cp, &record));
  const codec::Frame record_frame =
      codec::ParseFrame(AsSpan(record), wal::kMaxRecordPayload);
  ASSERT_EQ(record_frame.status, codec::FrameStatus::kOk);
  wal::WalCheckpoint from_wal;
  ASSERT_TRUE(wal::DecodeRecordPayload(record_frame.payload, &from_wal));
  EXPECT_EQ(from_wal, cp);

  const std::vector<wal::WalCheckpoint> run = {cp};
  std::string block;
  blk::BlockMeta encoded_meta;
  ASSERT_TRUE(blk::EncodeBlock(run, &block, &encoded_meta));
  const codec::Frame block_frame =
      codec::ParseFrame(AsSpan(block), blk::kMaxBlockPayload);
  ASSERT_EQ(block_frame.status, codec::FrameStatus::kOk);
  blk::BlockMeta meta;
  std::vector<wal::WalCheckpoint> from_block;
  ASSERT_TRUE(blk::DecodeBlockPayload(block_frame.payload, &meta, &from_block));
  EXPECT_EQ(meta, encoded_meta);
  EXPECT_EQ(from_block, run);
}

TEST(WalRecordSizeTest, ColumnOrderCostsNoBytes) {
  // Record sizes of the version-1 interleaved coder for the same two
  // checkpoints: the column order re-arranges the same varints.
  wal::WalCheckpoint cp;
  cp.device = 1234;
  cp.seq = 987654;
  uint64_t index = 40000;
  int64_t qt = 1700000000000, qx = 512345678, qy = -98765432;
  for (int i = 0; i < 16; ++i) {
    index += 3 + static_cast<uint64_t>(i % 5);
    qt += 1000 + 250 * (i % 3);
    qx += (i % 2 == 0) ? 13750 : -4125;
    qy += 9000 - 1500 * i;
    cp.points.push_back(wal::WalPoint{index, qt, qx, qy});
  }
  std::string typical;
  ASSERT_TRUE(wal::EncodeRecord(cp, &typical));
  EXPECT_EQ(typical.size(), 147u);

  wal::WalCheckpoint hostile;
  hostile.device = UINT64_MAX;
  hostile.seq = 5;
  hostile.points.push_back(wal::WalPoint{0, INT64_MIN, INT64_MAX, -1});
  hostile.points.push_back(wal::WalPoint{UINT64_MAX, INT64_MAX, INT64_MIN, 1});
  hostile.points.push_back(wal::WalPoint{3, 0, 0, 0});
  std::string extreme;
  ASSERT_TRUE(wal::EncodeRecord(hostile, &extreme));
  EXPECT_EQ(extreme.size(), 68u);
}

}  // namespace
}  // namespace bqs
