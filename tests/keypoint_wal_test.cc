// KeyPointWal: append/recover round trips across every durability policy,
// segment rotation, the corruption matrix (RecoverSegment on crafted
// images), deterministic fault injection (torn write, failed fsync, crash
// after write), and the fleet-engine checkpoint integration ending in
// TrajectoryStore::RestoreFromWal.
#include "storage/keypoint_wal.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "service/fleet_engine.h"
#include "simulation/datasets.h"
#include "storage/codec.h"
#include "storage/trajectory_store.h"
#include "storage/wal_format.h"

namespace bqs {
namespace {

/// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<KeyPoint> MakeKeys(uint64_t start_index, int n, double base) {
  std::vector<KeyPoint> keys;
  for (int i = 0; i < n; ++i) {
    KeyPoint k;
    k.index = start_index + static_cast<uint64_t>(i) * 7;
    k.point.t = base + i * 4.25;
    k.point.pos = {base * 2.0 + i * 12.5, -base + i * 3.125};
    keys.push_back(k);
  }
  return keys;
}

wal::WalCheckpoint Quantized(DeviceId device, uint64_t seq,
                             const std::vector<KeyPoint>& keys,
                             const wal::WalQuantization& quant) {
  wal::WalCheckpoint cp;
  cp.device = device;
  cp.seq = seq;
  for (const KeyPoint& k : keys) cp.points.push_back(wal::Quantize(k, quant));
  return cp;
}

TEST(KeyPointWalTest, RoundTripAcrossDurabilityPolicies) {
  int variant = 0;
  for (const WalDurability policy :
       {WalDurability::kNone, WalDurability::kFlushEveryBatch,
        WalDurability::kFsyncEveryBatch, WalDurability::kGroupCommit}) {
    KeyPointWalOptions options;
    options.dir = FreshDir("wal_rt_" + std::to_string(variant++));
    options.durability = policy;
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open().ok());

    std::vector<wal::WalCheckpoint> expected;
    for (int c = 0; c < 5; ++c) {
      const DeviceId device = 10 + static_cast<DeviceId>(c % 3);
      const std::vector<KeyPoint> keys =
          MakeKeys(static_cast<uint64_t>(c) * 100, 4, c * 50.0);
      const auto ack = wal.Append(device, keys);
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      EXPECT_EQ(ack.value().seq, static_cast<uint64_t>(c) + 1);
      EXPECT_EQ(ack.value().segment_index, 1u);
      expected.push_back(Quantized(device, static_cast<uint64_t>(c) + 1,
                                   keys, options.quant));
    }
    EXPECT_EQ(wal.next_seq(), 6u);
    ASSERT_TRUE(wal.Close().ok());

    const auto recovered = WalReader::Recover(options.dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered.value().report.clean());
    EXPECT_EQ(recovered.value().report.records_recovered, 5u);
    EXPECT_EQ(recovered.value().checkpoints, expected);
    EXPECT_EQ(recovered.value().next_seq, 6u);
    EXPECT_EQ(recovered.value().quant, options.quant);

    const KeyPointWalStats stats = wal.stats();
    EXPECT_EQ(stats.checkpoints_appended, 5u);
    EXPECT_EQ(stats.points_appended, 20u);
    EXPECT_EQ(stats.segments_opened, 1u);
  }
}

TEST(KeyPointWalTest, AppendCheckpointIsBitExactForHostileValues) {
  // Adversarial quantized values (the raw int64 patterns the round-trip
  // fuzzer feeds) must survive delta coding bit-exactly.
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_bitexact");
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());

  wal::WalCheckpoint cp;
  cp.device = UINT64_MAX;
  cp.points.push_back(wal::WalPoint{0, INT64_MIN, INT64_MAX, -1});
  cp.points.push_back(wal::WalPoint{UINT64_MAX, INT64_MAX, INT64_MIN, 1});
  cp.points.push_back(wal::WalPoint{3, 0, 0, 0});
  const auto ack = wal.AppendCheckpoint(cp);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(wal.Close().ok());

  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().checkpoints.size(), 1u);
  EXPECT_EQ(recovered.value().checkpoints[0].device, cp.device);
  EXPECT_EQ(recovered.value().checkpoints[0].points, cp.points);
  // seq is writer-assigned regardless of what the checkpoint carried.
  EXPECT_EQ(recovered.value().checkpoints[0].seq, 1u);
}

TEST(KeyPointWalTest, RotationSpansSegmentsAndRecoveryReplaysAll) {
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_rotate");
  options.segment_bytes = 64;  // essentially one record per segment
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());

  std::vector<wal::WalCheckpoint> expected;
  uint64_t last_segment = 0;
  for (int c = 0; c < 12; ++c) {
    const std::vector<KeyPoint> keys =
        MakeKeys(static_cast<uint64_t>(c) * 10, 3, c * 25.0);
    const auto ack = wal.Append(5, keys);
    ASSERT_TRUE(ack.ok());
    EXPECT_GE(ack.value().segment_index, last_segment);
    last_segment = ack.value().segment_index;
    expected.push_back(
        Quantized(5, static_cast<uint64_t>(c) + 1, keys, options.quant));
  }
  ASSERT_TRUE(wal.Close().ok());
  EXPECT_GT(last_segment, 1u) << "segment_bytes=64 must force rotation";

  const auto files = ListWalSegments(options.dir);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value().size(), wal.stats().segments_opened);
  EXPECT_EQ(files.value().back().index, last_segment);

  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().report.clean());
  EXPECT_EQ(recovered.value().checkpoints, expected);
  EXPECT_EQ(recovered.value().next_seq, 13u);
}

TEST(KeyPointWalTest, ReopenAfterRecoveryContinuesTheSequence) {
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_reopen");

  std::vector<wal::WalCheckpoint> expected;
  {
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    for (int c = 0; c < 3; ++c) {
      const std::vector<KeyPoint> keys = MakeKeys(0, 2, c * 10.0);
      ASSERT_TRUE(wal.Append(1, keys).ok());
      expected.push_back(
          Quantized(1, static_cast<uint64_t>(c) + 1, keys, options.quant));
    }
    ASSERT_TRUE(wal.Close().ok());
  }

  const auto first = WalReader::Recover(options.dir);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().next_seq, 4u);

  {
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open(first.value().next_seq).ok());
    EXPECT_EQ(wal.next_seq(), 4u);
    for (int c = 0; c < 2; ++c) {
      const std::vector<KeyPoint> keys = MakeKeys(100, 2, 50.0 + c);
      const auto ack = wal.Append(1, keys);
      ASSERT_TRUE(ack.ok());
      // The reopened writer starts a fresh segment past the old one.
      EXPECT_EQ(ack.value().segment_index, 2u);
      expected.push_back(
          Quantized(1, static_cast<uint64_t>(c) + 4, keys, options.quant));
    }
    ASSERT_TRUE(wal.Close().ok());
  }

  const auto second = WalReader::Recover(options.dir);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().report.clean());
  EXPECT_EQ(second.value().checkpoints, expected);
  EXPECT_EQ(second.value().next_seq, 6u);
}

TEST(KeyPointWalTest, OpenAndAppendValidation) {
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_validate");
  KeyPointWal wal(options);

  // Append before Open.
  const std::vector<KeyPoint> keys = MakeKeys(0, 2, 1.0);
  EXPECT_FALSE(wal.Append(1, keys).ok());

  ASSERT_TRUE(wal.Open().ok());
  // Double open.
  EXPECT_FALSE(wal.Open().ok());
  // Empty checkpoint.
  const auto empty = wal.Append(1, {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  // A checkpoint whose record payload would exceed kMaxRecordPayload:
  // recovery would take its length for framing loss, so it must be
  // refused up front, with nothing written.
  wal::WalCheckpoint oversized;
  oversized.device = 1;
  oversized.points.resize(std::size_t{1} << 20);
  for (std::size_t i = 0; i < oversized.points.size(); ++i) {
    // Every delta is a huge-magnitude int64: ~10 varint bytes per value.
    const uint64_t h = i * 0x9e3779b97f4a7c15ULL;
    oversized.points[i] = wal::WalPoint{h, static_cast<int64_t>(h),
                                        static_cast<int64_t>(~h),
                                        static_cast<int64_t>(h * 3)};
  }
  const uint64_t bytes_before = wal.stats().bytes_appended;
  const auto too_big = wal.AppendCheckpoint(oversized);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wal.stats().bytes_appended, bytes_before);
  // The rejections left the writer alive.
  EXPECT_FALSE(wal.dead());
  EXPECT_TRUE(wal.Append(1, keys).ok());
  EXPECT_TRUE(wal.Close().ok());
  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().report.clean());
  EXPECT_EQ(recovered.value().checkpoints.size(), 1u);

  // Empty directory option.
  KeyPointWal no_dir((KeyPointWalOptions()));
  EXPECT_FALSE(no_dir.Open().ok());
}

TEST(KeyPointWalTest, RecoverOnMissingDirectoryIsNotFound) {
  const auto recovered =
      WalReader::Recover(FreshDir("wal_never_created") + "/nope");
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(KeyPointWalTest, EmptyLogRecoversClean) {
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_empty");
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Close().ok());
  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().report.clean());
  EXPECT_TRUE(recovered.value().checkpoints.empty());
  EXPECT_EQ(recovered.value().report.segments_scanned, 1u);
}

// --- corruption matrix, driven through RecoverSegment on crafted images ---

wal::WalCheckpoint TestCheckpoint(uint64_t seq, int npoints) {
  wal::WalCheckpoint cp;
  cp.device = 7;
  cp.seq = seq;
  for (int i = 0; i < npoints; ++i) {
    cp.points.push_back(wal::WalPoint{
        seq * 100 + static_cast<uint64_t>(i),
        static_cast<int64_t>(seq) * 1000 + i * 40,
        static_cast<int64_t>(i) * 125 - 300,
        -static_cast<int64_t>(seq) * 50 + i});
  }
  return cp;
}

/// A well-formed segment image plus the end offset of each record.
struct Image {
  std::string bytes;
  std::vector<std::size_t> record_ends;
  std::vector<wal::WalCheckpoint> checkpoints;
};

Image BuildImage(int records) {
  Image image;
  codec::EncodeFileHeader(wal::kWalMagic, {wal::WalQuantization{}, 1, 0},
                          &image.bytes);
  for (int r = 0; r < records; ++r) {
    image.checkpoints.push_back(
        TestCheckpoint(static_cast<uint64_t>(r) + 1, 3));
    EXPECT_TRUE(wal::EncodeRecord(image.checkpoints.back(), &image.bytes));
    image.record_ends.push_back(image.bytes.size());
  }
  return image;
}

std::span<const uint8_t> AsSpan(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(WalRecoverSegmentTest, CleanImageReplaysEverything) {
  const Image image = BuildImage(4);
  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment(AsSpan(image.bytes), /*is_last=*/true, &out,
                            &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(out, image.checkpoints);
}

TEST(WalRecoverSegmentTest, FlippedByteInClosedSegmentSkipsOneRecord) {
  Image image = BuildImage(3);
  // Flip a payload byte of the middle record.
  const std::size_t victim = image.record_ends[0] + wal::kRecordHeaderBytes + 2;
  image.bytes[victim] = static_cast<char>(image.bytes[victim] ^ 0x40);

  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment(AsSpan(image.bytes), /*is_last=*/false, &out,
                            &report);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], image.checkpoints[0]);
  EXPECT_EQ(out[1], image.checkpoints[2]);  // replay resumed past the skip
  EXPECT_EQ(report.bad_crc, 1u);
  EXPECT_EQ(report.torn_tail, 0u);
  EXPECT_EQ(report.bytes_dropped,
            image.record_ends[1] - image.record_ends[0]);
}

TEST(WalRecoverSegmentTest, FlippedByteInLastSegmentTruncates) {
  Image image = BuildImage(3);
  const std::size_t victim = image.record_ends[0] + wal::kRecordHeaderBytes + 2;
  image.bytes[victim] = static_cast<char>(image.bytes[victim] ^ 0x40);

  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment(AsSpan(image.bytes), /*is_last=*/true, &out,
                            &report);
  // Torn and flipped are indistinguishable in the live segment: truncate.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], image.checkpoints[0]);
  EXPECT_EQ(report.torn_tail, 1u);
  EXPECT_EQ(report.bad_crc, 0u);
  EXPECT_EQ(report.bytes_dropped,
            image.bytes.size() - image.record_ends[0]);
}

TEST(WalRecoverSegmentTest, ImplausibleLengthDropsTheRestInAnySegment) {
  for (const bool is_last : {false, true}) {
    for (const uint32_t bad_len :
         {UINT32_MAX, static_cast<uint32_t>(wal::kMaxRecordPayload + 1),
          static_cast<uint32_t>(1 << 20)}) {  // overruns but "plausible"
      Image image = BuildImage(3);
      // Overwrite the second record's length field.
      const std::size_t at = image.record_ends[0];
      for (int i = 0; i < 4; ++i) {
        image.bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((bad_len >> (8 * i)) & 0xff);
      }
      std::vector<wal::WalCheckpoint> out;
      WalRecoveryReport report;
      WalReader::RecoverSegment(AsSpan(image.bytes), is_last, &out, &report);
      ASSERT_EQ(out.size(), 1u) << "is_last=" << is_last;
      EXPECT_EQ(report.torn_tail, 1u);
      EXPECT_EQ(report.bytes_dropped,
                image.bytes.size() - image.record_ends[0]);
    }
  }
}

TEST(WalRecoverSegmentTest, PartialRecordHeaderAtTail) {
  Image image = BuildImage(2);
  image.bytes.resize(image.record_ends[1] + 5);  // 5 stray tail bytes

  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment(AsSpan(image.bytes), /*is_last=*/true, &out,
                            &report);
  EXPECT_EQ(out, image.checkpoints);
  EXPECT_EQ(report.short_header, 1u);
  EXPECT_EQ(report.bytes_dropped, 5u);
}

TEST(WalRecoverSegmentTest, GarbledHeaderDropsTheSegment) {
  for (const std::size_t victim : {std::size_t{0},     // magic
                                   std::size_t{4},     // version
                                   std::size_t{12},    // time quantum
                                   std::size_t{39}}) { // header CRC
    Image image = BuildImage(2);
    image.bytes[victim] = static_cast<char>(image.bytes[victim] ^ 0x01);
    std::vector<wal::WalCheckpoint> out;
    WalRecoveryReport report;
    WalReader::RecoverSegment(AsSpan(image.bytes), /*is_last=*/true, &out,
                              &report);
    EXPECT_TRUE(out.empty()) << "flip at " << victim;
    EXPECT_EQ(report.segments_bad_header, 1u);
    EXPECT_EQ(report.bytes_dropped, image.bytes.size());
  }
}

TEST(WalRecoverSegmentTest, EmptyAndHeaderOnlyImagesAreClean) {
  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment({}, /*is_last=*/true, &out, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.segments_scanned, 1u);

  std::string header_only;
  codec::EncodeFileHeader(wal::kWalMagic, {wal::WalQuantization{}, 1, 0},
                          &header_only);
  WalReader::RecoverSegment(AsSpan(header_only), /*is_last=*/true, &out,
                            &report);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(out.empty());
}

TEST(WalRecoverSegmentTest, CrcValidUndecodablePayloadIsBadVarint) {
  // A record whose CRC is correct but whose payload is not a checkpoint —
  // the "encoder bug or crafted record" case. Framing must survive it.
  Image image = BuildImage(1);
  const std::string payload(12, static_cast<char>(0xff));  // bad varints
  std::string record;
  ASSERT_TRUE(codec::AppendFrame(payload, wal::kMaxRecordPayload, &record));
  image.bytes.insert(image.record_ends[0], record);
  const std::size_t bad_record_bytes = record.size();
  // A good record after it.
  ASSERT_TRUE(wal::EncodeRecord(TestCheckpoint(9, 2), &image.bytes));

  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment(AsSpan(image.bytes), /*is_last=*/true, &out,
                            &report);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], image.checkpoints[0]);
  EXPECT_EQ(out[1].seq, 9u);
  EXPECT_EQ(report.bad_varint, 1u);
  EXPECT_EQ(report.bytes_dropped, bad_record_bytes);
  EXPECT_EQ(report.records_skipped(), 1u);
}

// --- deterministic fault injection ---------------------------------------

TEST(KeyPointWalFaultTest, ShortWriteKillsWriterAndRecoveryTruncates) {
  // cut=5: the torn flush leaves 5 bytes of the record — a partial header.
  // cut=20: header intact, payload truncated — a torn tail.
  struct Case {
    uint64_t cut;
    bool expect_short_header;
  };
  int variant = 0;
  for (const Case c : {Case{5, true}, Case{20, false}}) {
    FaultInjector injector(42);
    KeyPointWalOptions options;
    options.dir = FreshDir("wal_shortwrite_" + std::to_string(variant++));
    options.durability = WalDurability::kFlushEveryBatch;
    options.fault_injector = &injector;
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open().ok());

    std::vector<wal::WalCheckpoint> expected;
    for (int i = 0; i < 3; ++i) {
      const std::vector<KeyPoint> keys = MakeKeys(0, 3, i * 20.0);
      ASSERT_TRUE(wal.Append(2, keys).ok());
      expected.push_back(
          Quantized(2, static_cast<uint64_t>(i) + 1, keys, options.quant));
    }
    // Arm *after* Open so the segment-header flush is not the victim.
    injector.Arm(FaultSite::kWriteShortAtByte, 1.0, /*max_fires=*/1,
                 /*param=*/c.cut);
    const auto doomed = wal.Append(2, MakeKeys(0, 3, 99.0));
    ASSERT_FALSE(doomed.ok());
    EXPECT_EQ(doomed.status().code(), StatusCode::kIoError);
    EXPECT_TRUE(wal.dead());
    EXPECT_EQ(injector.fires(FaultSite::kWriteShortAtByte), 1u);
    EXPECT_EQ(wal.stats().faults_injected, 1u);

    // The fsync gate: no append, sync, anything ever again.
    EXPECT_FALSE(wal.Append(2, MakeKeys(0, 2, 1.0)).ok());
    EXPECT_FALSE(wal.Sync().ok());
    EXPECT_TRUE(wal.Close().ok());  // error was already reported

    const auto recovered = WalReader::Recover(options.dir);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value().checkpoints, expected);
    const WalRecoveryReport& report = recovered.value().report;
    if (c.expect_short_header) {
      EXPECT_EQ(report.short_header, 1u);
      EXPECT_EQ(report.torn_tail, 0u);
    } else {
      EXPECT_EQ(report.torn_tail, 1u);
      EXPECT_EQ(report.short_header, 0u);
    }
    EXPECT_EQ(report.bytes_dropped, c.cut);
  }
}

TEST(KeyPointWalFaultTest, FsyncFailureKillsWriterButFlushedBytesSurvive) {
  FaultInjector injector(43);
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_fsyncfail");
  options.durability = WalDurability::kFsyncEveryBatch;
  options.fault_injector = &injector;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(3, MakeKeys(0, 2, 1.0)).ok());

  injector.Arm(FaultSite::kFsyncFail, 1.0, /*max_fires=*/1);
  const auto doomed = wal.Append(3, MakeKeys(0, 2, 2.0));
  ASSERT_FALSE(doomed.ok());
  EXPECT_TRUE(wal.dead());

  // The doomed record was written (flush preceded the failed sync), so
  // recovery may return *more* than was acked — the contract is that every
  // ack survives, never that unacked bytes vanish.
  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().checkpoints.size(), 2u);
  EXPECT_TRUE(recovered.value().report.clean());
  EXPECT_EQ(recovered.value().checkpoints[0].seq, 1u);
}

TEST(KeyPointWalFaultTest, CrashAfterWriteDiscardsUnflushedBuffer) {
  // Under kNone everything (header included) still sits in user space, so
  // the injected crash loses it all — exactly what kNone promises.
  FaultInjector injector(44);
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_crash_none");
  options.durability = WalDurability::kNone;
  options.fault_injector = &injector;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(4, MakeKeys(0, 2, 1.0)).ok());

  injector.Arm(FaultSite::kCrashAfterWrite, 1.0, /*max_fires=*/1);
  ASSERT_FALSE(wal.Append(4, MakeKeys(0, 2, 2.0)).ok());
  EXPECT_TRUE(wal.dead());
  EXPECT_TRUE(wal.Close().ok());

  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().checkpoints.empty());
  EXPECT_TRUE(recovered.value().report.clean());  // empty file, no loss seen
}

TEST(KeyPointWalFaultTest, CrashAfterWriteUnderFlushKeepsDurableRecords) {
  FaultInjector injector(45);
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_crash_flush");
  options.durability = WalDurability::kFlushEveryBatch;
  options.fault_injector = &injector;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(4, MakeKeys(0, 2, 1.0)).ok());
  ASSERT_TRUE(wal.Append(4, MakeKeys(0, 2, 2.0)).ok());

  injector.Arm(FaultSite::kCrashAfterWrite, 1.0, /*max_fires=*/1);
  ASSERT_FALSE(wal.Append(4, MakeKeys(0, 2, 3.0)).ok());
  EXPECT_TRUE(wal.Close().ok());

  // The third record reached the OS before the "crash": it is recovered
  // even though it was never acked. Acked records 1-2 are a prefix.
  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().checkpoints.size(), 3u);
  EXPECT_TRUE(recovered.value().report.clean());
  EXPECT_EQ(recovered.value().checkpoints[0].seq, 1u);
  EXPECT_EQ(recovered.value().checkpoints[1].seq, 2u);
}

// --- fleet engine integration --------------------------------------------

class KeyCollectSink final : public FleetSink {
 public:
  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_[device].push_back(key);
  }
  std::map<DeviceId, std::vector<KeyPoint>> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }

 private:
  mutable std::mutex mu_;
  std::map<DeviceId, std::vector<KeyPoint>> keys_;
};

TEST(KeyPointWalFleetTest, EngineCheckpointsEveryEmittedKeyPoint) {
  const FleetDataset fleet = BuildFleetDataset(6, 0.05, 4242);
  int variant = 0;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{3}}) {
    KeyPointWalOptions wal_options;
    wal_options.dir = FreshDir("wal_fleet_" + std::to_string(variant++));
    KeyPointWal wal(wal_options);
    ASSERT_TRUE(wal.Open().ok());

    KeyCollectSink sink;
    FleetEngineOptions options;
    options.algorithm.id = AlgorithmId::kFbqs;
    options.algorithm.epsilon = 8.0;
    options.num_shards = shards;
    options.wal = &wal;
    options.wal_checkpoint_points = 8;  // force mid-session checkpoints
    {
      FleetEngine engine(options, sink);
      engine.IngestBatch(fleet.feed);
      engine.FinishAll();
      const FleetStats stats = engine.Stats();
      EXPECT_GT(stats.wal_checkpoints, 0u);
      EXPECT_EQ(stats.wal_append_failures, 0u);
      // Every emitted key point was staged and checkpointed exactly once.
      EXPECT_EQ(stats.wal_points, stats.key_points_emitted);
    }
    ASSERT_TRUE(wal.Close().ok());

    const auto recovered = WalReader::Recover(wal_options.dir);
    ASSERT_TRUE(recovered.ok());
    EXPECT_TRUE(recovered.value().report.clean());

    // Per device, checkpoints concatenated in replay order reproduce the
    // sink's emission order, quantized — bit-exact.
    std::map<DeviceId, std::vector<wal::WalPoint>> replayed;
    for (const wal::WalCheckpoint& cp : recovered.value().checkpoints) {
      for (const wal::WalPoint& p : cp.points) {
        replayed[cp.device].push_back(p);
      }
    }
    const auto emitted = sink.keys();
    ASSERT_EQ(replayed.size(), emitted.size());
    for (const auto& [device, keys] : emitted) {
      const auto it = replayed.find(device);
      ASSERT_NE(it, replayed.end()) << "device " << device;
      ASSERT_EQ(it->second.size(), keys.size()) << "device " << device;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(it->second[i], wal::Quantize(keys[i], wal_options.quant))
            << "device " << device << " point " << i;
        // And the dequantized point is within quantum/2 per axis: the
        // split-error-budget half the WAL contributes.
        const KeyPoint back =
            wal::Dequantize(it->second[i], recovered.value().quant);
        EXPECT_LE(std::abs(back.point.pos.x - keys[i].point.pos.x),
                  wal_options.quant.coord_quantum / 2 + 1e-12);
        EXPECT_LE(std::abs(back.point.pos.y - keys[i].point.pos.y),
                  wal_options.quant.coord_quantum / 2 + 1e-12);
        EXPECT_LE(std::abs(back.point.t - keys[i].point.t),
                  wal_options.quant.time_quantum / 2 + 1e-12);
        EXPECT_EQ(back.index, keys[i].index);
      }
    }
  }
}

TEST(KeyPointWalFleetTest, CheckpointWalBarrierDrainsStagedPoints) {
  const FleetDataset fleet = BuildFleetDataset(4, 0.04, 4243);
  KeyPointWalOptions wal_options;
  wal_options.dir = FreshDir("wal_fleet_barrier");
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());

  KeyCollectSink sink;
  FleetEngineOptions options;
  options.algorithm.id = AlgorithmId::kFbqs;
  options.algorithm.epsilon = 8.0;
  options.num_shards = 2;
  options.wal = &wal;
  options.wal_checkpoint_points = 1u << 20;  // never by threshold
  FleetEngine engine(options, sink);
  engine.IngestBatch(fleet.feed);

  // Mid-run durability barrier: everything emitted so far must be in the
  // WAL afterwards, with sessions still live.
  engine.CheckpointWal();
  ASSERT_TRUE(wal.Sync().ok());
  const uint64_t after_barrier = wal.stats().points_appended;
  EXPECT_GT(after_barrier, 0u);

  engine.FinishAll();
  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.wal_points, stats.key_points_emitted);
  EXPECT_GE(stats.wal_points, after_barrier);
}

TEST(KeyPointWalFleetTest, TrajectoryStoreRestoresFromReplay) {
  // The full crash-recovery arc: fleet -> WAL -> (crash) -> recover ->
  // RestoreFromWal, with the rebuilt store populated per session.
  const FleetDataset fleet = BuildFleetDataset(5, 0.05, 4244);
  KeyPointWalOptions wal_options;
  wal_options.dir = FreshDir("wal_fleet_restore");
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());

  KeyCollectSink sink;
  FleetEngineOptions options;
  options.algorithm.id = AlgorithmId::kBqs;
  options.algorithm.epsilon = 10.0;
  options.num_shards = 2;
  options.wal = &wal;
  options.wal_checkpoint_points = 16;
  {
    FleetEngine engine(options, sink);
    engine.IngestBatch(fleet.feed);
    engine.FinishAll();
  }
  ASSERT_TRUE(wal.Close().ok());

  const auto recovered = WalReader::Recover(wal_options.dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered.value().report.clean());

  TrajectoryStore store;
  const auto restored = store.RestoreFromWal(recovered.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().checkpoints_applied,
            recovered.value().checkpoints.size());
  std::size_t total_points = 0;
  for (const auto& [device, keys] : sink.keys()) {
    (void)device;
    total_points += keys.size();
  }
  EXPECT_EQ(restored.value().points_restored, total_points);
  // One session per device, each with >= 2 key points on these datasets.
  EXPECT_EQ(restored.value().trajectories_appended, sink.keys().size());
  EXPECT_EQ(restored.value().short_trajectories, 0u);
  EXPECT_GT(store.segment_count(), 0u);
}

}  // namespace
}  // namespace bqs
