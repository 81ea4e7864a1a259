// KeyPointWal: append/recover round trips across every durability policy,
// segment rotation, the corruption matrix (RecoverSegment on crafted
// images), deterministic fault injection (torn write, failed fsync, crash
// after write), and the fleet-engine checkpoint integration ending in a
// per-point quantized round trip through recovery.
#include "storage/keypoint_wal.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "service/fleet_engine.h"
#include "simulation/datasets.h"
#include "storage/codec.h"
#include "storage/file_io.h"
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

/// Every file of `dir` by name, with its bytes: what "byte-identical
/// directories" compares.
std::map<std::string, std::string> DirImage(const std::string& dir) {
  std::map<std::string, std::string> image;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    EXPECT_TRUE(ReadFileBytes(entry.path().string(), &bytes).ok());
    image[entry.path().filename().string()] = std::move(bytes);
  }
  return image;
}

TEST(KeyPointWalBatchTest, BatchWritesTheBytesOfSingleAppendsUnderEveryPolicy) {
  // Twelve checkpoints over three devices into 200-byte segments: written
  // once as twelve single appends and once as a batch of two plus a batch
  // of ten that crosses several rotations. Records, seqs, rotation points
  // and acks must not depend on the batching, under any policy.
  std::vector<std::pair<DeviceId, std::vector<KeyPoint>>> feed;
  for (int c = 0; c < 12; ++c) {
    feed.emplace_back(20 + static_cast<DeviceId>(c % 3),
                      MakeKeys(static_cast<uint64_t>(c) * 30, 2 + c % 4,
                               c * 13.0));
  }
  int variant = 0;
  for (const WalDurability policy :
       {WalDurability::kNone, WalDurability::kFlushEveryBatch,
        WalDurability::kFsyncEveryBatch, WalDurability::kGroupCommit}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    KeyPointWalOptions single_options;
    single_options.dir = FreshDir("wal_batch_single_" +
                                  std::to_string(variant));
    single_options.durability = policy;
    single_options.segment_bytes = 200;
    KeyPointWalOptions batch_options = single_options;
    batch_options.dir = FreshDir("wal_batch_batched_" +
                                 std::to_string(variant++));

    std::vector<WalAppendAck> single_acks;
    KeyPointWal single(single_options);
    ASSERT_TRUE(single.Open().ok());
    for (const auto& [device, keys] : feed) {
      const auto ack = single.Append(device, keys);
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      single_acks.push_back(ack.value());
    }
    ASSERT_TRUE(single.Close().ok());

    std::vector<WalBatchEntry> entries;
    for (const auto& [device, keys] : feed) entries.push_back({device, keys});
    std::vector<WalAppendAck> batch_acks;
    KeyPointWal batched(batch_options);
    ASSERT_TRUE(batched.Open().ok());
    std::vector<Result<WalAppendAck>> acks;
    for (const std::span<const WalBatchEntry> batch :
         {std::span<const WalBatchEntry>(entries).first(2),
          std::span<const WalBatchEntry>(entries).subspan(2)}) {
      batched.AppendBatch(batch, &acks);
      ASSERT_EQ(acks.size(), batch.size());
      for (const Result<WalAppendAck>& ack : acks) {
        ASSERT_TRUE(ack.ok()) << ack.status().ToString();
        batch_acks.push_back(ack.value());
      }
    }
    ASSERT_TRUE(batched.Close().ok());

    ASSERT_EQ(batch_acks.size(), single_acks.size());
    for (std::size_t i = 0; i < single_acks.size(); ++i) {
      EXPECT_EQ(batch_acks[i].seq, single_acks[i].seq) << "checkpoint " << i;
      EXPECT_EQ(batch_acks[i].segment_index, single_acks[i].segment_index)
          << "checkpoint " << i;
      EXPECT_EQ(batch_acks[i].end_offset, single_acks[i].end_offset)
          << "checkpoint " << i;
    }
    EXPECT_GT(batch_acks.back().segment_index,
              batch_acks[2].segment_index)
        << "the batch of ten must cross a rotation";
    const auto single_image = DirImage(single_options.dir);
    EXPECT_GT(single_image.size(), 2u);
    EXPECT_EQ(DirImage(batch_options.dir), single_image);

    const KeyPointWalStats a = single.stats();
    const KeyPointWalStats b = batched.stats();
    EXPECT_EQ(b.checkpoints_appended, a.checkpoints_appended);
    EXPECT_EQ(b.points_appended, a.points_appended);
    EXPECT_EQ(b.bytes_appended, a.bytes_appended);
    EXPECT_EQ(b.segments_opened, a.segments_opened);
    if (policy == WalDurability::kFlushEveryBatch ||
        policy == WalDurability::kFsyncEveryBatch) {
      // One write per batch plus one per rotation, not one per checkpoint.
      EXPECT_LT(b.flushes, a.flushes);
    }
  }
}

TEST(KeyPointWalBatchTest, InvalidEntryFailsAloneAndTakesNoSequence) {
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_batch_invalid");
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  const std::vector<KeyPoint> first = MakeKeys(0, 3, 1.0);
  const std::vector<KeyPoint> last = MakeKeys(50, 2, 9.0);
  const WalBatchEntry batch[] = {{4, first}, {5, {}}, {6, last}};
  std::vector<Result<WalAppendAck>> acks;
  wal.AppendBatch(batch, &acks);
  ASSERT_EQ(acks.size(), 3u);
  ASSERT_TRUE(acks[0].ok());
  EXPECT_EQ(acks[0].value().seq, 1u);
  ASSERT_FALSE(acks[1].ok());
  EXPECT_EQ(acks[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(acks[2].ok());
  EXPECT_EQ(acks[2].value().seq, 2u);
  EXPECT_FALSE(wal.dead());
  EXPECT_EQ(wal.stats().checkpoints_appended, 2u);

  // A batch of nothing but invalid entries writes nothing.
  const uint64_t flushes = wal.stats().flushes;
  const WalBatchEntry empty_only[] = {{7, {}}};
  wal.AppendBatch(empty_only, &acks);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wal.stats().flushes, flushes);
  ASSERT_TRUE(wal.Close().ok());

  const auto recovered = WalReader::Recover(options.dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().report.clean());
  EXPECT_EQ(recovered.value().checkpoints,
            (std::vector<wal::WalCheckpoint>{
                Quantized(4, 1, first, options.quant),
                Quantized(6, 2, last, options.quant)}));
}

TEST(KeyPointWalBatchTest, FailedBatchAcksNone) {
  FaultInjector injector(46);
  KeyPointWalOptions options;
  options.dir = FreshDir("wal_batch_failed");
  options.durability = WalDurability::kFsyncEveryBatch;
  options.fault_injector = &injector;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(1, MakeKeys(0, 2, 1.0)).ok());

  injector.Arm(FaultSite::kFsyncFail, 1.0, /*max_fires=*/1);
  const std::vector<KeyPoint> keys = MakeKeys(10, 3, 2.0);
  const WalBatchEntry batch[] = {{1, keys}, {2, keys}, {3, keys}};
  std::vector<Result<WalAppendAck>> acks;
  wal.AppendBatch(batch, &acks);
  ASSERT_EQ(acks.size(), 3u);
  for (const Result<WalAppendAck>& ack : acks) {
    ASSERT_FALSE(ack.ok());
    EXPECT_EQ(ack.status().code(), StatusCode::kIoError);
  }
  EXPECT_TRUE(wal.dead());
  EXPECT_EQ(wal.stats().checkpoints_appended, 1u);
  EXPECT_EQ(injector.fires(FaultSite::kFsyncFail), 1u);  // one sync per batch
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

/// The lifecycle edge a KeyPointWalFleetTest run drives its sessions
/// through; each reaches a different place the engine emits key points.
enum class SessionClose {
  kFinishAll,     ///< FinishAll closes every session.
  kFinishDevice,  ///< FinishDevice per device, then a drain.
  kIdleTimeout,   ///< Devices one after another; stale sessions idle out.
  kEviction,      ///< A budget below two sessions evicts LRU sessions.
  kEpsReseat,     ///< A budget plus an eps ladder reseats sessions.
};

const char* SessionCloseName(SessionClose close) {
  switch (close) {
    case SessionClose::kFinishAll: return "finish_all";
    case SessionClose::kFinishDevice: return "finish_device";
    case SessionClose::kIdleTimeout: return "idle_timeout";
    case SessionClose::kEviction: return "eviction";
    case SessionClose::kEpsReseat: return "eps_reseat";
  }
  return "?";
}

/// Runs `fleet` through an engine with a WAL, closing sessions the
/// `close` way, and checks that the WAL replay equals the FleetSink output
/// after wal::Quantize, per device and in order. `sequential` is the feed
/// the idle-timeout variant ingests.
void ExpectWalReplaysSinkOutput(const FleetDataset& fleet,
                                std::span<const FleetRecord> sequential,
                                SessionClose close, std::size_t shards,
                                const std::string& dir_name) {
  KeyPointWalOptions wal_options;
  wal_options.dir = FreshDir(dir_name);
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());

  KeyCollectSink sink;
  FleetEngineOptions options;
  options.algorithm.id = AlgorithmId::kFbqs;
  options.algorithm.epsilon = 8.0;
  options.num_shards = shards;
  options.wal = &wal;
  options.wal_checkpoint_points = 8;  // force mid-session checkpoints
  const std::size_t shard_count = std::max<std::size_t>(shards, 1);
  switch (close) {
    case SessionClose::kFinishAll:
    case SessionClose::kFinishDevice:
      break;
    case SessionClose::kIdleTimeout:
      options.idle_timeout_seconds = 100.0;
      options.block_capacity = 16;  // sweep at many block boundaries
      break;
    case SessionClose::kEviction:
      options.memory_budget_bytes =
          shard_count * (FleetEngine::kSessionBaseBytes + 64);
      break;
    case SessionClose::kEpsReseat:
      options.memory_budget_bytes = shard_count * 1024;
      options.overload.eps_ladder = {2.0, 4.0};
      break;
  }
  {
    FleetEngine engine(options, sink);
    engine.IngestBatch(close == SessionClose::kIdleTimeout
                           ? std::span<const FleetRecord>(sequential)
                           : std::span<const FleetRecord>(fleet.feed));
    if (close == SessionClose::kFinishDevice) {
      for (const auto& [device, stream] : fleet.devices) {
        (void)stream;
        engine.FinishDevice(device);
      }
      engine.Flush();
    }
    const FleetStats before_finish_all = engine.Stats();
    switch (close) {
      case SessionClose::kFinishAll:
        break;
      case SessionClose::kFinishDevice:
        EXPECT_EQ(before_finish_all.sessions_finished,
                  fleet.devices.size());
        EXPECT_EQ(before_finish_all.live_sessions, 0u);
        break;
      case SessionClose::kIdleTimeout:
        EXPECT_GT(before_finish_all.sessions_idled, 0u);
        break;
      case SessionClose::kEviction:
        EXPECT_GT(before_finish_all.sessions_evicted, 0u);
        break;
      case SessionClose::kEpsReseat:
        EXPECT_GT(before_finish_all.sessions_degraded, 0u);
        break;
    }
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

TEST(KeyPointWalFleetTest, EngineCheckpointsEveryEmittedKeyPoint) {
  const FleetDataset fleet = BuildFleetDataset(6, 0.05, 4242);
  // The same devices one after another in stream time, 10^5 s apart, so
  // each device's session is stale once the next device streams.
  std::vector<FleetRecord> sequential;
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    const auto& [device, stream] = fleet.devices[d];
    for (TrackPoint pt : stream) {
      pt.t += 1e5 * static_cast<double>(d);
      sequential.push_back(FleetRecord{device, pt});
    }
  }
  int variant = 0;
  for (const SessionClose close :
       {SessionClose::kFinishAll, SessionClose::kFinishDevice,
        SessionClose::kIdleTimeout, SessionClose::kEviction,
        SessionClose::kEpsReseat}) {
    for (const std::size_t shards : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(SessionCloseName(close)) + ", shards " +
                   std::to_string(shards));
      ExpectWalReplaysSinkOutput(fleet, sequential, close, shards,
                                 "wal_fleet_" + std::to_string(variant++));
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

TEST(KeyPointWalFleetTest, BarrierIsOneBatchAndCountsItsFailureLikeALoop) {
  // The barrier appends every staged session in one batch: one write and
  // one fdatasync. When that sync fails, the counters read as a loop of
  // single appends would: the first checkpoint is the I/O failure, the
  // rest found the writer dead.
  const FleetDataset fleet = BuildFleetDataset(5, 0.04, 4244);
  for (const bool fail : {false, true}) {
    SCOPED_TRACE(fail ? "failing sync" : "healthy");
    FaultInjector injector(47);
    KeyPointWalOptions wal_options;
    wal_options.dir = FreshDir(fail ? "wal_fleet_batch_fail"
                                    : "wal_fleet_batch_ok");
    wal_options.durability = WalDurability::kFsyncEveryBatch;
    wal_options.fault_injector = &injector;
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
    const FleetStats before = engine.Stats();
    ASSERT_EQ(before.live_sessions, fleet.devices.size());
    ASSERT_GT(before.key_points_emitted, 0u);

    const uint64_t flushes = wal.stats().flushes;
    const uint64_t syncs = wal.stats().syncs;
    if (fail) injector.Arm(FaultSite::kFsyncFail, 1.0, /*max_fires=*/1);
    engine.CheckpointWal();
    const FleetStats after = engine.Stats();
    if (fail) {
      EXPECT_TRUE(wal.dead());
      EXPECT_EQ(after.wal_checkpoints, 0u);
      EXPECT_EQ(after.wal_points, 0u);
      EXPECT_EQ(after.wal_append_failures, fleet.devices.size());
      EXPECT_EQ(after.wal_failures_io, 1u);
      EXPECT_EQ(after.wal_failures_writer_dead, fleet.devices.size() - 1);
    } else {
      EXPECT_EQ(wal.stats().flushes, flushes + 1);
      EXPECT_EQ(wal.stats().syncs, syncs + 1);
      EXPECT_EQ(after.wal_checkpoints, fleet.devices.size());
      EXPECT_EQ(after.wal_points, before.key_points_emitted);
      EXPECT_EQ(after.wal_append_failures, 0u);
    }
    engine.FinishAll();
  }
}

TEST(KeyPointWalFleetTest, FinishAllIsOneBatchPerShard) {
  // FinishAll closes every session of a shard, then appends all of their
  // staged tails as one batch: one write per shard, whatever the number
  // of devices.
  const FleetDataset fleet = BuildFleetDataset(12, 0.04, 4245);
  for (const std::size_t shards : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    KeyPointWalOptions wal_options;
    wal_options.dir = FreshDir("wal_fleet_finish_" + std::to_string(shards));
    wal_options.durability = WalDurability::kFsyncEveryBatch;
    KeyPointWal wal(wal_options);
    ASSERT_TRUE(wal.Open().ok());

    KeyCollectSink sink;
    FleetEngineOptions options;
    options.algorithm.id = AlgorithmId::kFbqs;
    options.algorithm.epsilon = 8.0;
    options.num_shards = shards;
    options.wal = &wal;
    options.wal_checkpoint_points = 1u << 20;  // never by threshold
    FleetEngine engine(options, sink);
    engine.IngestBatch(fleet.feed);
    engine.Flush();
    std::set<std::size_t> live_shards;
    for (const auto& [device, stream] : fleet.devices) {
      (void)stream;
      live_shards.insert(engine.ShardOf(device));
    }
    const uint64_t flushes = wal.stats().flushes;
    engine.FinishAll();
    EXPECT_EQ(wal.stats().flushes, flushes + live_shards.size());
    const FleetStats stats = engine.Stats();
    EXPECT_EQ(stats.wal_checkpoints, fleet.devices.size());
    EXPECT_EQ(stats.wal_points, stats.key_points_emitted);
    EXPECT_EQ(stats.wal_append_failures, 0u);
  }
}

TEST(KeyPointWalFleetTest, ShardedFinishAllWritesOneRecordOrderPerShard) {
  // Three shard workers finish concurrently, so the shards' batches land
  // in the WAL in either order; within each shard the records (device
  // and points, in WAL order) must be the same on every run of a feed.
  const FleetDataset fleet = BuildFleetDataset(12, 0.04, 4246);
  std::vector<std::map<std::size_t, std::vector<wal::WalCheckpoint>>> runs;
  for (int run = 0; run < 2; ++run) {
    KeyPointWalOptions wal_options;
    wal_options.dir = FreshDir("wal_fleet_order_" + std::to_string(run));
    KeyPointWal wal(wal_options);
    ASSERT_TRUE(wal.Open().ok());
    KeyCollectSink sink;
    FleetEngineOptions options;
    options.algorithm.id = AlgorithmId::kFbqs;
    options.algorithm.epsilon = 8.0;
    options.num_shards = 3;
    options.wal = &wal;
    options.wal_checkpoint_points = 1u << 20;  // never by threshold
    std::map<std::size_t, std::vector<wal::WalCheckpoint>> per_shard;
    {
      FleetEngine engine(options, sink);
      engine.IngestBatch(fleet.feed);
      engine.FinishAll();
      ASSERT_TRUE(wal.Close().ok());
      const auto recovered = WalReader::Recover(wal_options.dir);
      ASSERT_TRUE(recovered.ok());
      ASSERT_EQ(recovered.value().checkpoints.size(), fleet.devices.size());
      for (wal::WalCheckpoint cp : recovered.value().checkpoints) {
        cp.seq = 0;  // assigned in cross-shard arrival order
        per_shard[engine.ShardOf(cp.device)].push_back(std::move(cp));
      }
    }
    runs.push_back(std::move(per_shard));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (const auto& [shard, records] : runs[0]) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    const auto& other = runs[1].at(shard);
    ASSERT_EQ(records.size(), other.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].device, other[i].device) << "record " << i;
      EXPECT_EQ(records[i].points, other[i].points) << "record " << i;
    }
  }
}

}  // namespace
}  // namespace bqs
