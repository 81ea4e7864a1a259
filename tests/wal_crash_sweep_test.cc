// The crash-point sweep: truncate a WAL segment at EVERY byte offset and
// prove recovery returns exactly the acked prefix — bit-exact — with the
// loss accounted to the right reason and not one byte unexplained.
//
// This is the durability contract's exhaustive check. Append acks carry
// end_offset (the segment size once the record is fully encoded), so for
// any truncation point c the expected outcome is computable:
//   c == 0                -> empty file, clean;
//   0 < c < header        -> unreadable header, the whole file is dropped;
//   cut on a record edge  -> clean replay of everything up to the edge;
//   1-7 bytes past an edge-> partial record header (short_header);
//   8+ bytes past an edge -> a torn record (torn_tail).
// In every case: recovered checkpoints == the acked prefix, and
//   header + sum(recovered record bytes) + bytes_dropped == c.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "storage/keypoint_wal.h"
#include "storage/wal_format.h"

namespace bqs {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<KeyPoint> MakeKeys(uint64_t start_index, int n, double base) {
  std::vector<KeyPoint> keys;
  for (int i = 0; i < n; ++i) {
    KeyPoint k;
    k.index = start_index + static_cast<uint64_t>(i) * 3;
    k.point.t = base + i * 5.5;
    k.point.pos = {base * 3.0 + i * 17.25, base - i * 9.125};
    keys.push_back(k);
  }
  return keys;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WritePrefix(const std::string& path, const std::string& bytes,
                 std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(n));
  ASSERT_TRUE(out.good()) << path;
}

/// One acked append with everything the sweep needs to predict recovery.
struct AckedRecord {
  wal::WalCheckpoint checkpoint;  ///< Quantized, as recovery must return it.
  std::size_t end_offset = 0;     ///< Segment size after this record.
};

/// Writes a single-segment WAL under `policy` and returns the acked
/// records plus the full segment image.
void BuildAckedLog(WalDurability policy, const std::string& dir,
                   std::vector<AckedRecord>* acked, std::string* image) {
  KeyPointWalOptions options;
  options.dir = dir;
  options.durability = policy;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  for (int c = 0; c < 8; ++c) {
    const DeviceId device = 1 + static_cast<DeviceId>(c % 2);
    const std::vector<KeyPoint> keys =
        MakeKeys(static_cast<uint64_t>(c) * 40, 2 + c % 3, c * 11.0);
    const auto ack = wal.Append(device, keys);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack.value().segment_index, 1u) << "sweep needs one segment";
    AckedRecord record;
    record.checkpoint.device = device;
    record.checkpoint.seq = ack.value().seq;
    for (const KeyPoint& k : keys) {
      record.checkpoint.points.push_back(wal::Quantize(k, options.quant));
    }
    record.end_offset = static_cast<std::size_t>(ack.value().end_offset);
    acked->push_back(std::move(record));
  }
  ASSERT_TRUE(wal.Close().ok());

  const auto files = ListWalSegments(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  *image = ReadFile(files.value()[0].path);
  ASSERT_EQ(image->size(), acked->back().end_offset)
      << "the last ack's end_offset must be the file size";
}

/// Asserts recovery of `dir` against truncation point `c` of a log whose
/// acked records are `acked`.
void CheckRecoveryAtCut(const std::string& dir, std::size_t c,
                        const std::vector<AckedRecord>& acked) {
  const auto recovered = WalReader::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const WalRecovery& r = recovered.value();
  EXPECT_EQ(r.report.segments_scanned, 1u);

  if (c == 0) {
    // Crash before any byte reached the file: clean and empty.
    EXPECT_TRUE(r.report.clean()) << "cut " << c;
    EXPECT_TRUE(r.checkpoints.empty());
    return;
  }
  if (c < wal::kSegmentHeaderBytes) {
    // Torn mid-header: nothing in the segment can be framed.
    EXPECT_EQ(r.report.segments_bad_header, 1u) << "cut " << c;
    EXPECT_EQ(r.report.bytes_dropped, c) << "cut " << c;
    EXPECT_TRUE(r.checkpoints.empty()) << "cut " << c;
    return;
  }

  // Expected durable prefix: every ack whose record fully precedes c.
  std::vector<wal::WalCheckpoint> expected;
  std::size_t edge = wal::kSegmentHeaderBytes;
  for (const AckedRecord& record : acked) {
    if (record.end_offset <= c) {
      expected.push_back(record.checkpoint);
      edge = record.end_offset;
    }
  }
  EXPECT_EQ(r.checkpoints, expected) << "cut " << c;
  EXPECT_EQ(r.report.records_recovered, expected.size()) << "cut " << c;
  EXPECT_EQ(r.report.segments_bad_header, 0u) << "cut " << c;
  EXPECT_EQ(r.report.bad_crc, 0u) << "cut " << c;
  EXPECT_EQ(r.report.bad_varint, 0u) << "cut " << c;

  const std::size_t rem = c - edge;
  if (rem == 0) {
    EXPECT_TRUE(r.report.clean()) << "cut " << c;
  } else if (rem < wal::kRecordHeaderBytes) {
    EXPECT_EQ(r.report.short_header, 1u) << "cut " << c;
    EXPECT_EQ(r.report.torn_tail, 0u) << "cut " << c;
  } else {
    EXPECT_EQ(r.report.torn_tail, 1u) << "cut " << c;
    EXPECT_EQ(r.report.short_header, 0u) << "cut " << c;
  }
  // The accounting identity: every byte is in the header, a recovered
  // record, or bytes_dropped.
  EXPECT_EQ(wal::kSegmentHeaderBytes + (edge - wal::kSegmentHeaderBytes) +
                r.report.bytes_dropped,
            c)
      << "cut " << c;

  // next_seq is safe to reopen with: one past the last recovered record
  // (or the header's first_seq when nothing was recovered).
  const uint64_t expect_seq = expected.empty() ? 1 : expected.back().seq + 1;
  EXPECT_EQ(r.next_seq, expect_seq) << "cut " << c;
}

class WalCrashSweepTest : public ::testing::TestWithParam<WalDurability> {};

TEST_P(WalCrashSweepTest, EveryTruncationOffsetRecoversTheAckedPrefix) {
  const WalDurability policy = GetParam();
  const std::string source_dir =
      FreshDir("sweep_src_" +
               std::to_string(static_cast<int>(policy)));
  std::vector<AckedRecord> acked;
  std::string image;
  BuildAckedLog(policy, source_dir, &acked, &image);
  ASSERT_GT(image.size(), wal::kSegmentHeaderBytes);

  const std::string sweep_dir =
      FreshDir("sweep_cut_" + std::to_string(static_cast<int>(policy)));
  std::filesystem::create_directories(sweep_dir);
  const std::string segment_path = sweep_dir + "/wal-000001.log";
  for (std::size_t c = 0; c <= image.size(); ++c) {
    WritePrefix(segment_path, image, c);
    CheckRecoveryAtCut(sweep_dir, c, acked);
    if (::testing::Test::HasFailure()) {
      FAIL() << "sweep stopped at cut " << c << " of " << image.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WalCrashSweepTest,
    ::testing::Values(WalDurability::kNone, WalDurability::kFlushEveryBatch,
                      WalDurability::kFsyncEveryBatch,
                      WalDurability::kGroupCommit),
    [](const ::testing::TestParamInfo<WalDurability>& param_info) {
      switch (param_info.param) {
        case WalDurability::kNone: return "None";
        case WalDurability::kFlushEveryBatch: return "FlushEveryBatch";
        case WalDurability::kFsyncEveryBatch: return "FsyncEveryBatch";
        case WalDurability::kGroupCommit: return "GroupCommit";
      }
      return "Unknown";
    });

TEST(WalCrashSweepMultiSegmentTest, ClosedSegmentsSurviveALiveSegmentTear) {
  // Two segments; the first is closed and complete. Truncating the live
  // (last) segment at every offset must never cost a record of the closed
  // one.
  const std::string source_dir = FreshDir("sweep_multi_src");
  std::vector<AckedRecord> acked;
  {
    KeyPointWalOptions options;
    options.dir = source_dir;
    options.segment_bytes = 160;  // a few records per segment
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    for (int c = 0; c < 10; ++c) {
      const std::vector<KeyPoint> keys =
          MakeKeys(static_cast<uint64_t>(c) * 20, 3, c * 7.0);
      const auto ack = wal.Append(9, keys);
      ASSERT_TRUE(ack.ok());
      AckedRecord record;
      record.checkpoint.device = 9;
      record.checkpoint.seq = ack.value().seq;
      for (const KeyPoint& k : keys) {
        record.checkpoint.points.push_back(wal::Quantize(k, options.quant));
      }
      record.end_offset = static_cast<std::size_t>(ack.value().end_offset);
      // Tag which segment the ack landed in via segment_index.
      record.end_offset |= ack.value().segment_index << 32;
      acked.push_back(std::move(record));
    }
    ASSERT_TRUE(wal.Close().ok());
  }

  const auto files = ListWalSegments(source_dir);
  ASSERT_TRUE(files.ok());
  ASSERT_GE(files.value().size(), 2u) << "rotation must have happened";
  const WalSegmentFile& last = files.value().back();
  const std::string last_image = ReadFile(last.path);
  const uint64_t last_index = last.index;

  // Checkpoints in closed segments: recovered at every cut. Checkpoints in
  // the last segment: recovered iff their record precedes the cut.
  const std::string last_name =
      std::filesystem::path(last.path).filename().string();
  for (std::size_t c = 0; c <= last_image.size(); ++c) {
    WritePrefix(last.path, last_image, c);
    const auto recovered = WalReader::Recover(source_dir);
    ASSERT_TRUE(recovered.ok());
    std::vector<wal::WalCheckpoint> expected;
    for (const AckedRecord& record : acked) {
      const uint64_t segment = record.end_offset >> 32;
      const std::size_t end = record.end_offset & 0xffffffffu;
      if (segment < last_index || end <= c) {
        expected.push_back(record.checkpoint);
      }
    }
    EXPECT_EQ(recovered.value().checkpoints, expected)
        << "cut " << c << " in " << last_name;
    // Loss, when present, is confined to the live segment's tail.
    EXPECT_EQ(recovered.value().report.bad_crc, 0u);
    EXPECT_EQ(recovered.value().report.segments_bad_header,
              c != 0 && c < wal::kSegmentHeaderBytes ? 1u : 0u);
  }
  // Restore the full image so a rerun in the same temp dir starts clean.
  WritePrefix(last.path, last_image, last_image.size());
}

TEST(WalCrashSweepInjectedTest, TornWriteParamSweepMatchesByteTruncation) {
  // The writer-side version of the sweep: instead of truncating the file
  // afterwards, the injected short write tears the doomed record at every
  // possible byte via kWriteShortAtByte's param. The two sweeps must agree:
  // recovery returns the acked prefix, and the cut position picks the
  // reason (record edge -> clean, < 8 -> short_header, else torn_tail).
  //
  // First, measure the doomed record's size with a clean run.
  std::size_t record_bytes = 0;
  std::vector<AckedRecord> acked_prefix;
  wal::WalCheckpoint doomed_checkpoint;
  {
    const std::string dir = FreshDir("sweep_inject_measure");
    std::vector<AckedRecord> acked;
    std::string image;
    BuildAckedLog(WalDurability::kFlushEveryBatch, dir, &acked, &image);
    record_bytes = acked[3].end_offset - acked[2].end_offset;
    acked_prefix.assign(acked.begin(), acked.begin() + 3);
    doomed_checkpoint = acked[3].checkpoint;
  }

  for (std::size_t cut = 0; cut <= record_bytes; ++cut) {
    FaultInjector injector(1000 + static_cast<uint64_t>(cut));
    const std::string dir = FreshDir("sweep_inject");
    KeyPointWalOptions options;
    options.dir = dir;
    options.durability = WalDurability::kFlushEveryBatch;
    options.fault_injector = &injector;
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    // Same feed as BuildAckedLog so record sizes line up.
    for (int c = 0; c < 3; ++c) {
      const DeviceId device = 1 + static_cast<DeviceId>(c % 2);
      ASSERT_TRUE(
          wal.Append(device, MakeKeys(static_cast<uint64_t>(c) * 40,
                                      2 + c % 3, c * 11.0))
              .ok());
    }
    injector.Arm(FaultSite::kWriteShortAtByte, 1.0, /*max_fires=*/1,
                 /*param=*/cut);
    const auto doomed = wal.Append(2, MakeKeys(120, 2 + 3 % 3, 3 * 11.0));
    ASSERT_FALSE(doomed.ok()) << "cut " << cut;
    EXPECT_TRUE(wal.dead());
    ASSERT_TRUE(wal.Close().ok());

    const auto recovered = WalReader::Recover(dir);
    ASSERT_TRUE(recovered.ok());
    const WalRecovery& r = recovered.value();
    std::vector<wal::WalCheckpoint> expected;
    for (const AckedRecord& record : acked_prefix) {
      expected.push_back(record.checkpoint);
    }
    if (cut == record_bytes) {
      // The tear landed exactly past the record: it is whole on disk and
      // recovery returns it even though the writer never acked it (the
      // contract is acks-are-a-prefix, not unacked-bytes-vanish).
      expected.push_back(doomed_checkpoint);
      EXPECT_TRUE(r.report.clean()) << "cut " << cut;
    } else if (cut == 0) {
      EXPECT_TRUE(r.report.clean()) << "cut " << cut;
      EXPECT_EQ(r.report.bytes_dropped, 0u);
    } else if (cut < wal::kRecordHeaderBytes) {
      EXPECT_EQ(r.report.short_header, 1u) << "cut " << cut;
      EXPECT_EQ(r.report.bytes_dropped, cut) << "cut " << cut;
    } else {
      EXPECT_EQ(r.report.torn_tail, 1u) << "cut " << cut;
      EXPECT_EQ(r.report.bytes_dropped, cut) << "cut " << cut;
    }
    EXPECT_EQ(r.checkpoints, expected) << "cut " << cut;
  }
}

/// The batch sweeps' feed: kSingles checkpoints appended one at a time,
/// then kBatchEntries more as one AppendBatch() call.
constexpr std::size_t kSingles = 3;
constexpr std::size_t kBatchEntries = 5;

struct FeedCheckpoint {
  DeviceId device = 0;
  std::vector<KeyPoint> keys;
};

std::vector<FeedCheckpoint> BatchFeed() {
  std::vector<FeedCheckpoint> feed;
  for (std::size_t c = 0; c < kSingles + kBatchEntries; ++c) {
    feed.push_back({1 + static_cast<DeviceId>(c % 2),
                    MakeKeys(c * 40, 2 + static_cast<int>(c % 3),
                             static_cast<double>(c) * 11.0)});
  }
  return feed;
}

/// Appends the singles (each must ack), then arms `arm` when given, then
/// appends the batch. Returns every ack, singles first.
std::vector<Result<WalAppendAck>> AppendBatchFeed(
    KeyPointWal& wal, const std::vector<FeedCheckpoint>& feed,
    const std::function<void()>& arm = nullptr) {
  std::vector<Result<WalAppendAck>> acks;
  for (std::size_t c = 0; c < kSingles; ++c) {
    acks.push_back(wal.Append(feed[c].device, feed[c].keys));
    EXPECT_TRUE(acks.back().ok()) << "single " << c;
  }
  if (arm) arm();
  std::vector<WalBatchEntry> batch;
  for (std::size_t c = kSingles; c < feed.size(); ++c) {
    batch.push_back({feed[c].device, feed[c].keys});
  }
  std::vector<Result<WalAppendAck>> batch_acks;
  wal.AppendBatch(batch, &batch_acks);
  EXPECT_EQ(batch_acks.size(), batch.size());
  acks.insert(acks.end(), batch_acks.begin(), batch_acks.end());
  return acks;
}

/// A fault-free run of the feed under `base`'s policy and segment size:
/// every record as recovery must return it, with where its ack put it.
std::vector<AckedRecord> CleanBatchLog(const KeyPointWalOptions& base,
                                       std::vector<uint64_t>* segments) {
  KeyPointWalOptions options = base;
  options.dir = FreshDir("sweep_batch_clean");
  options.fault_injector = nullptr;
  const std::vector<FeedCheckpoint> feed = BatchFeed();
  KeyPointWal wal(options);
  EXPECT_TRUE(wal.Open().ok());
  const std::vector<Result<WalAppendAck>> acks = AppendBatchFeed(wal, feed);
  EXPECT_TRUE(wal.Close().ok());
  std::vector<AckedRecord> records;
  segments->clear();
  for (std::size_t c = 0; c < feed.size(); ++c) {
    EXPECT_TRUE(acks[c].ok()) << "checkpoint " << c;
    if (!acks[c].ok()) break;
    AckedRecord record;
    record.checkpoint.device = feed[c].device;
    record.checkpoint.seq = acks[c].value().seq;
    for (const KeyPoint& k : feed[c].keys) {
      record.checkpoint.points.push_back(wal::Quantize(k, options.quant));
    }
    record.end_offset = static_cast<std::size_t>(acks[c].value().end_offset);
    records.push_back(std::move(record));
    segments->push_back(acks[c].value().segment_index);
  }
  return records;
}

class WalBatchTornWriteTest
    : public ::testing::TestWithParam<WalDurability> {};

TEST_P(WalBatchTornWriteTest, EveryCutOfTheBatchWriteLeavesALogPrefix) {
  // kWriteShortAtByte tears the batch's one write at every byte offset.
  // Recovery must return every checkpoint acked before the batch, the
  // batch records wholly before the tear (a prefix of the batch), nothing
  // after it, and account for every other byte: the same outcome as
  // truncating the clean log's file at that offset.
  KeyPointWalOptions options;
  options.durability = GetParam();
  std::vector<uint64_t> segments;
  const std::vector<AckedRecord> records = CleanBatchLog(options, &segments);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_EQ(segments.back(), 1u) << "the sweep needs one segment";
  const std::size_t batch_start = records[kSingles - 1].end_offset;
  const std::size_t batch_bytes = records.back().end_offset - batch_start;

  const std::vector<FeedCheckpoint> feed = BatchFeed();
  for (std::size_t cut = 0; cut <= batch_bytes; ++cut) {
    FaultInjector injector(2000 + static_cast<uint64_t>(cut));
    KeyPointWalOptions faulty = options;
    faulty.dir = FreshDir("sweep_batch_torn");
    faulty.fault_injector = &injector;
    KeyPointWal wal(faulty);
    ASSERT_TRUE(wal.Open().ok());
    const std::vector<Result<WalAppendAck>> acks =
        AppendBatchFeed(wal, feed, [&] {
          injector.Arm(FaultSite::kWriteShortAtByte, 1.0, /*max_fires=*/1,
                       /*param=*/cut);
        });
    for (std::size_t c = kSingles; c < acks.size(); ++c) {
      EXPECT_FALSE(acks[c].ok()) << "cut " << cut << ": a torn batch acked";
    }
    EXPECT_TRUE(wal.dead());
    EXPECT_FALSE(wal.Append(1, MakeKeys(900, 2, 1.0)).ok());
    ASSERT_TRUE(wal.Close().ok());
    CheckRecoveryAtCut(faulty.dir, batch_start + cut, records);
    if (::testing::Test::HasFailure()) {
      FAIL() << "sweep stopped at cut " << cut << " of " << batch_bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WritingPolicies, WalBatchTornWriteTest,
    ::testing::Values(WalDurability::kFlushEveryBatch,
                      WalDurability::kFsyncEveryBatch,
                      WalDurability::kGroupCommit),
    [](const ::testing::TestParamInfo<WalDurability>& param_info) {
      switch (param_info.param) {
        case WalDurability::kFlushEveryBatch: return "FlushEveryBatch";
        case WalDurability::kFsyncEveryBatch: return "FsyncEveryBatch";
        case WalDurability::kGroupCommit: return "GroupCommit";
        default: return "Unknown";
      }
    });

class WalBatchCrashTest : public ::testing::TestWithParam<WalDurability> {};

TEST_P(WalBatchCrashTest, CrashInsideABatchLeavesALogPrefix) {
  // kCrashAfterWrite kills the writer inside a batch, after its policy
  // ran. The segment size puts a rotation before each batch record in
  // turn (segment_bytes = the end of the record before it), and once past
  // the whole batch. Under every policy but kNone the batch reached the
  // OS, so recovery returns every checkpoint acked before it and all of
  // the batch. Under kNone only what a rotation flushed is on disk: the
  // records of every segment before the batch's last one. Either way it
  // is a prefix of the log, and nothing after the crash is in it.
  const WalDurability policy = GetParam();
  KeyPointWalOptions unbounded;
  unbounded.durability = policy;
  std::vector<uint64_t> segments;
  const std::vector<AckedRecord> one_segment =
      CleanBatchLog(unbounded, &segments);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_EQ(segments.back(), 1u);

  const std::vector<FeedCheckpoint> feed = BatchFeed();
  for (std::size_t k = 0; k <= kBatchEntries; ++k) {
    SCOPED_TRACE("rotation before batch record " + std::to_string(k));
    KeyPointWalOptions options = unbounded;
    options.segment_bytes = one_segment[kSingles + k - 1].end_offset;
    const std::vector<AckedRecord> reference =
        CleanBatchLog(options, &segments);
    ASSERT_FALSE(::testing::Test::HasFailure());
    if (k < kBatchEntries) {
      ASSERT_EQ(segments[kSingles + k - 1], 1u);
      ASSERT_EQ(segments[kSingles + k], 2u);
    } else {
      ASSERT_EQ(segments.back(), 1u);
    }

    FaultInjector injector(3000 + static_cast<uint64_t>(k));
    options.dir = FreshDir("sweep_batch_crash");
    options.fault_injector = &injector;
    KeyPointWal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    const std::vector<Result<WalAppendAck>> acks =
        AppendBatchFeed(wal, feed, [&] {
          injector.Arm(FaultSite::kCrashAfterWrite, 1.0, /*max_fires=*/1);
        });
    for (std::size_t c = kSingles; c < acks.size(); ++c) {
      EXPECT_FALSE(acks[c].ok()) << "a crashed batch acked";
    }
    EXPECT_TRUE(wal.dead());
    EXPECT_FALSE(wal.Append(1, MakeKeys(900, 2, 1.0)).ok());
    ASSERT_TRUE(wal.Close().ok());

    std::size_t survivors = reference.size();
    if (policy == WalDurability::kNone) {
      survivors = 0;
      while (survivors < reference.size() &&
             segments[survivors] < segments.back()) {
        ++survivors;
      }
    }
    std::vector<wal::WalCheckpoint> expected;
    for (std::size_t i = 0; i < survivors; ++i) {
      expected.push_back(reference[i].checkpoint);
    }
    const auto recovered = WalReader::Recover(options.dir);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value().checkpoints, expected);
    EXPECT_TRUE(recovered.value().report.clean());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WalBatchCrashTest,
    ::testing::Values(WalDurability::kNone, WalDurability::kFlushEveryBatch,
                      WalDurability::kFsyncEveryBatch,
                      WalDurability::kGroupCommit),
    [](const ::testing::TestParamInfo<WalDurability>& param_info) {
      switch (param_info.param) {
        case WalDurability::kNone: return "None";
        case WalDurability::kFlushEveryBatch: return "FlushEveryBatch";
        case WalDurability::kFsyncEveryBatch: return "FsyncEveryBatch";
        case WalDurability::kGroupCommit: return "GroupCommit";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace bqs
