// Compaction functional tests: WAL segments drain into columnar blocks
// behind an atomic manifest, recovery off blocks ∪ WAL tail is exact,
// failures degrade (ENOSPC) or retry (rename) per policy, and range
// queries answer off the compressed blocks decoding only what matches.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "storage/compaction.h"
#include "storage/file_io.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"

namespace bqs {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<KeyPoint> MakeKeys(uint64_t start_index, int n, double t0,
                               double x0, double y0) {
  std::vector<KeyPoint> keys;
  for (int i = 0; i < n; ++i) {
    KeyPoint k;
    k.index = start_index + static_cast<uint64_t>(i);
    k.point.t = t0 + i * 5.0;
    k.point.pos = {x0 + i * 3.25, y0 - i * 2.5};
    keys.push_back(k);
  }
  return keys;
}

/// Fills `dir` with a multi-segment WAL (2 devices, forced rotations) and
/// returns every key appended, in append order per device.
void BuildWal(const std::string& dir,
              std::vector<std::vector<KeyPoint>>* appended = nullptr) {
  KeyPointWalOptions options;
  options.dir = dir;
  options.segment_bytes = 256;  // rotate every append or two
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  for (int c = 0; c < 6; ++c) {
    const DeviceId device = 1 + static_cast<DeviceId>(c % 2);
    const std::vector<KeyPoint> keys =
        MakeKeys(static_cast<uint64_t>(c) * 10, 4, 100.0 * c,
                 device == 1 ? 0.0 : 5000.0, device == 1 ? 0.0 : -5000.0);
    ASSERT_TRUE(wal.Append(device, keys).ok());
    if (appended != nullptr) appended->push_back(keys);
  }
  ASSERT_TRUE(wal.Close().ok());
}

/// The ground truth the union must reproduce: a plain WAL recovery taken
/// before any compaction ran.
std::vector<wal::WalCheckpoint> AckedCheckpoints(const std::string& dir) {
  Result<WalRecovery> r = WalReader::Recover(dir);
  EXPECT_TRUE(r.ok());
  return std::move(r.value().checkpoints);
}

void ExpectExactRecovery(const std::string& wal_dir,
                         const std::string& block_dir,
                         const std::vector<wal::WalCheckpoint>& acked) {
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const std::vector<wal::WalCheckpoint>& got = r.value().wal.checkpoints;
  ASSERT_EQ(got.size(), acked.size());
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_TRUE(got[i] == acked[i]) << "checkpoint " << i;
  }
}

std::size_t CountFiles(const std::string& dir, const std::string& suffix) {
  std::size_t n = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

TEST(CompactionTest, CompactsEverythingAndRecoveryIsExact) {
  const std::string wal_dir = FreshDir("compact_basic_wal");
  const std::string block_dir = FreshDir("compact_basic_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);
  ASSERT_GE(acked.size(), 6u);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());

  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.runs_completed, 1u);
  EXPECT_EQ(stats.checkpoints_compacted, acked.size());
  EXPECT_GT(stats.segments_consumed, 1u);  // the WAL really rotated
  EXPECT_EQ(stats.segments_deleted, stats.segments_consumed);
  EXPECT_EQ(stats.block_files_written, 1u);
  EXPECT_GE(stats.blocks_written, 2u);  // one run per device at least

  // The WAL directory is drained; the block directory is published.
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 1u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);
  Manifest manifest;
  ASSERT_TRUE(ReadManifest(block_dir, &manifest).ok());
  EXPECT_EQ(manifest.last_applied_seq, acked.back().seq);

  ExpectExactRecovery(wal_dir, block_dir, acked);
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().report.clean());
  EXPECT_EQ(r.value().report.checkpoints_from_wal, 0u);
  EXPECT_EQ(r.value().wal.next_seq, acked.back().seq + 1);
}

TEST(CompactionTest, RespectsSegmentBoundAndCompactsIncrementally) {
  const std::string wal_dir = FreshDir("compact_incr_wal");
  const std::string block_dir = FreshDir("compact_incr_blk");

  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.segment_bytes = 256;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  for (int c = 0; c < 6; ++c) {
    ASSERT_TRUE(
        wal.Append(1, MakeKeys(static_cast<uint64_t>(c) * 100, 16,
                               100.0 * c, 0.0, 0.0))
            .ok());
  }

  // Ground truth so far: everything acked before any compaction ran.
  std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);
  ASSERT_EQ(acked.size(), 6u);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  // Compact only the sealed segments; the active one stays.
  const uint64_t active = wal.current_segment_index();
  ASSERT_GT(active, 1u);  // the WAL really rotated
  ASSERT_TRUE(compactor.CompactOnce(active).ok());
  EXPECT_EQ(compactor.stats().block_files_written, 1u);
  EXPECT_GE(CountFiles(wal_dir, ".log"), 1u);  // active segment survives
  EXPECT_TRUE(
      std::filesystem::exists(wal_dir + "/wal-00000" +
                              std::to_string(active) + ".log"));

  // More appends, close, compact the rest: a second block file appears and
  // the union is still the exact acked prefix.
  for (int c = 4; c < 7; ++c) {
    ASSERT_TRUE(
        wal.Append(2, MakeKeys(static_cast<uint64_t>(c) * 10, 3,
                               100.0 * c, 9000.0, 9000.0))
            .ok());
  }
  ASSERT_TRUE(wal.Close().ok());
  // The remaining WAL tail overlaps the first six; union by seq.
  for (const wal::WalCheckpoint& c : AckedCheckpoints(wal_dir)) {
    if (c.seq > acked.back().seq) acked.push_back(c);
  }
  ASSERT_EQ(acked.size(), 9u);

  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 2u);
  ExpectExactRecovery(wal_dir, block_dir, acked);

  // A third run with nothing to do is a successful no-op.
  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(compactor.stats().runs_completed, 3u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 2u);
}

/// Every file of `dir` by name, with its bytes.
std::map<std::string, std::string> DirImage(const std::string& dir) {
  std::map<std::string, std::string> image;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    EXPECT_TRUE(ReadFileBytes(entry.path().string(), &bytes).ok());
    image[entry.path().filename().string()] = std::move(bytes);
  }
  return image;
}

TEST(CompactionTest, NoOpRunsLeaveTheBlockDirectoryByteIdentical) {
  // After a real run the compactor keeps the MANIFEST it published and
  // skips cleanup; runs with nothing to drain must not touch the store.
  const std::string wal_dir = FreshDir("compact_noop_wal");
  const std::string block_dir = FreshDir("compact_noop_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  const std::map<std::string, std::string> published = DirImage(block_dir);
  ASSERT_EQ(published.size(), 2u);  // one block file and the MANIFEST
  for (int run = 0; run < 3; ++run) {
    ASSERT_TRUE(compactor.CompactOnce().ok());
    EXPECT_EQ(DirImage(block_dir), published) << "no-op run " << run;
  }
  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.runs_completed, 4u);
  EXPECT_EQ(stats.block_files_written, 1u);
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, FailedManifestPublishIsCleanedUpByTheSameCompactor) {
  // A live compactor (one clean run behind it) publishes a block file and
  // then fails to publish the MANIFEST that names it: every rename try
  // fails. The run leaves a MANIFEST.tmp and an unreferenced block file,
  // and its failure re-arms cleanup, so the same compactor's next run
  // quarantines both before it compacts again.
  const std::string wal_dir = FreshDir("compact_live_fail_wal");
  const std::string block_dir = FreshDir("compact_live_fail_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  // The rename schedule of the failing run: its first rename (the block
  // file) succeeds and the next kCompactionAttempts (every MANIFEST try)
  // fail. Decisions depend only on (seed, site, call index), so a probe
  // injector finds a seed with that schedule.
  uint64_t seed = 1;
  for (;; ++seed) {
    FaultInjector probe(seed);
    probe.Arm(FaultSite::kRenameFail, 0.5);
    bool fits = !probe.ShouldFire(FaultSite::kRenameFail);
    for (uint32_t i = 0; i < kCompactionAttempts; ++i) {
      fits = probe.ShouldFire(FaultSite::kRenameFail) && fits;
    }
    if (fits) break;
    ASSERT_LT(seed, 10000u);
  }
  FaultInjector injector(seed);
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.fault_injector = &injector;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce(2).ok());  // segment 1 only
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 1u);

  injector.Arm(FaultSite::kRenameFail, 0.5,
               /*max_fires=*/kCompactionAttempts);
  const Status failed = compactor.CompactOnce();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(injector.fires(FaultSite::kRenameFail), kCompactionAttempts);
  EXPECT_FALSE(compactor.degraded());
  EXPECT_EQ(compactor.stats().runs_failed, 1u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 2u);  // published, unreferenced
  EXPECT_TRUE(std::filesystem::exists(block_dir + "/MANIFEST.tmp"));
  ExpectExactRecovery(wal_dir, block_dir, acked);

  injector.Arm(FaultSite::kRenameFail, 0.0);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.orphan_tmp_removed, 1u);
  EXPECT_EQ(stats.orphan_blocks_removed, 1u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 2u);
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  ExpectExactRecovery(wal_dir, block_dir, acked);
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().report.clean());
  EXPECT_EQ(r.value().report.unreferenced_blocks, 0u);
}

TEST(CompactionTest, QuarantinesStaleTempAndOrphanBlocks) {
  const std::string wal_dir = FreshDir("compact_debris_wal");
  const std::string block_dir = FreshDir("compact_debris_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  std::filesystem::create_directories(block_dir);
  {
    std::ofstream tmp(block_dir + "/" + BlockFileName(5) + ".tmp",
                      std::ios::binary);
    tmp << "half-written block file";
    std::ofstream mtmp(block_dir + "/MANIFEST.tmp", std::ios::binary);
    mtmp << "half-written manifest";
    std::ofstream orphan(block_dir + "/" + BlockFileName(5),
                         std::ios::binary);
    orphan << "published but never referenced";
  }

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.orphan_tmp_removed, 2u);
  EXPECT_EQ(stats.orphan_blocks_removed, 1u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 1u);  // only the real one
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, PersistentEnospcDegradesAndResetRecovers) {
  const std::string wal_dir = FreshDir("compact_enospc_wal");
  const std::string block_dir = FreshDir("compact_enospc_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  FaultInjector injector(/*seed=*/7);
  injector.Arm(FaultSite::kEnospc, /*probability=*/1.0);  // persistent

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.fault_injector = &injector;
  Compactor compactor(options);

  const Status st = compactor.CompactOnce();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsEnospc(st)) << st.message();
  EXPECT_TRUE(compactor.degraded());
  {
    const CompactionStats stats = compactor.stats();
    EXPECT_EQ(stats.runs_failed, 1u);
    EXPECT_EQ(stats.enospc_events, 1u);
    EXPECT_EQ(stats.last_error_code, StatusCode::kIoError);
    // Exhausted the whole retry budget before degrading: 3 retries after
    // the first try (kCompactionAttempts = 4).
    EXPECT_EQ(stats.io_retries, 3u);
  }
  // Degrade-and-continue: the WAL is untouched, recovery still exact, and
  // further runs are fast no-op errors that do not touch disk.
  EXPECT_GT(CountFiles(wal_dir, ".log"), 0u);
  ExpectExactRecovery(wal_dir, block_dir, acked);
  ASSERT_FALSE(compactor.CompactOnce().ok());
  EXPECT_EQ(compactor.stats().runs_started, 1u);  // degraded runs don't start

  // Space comes back: disarm, re-arm the compactor, and it drains fully.
  injector.Arm(FaultSite::kEnospc, /*probability=*/0.0);
  compactor.ResetDegraded();
  EXPECT_FALSE(compactor.degraded());
  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, RenameFailuresRetryAndSucceed) {
  const std::string wal_dir = FreshDir("compact_rename_wal");
  const std::string block_dir = FreshDir("compact_rename_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  FaultInjector injector(/*seed=*/7);
  injector.Arm(FaultSite::kRenameFail, /*probability=*/1.0, /*max_fires=*/2);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.fault_injector = &injector;
  Compactor compactor(options);

  ASSERT_TRUE(compactor.CompactOnce().ok());
  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.runs_completed, 1u);
  EXPECT_EQ(stats.io_retries, 2u);  // two injected failures, then success
  EXPECT_EQ(stats.runs_failed, 0u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);  // retries left no debris
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, CorruptManifestFallbackRecoversExactly) {
  const std::string wal_dir = FreshDir("compact_fallback_wal");
  const std::string block_dir = FreshDir("compact_fallback_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());

  // Trash the manifest: recovery falls back to scanning published block
  // files and still reproduces the exact acked prefix.
  {
    std::ofstream out(block_dir + "/MANIFEST",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().report.manifest_corrupt);
  EXPECT_FALSE(r.value().report.clean());
  ASSERT_EQ(r.value().wal.checkpoints.size(), acked.size());
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_TRUE(r.value().wal.checkpoints[i] == acked[i]);
  }

  // A compactor refuses to run over a corrupt manifest (it cannot trust
  // the watermark), and does NOT degrade — this is not disk-full.
  Compactor again(options);
  ASSERT_FALSE(again.CompactOnce().ok());
  EXPECT_FALSE(again.degraded());
}

/// A store of three acked checkpoints, all compacted into blk-000001.bqb
/// (the WAL segments are deleted); returns the acked checkpoints.
std::vector<wal::WalCheckpoint> BuildCompactedStore(
    const std::string& wal_dir, const std::string& block_dir) {
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  KeyPointWal wal(wal_options);
  EXPECT_TRUE(wal.Open().ok());
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(wal.Append(1, MakeKeys(static_cast<uint64_t>(c) * 10, 4,
                                       100.0 * c, 0.0, 0.0))
                    .ok());
  }
  EXPECT_TRUE(wal.Close().ok());
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  EXPECT_TRUE(compactor.CompactOnce(UINT64_MAX).ok());
  EXPECT_TRUE(std::filesystem::exists(block_dir + "/blk-000001.bqb"));
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  return acked;
}

TEST(StoreRecoveryTest, ReadsTheBlockFileTheManifestNames) {
  // Other spellings of referenced id 1, sorting before and after the real
  // file in whatever order the directory yields them.
  for (const char* stray : {"blk-1.bqb", "blk-01.bqb", "blk-0000001.bqb"}) {
    SCOPED_TRACE(stray);
    const std::string wal_dir = FreshDir("recover_stray_wal");
    const std::string block_dir = FreshDir("recover_stray_blk");
    const std::vector<wal::WalCheckpoint> acked =
        BuildCompactedStore(wal_dir, block_dir);
    {
      std::ofstream out(block_dir + "/" + stray, std::ios::binary);
      out << "garbage that parses as block file 1 by name only";
    }

    Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
    ASSERT_TRUE(r.ok()) << r.status().message();
    const StoreRecoveryReport& report = r.value().report;
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.block_files_unreadable, 0u);
    EXPECT_EQ(report.block_files_read, 1u);
    ExpectExactRecovery(wal_dir, block_dir, acked);

    // The query path reads the same file.
    Result<BlockStore> store = BlockStore::Open(block_dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    EXPECT_EQ(store.value().block_count(), 1u);

    // The compactor keeps the stray (a spelling of a referenced id is not
    // an orphan) and recovery stays exact after another run.
    CompactionOptions options;
    options.wal_dir = wal_dir;
    options.block_dir = block_dir;
    Compactor compactor(options);
    ASSERT_TRUE(compactor.CompactOnce().ok());
    EXPECT_EQ(compactor.stats().orphan_blocks_removed, 0u);
    ExpectExactRecovery(wal_dir, block_dir, acked);
  }
}

TEST(StoreRecoveryTest, ManifestlessFallbackDropsCopiedBlockFiles) {
  const std::string wal_dir = FreshDir("recover_copy_wal");
  const std::string block_dir = FreshDir("recover_copy_blk");
  const std::vector<wal::WalCheckpoint> acked =
      BuildCompactedStore(wal_dir, block_dir);
  std::filesystem::copy_file(block_dir + "/blk-000001.bqb",
                             block_dir + "/blk-2.bqb");
  {
    std::ofstream out(block_dir + "/MANIFEST",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }

  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const StoreRecoveryReport& report = r.value().report;
  EXPECT_TRUE(report.manifest_corrupt);
  EXPECT_EQ(report.block_files_read, 2u);
  EXPECT_EQ(report.checkpoints_from_blocks, acked.size());
  EXPECT_EQ(report.duplicates_dropped, acked.size());  // the copy's
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(WalHealthTest, StatsReportCauseOfDeath) {
  const std::string dir = FreshDir("wal_health");
  FaultInjector injector(/*seed=*/3);
  injector.Arm(FaultSite::kFsyncFail, /*probability=*/1.0, /*max_fires=*/1);
  KeyPointWalOptions options;
  options.dir = dir;
  options.durability = WalDurability::kFsyncEveryBatch;
  options.fault_injector = &injector;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_TRUE(wal.stats().healthy());

  ASSERT_FALSE(wal.Append(1, MakeKeys(0, 3, 0.0, 0.0, 0.0)).ok());
  EXPECT_TRUE(wal.dead());
  const KeyPointWalStats stats = wal.stats();
  EXPECT_FALSE(stats.healthy());
  EXPECT_EQ(stats.last_error_code, StatusCode::kIoError);
  EXPECT_NE(stats.last_error.find("fsync"), std::string::npos);
}

// --- range queries off compressed blocks ----------------------------------

TEST(BlockStoreTest, RangeQueryPrunesAndHonorsQuantumBound) {
  const std::string wal_dir = FreshDir("blockstore_wal");
  const std::string block_dir = FreshDir("blockstore_blk");

  // Two far-apart clusters so pruning is observable; small blocks so each
  // cluster spans several.
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  std::vector<KeyPoint> originals;
  for (int c = 0; c < 8; ++c) {
    const DeviceId device = 1 + static_cast<DeviceId>(c % 2);
    const double x0 = device == 1 ? 0.0 : 100000.0;
    const double y0 = device == 1 ? 0.0 : 100000.0;
    const std::vector<KeyPoint> keys =
        MakeKeys(static_cast<uint64_t>(c) * 10, 5, 50.0 * c, x0, y0);
    originals.insert(originals.end(), keys.begin(), keys.end());
    ASSERT_TRUE(wal.Append(device, keys).ok());
  }
  ASSERT_TRUE(wal.Close().ok());

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.max_points_per_block = 5;  // one block per checkpoint here
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  ASSERT_GE(compactor.stats().blocks_written, 8u);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  EXPECT_EQ(store.block_count(), compactor.stats().blocks_written);

  const wal::WalQuantization quant = store.manifest().quant;
  const Vec2 center{10.0, -10.0};
  const double radius = 60.0;
  const double t_min = 0.0, t_max = 200.0;

  std::vector<KeyPoint> got;
  RangeQueryStats qstats;
  ASSERT_TRUE(store.Query(center, radius, t_min, t_max, &got, &qstats).ok());

  // Brute-force expectation over the quantized originals (what storage
  // holds): each within quantum/2 per axis of the raw input.
  std::size_t expected = 0;
  for (const KeyPoint& k : originals) {
    const KeyPoint q = wal::Dequantize(wal::Quantize(k, quant), quant);
    EXPECT_LE(std::abs(q.point.t - k.point.t), quant.time_quantum / 2 + 1e-12);
    EXPECT_LE(std::abs(q.point.pos.x - k.point.pos.x),
              quant.coord_quantum / 2 + 1e-12);
    EXPECT_LE(std::abs(q.point.pos.y - k.point.pos.y),
              quant.coord_quantum / 2 + 1e-12);
    if (q.point.t >= t_min && q.point.t <= t_max &&
        Distance(q.point.pos, center) <= radius) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(got.size(), expected);
  EXPECT_EQ(qstats.points_returned, expected);
  for (const KeyPoint& k : got) {
    EXPECT_LE(Distance(k.point.pos, center), radius);
    EXPECT_GE(k.point.t, t_min);
    EXPECT_LE(k.point.t, t_max);
  }

  // Pruning really pruned: the far cluster's blocks were never decoded.
  EXPECT_EQ(qstats.blocks_total, store.block_count());
  EXPECT_LT(qstats.blocks_decoded, qstats.blocks_total);
  EXPECT_LE(qstats.blocks_decoded, qstats.grid_candidates);

  // A query over empty space decodes nothing at all.
  std::vector<KeyPoint> none;
  RangeQueryStats far_stats;
  ASSERT_TRUE(store
                  .Query(Vec2{-50000.0, 50000.0}, 100.0, t_min, t_max, &none,
                         &far_stats)
                  .ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(far_stats.blocks_decoded, 0u);

  // A time window that misses everything prunes by time span alone.
  RangeQueryStats late_stats;
  ASSERT_TRUE(
      store.Query(center, radius, 1e6, 2e6, &none, &late_stats).ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(late_stats.blocks_decoded, 0u);
}

/// Builds a store of `rounds` block files: four devices random-walk around
/// far-apart cluster centers in checkpoints of `points` fixes, every fix
/// one global time step later than the one before, and each round ends
/// with a compaction of the sealed segments. Small blocks, so each file
/// holds several per device.
void BuildMultiFileStore(const std::string& wal_dir,
                         const std::string& block_dir, int rounds,
                         int points = 5) {
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.segment_bytes = 512;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.max_points_per_block = 12;
  Compactor compactor(options);

  Rng rng(0x5eed);
  const Vec2 clusters[] = {{0, 0}, {20000, 0}, {0, 20000}, {20000, 20000}};
  Vec2 pos[4] = {clusters[0], clusters[1], clusters[2], clusters[3]};
  uint64_t index[4] = {0, 0, 0, 0};
  double t = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (int c = 0; c < 24; ++c) {
      const std::size_t d = static_cast<std::size_t>(c % 4);
      std::vector<KeyPoint> keys;
      for (int i = 0; i < points; ++i) {
        pos[d] = pos[d] + Vec2{rng.Uniform(-80, 80), rng.Uniform(-80, 80)};
        KeyPoint k;
        k.index = index[d]++;
        k.point.t = t;
        k.point.pos = pos[d];
        t += 1.0;
        keys.push_back(k);
      }
      ASSERT_TRUE(wal.Append(1 + d, keys).ok());
    }
    ASSERT_TRUE(compactor.CompactOnce(wal.current_segment_index()).ok());
  }
  ASSERT_TRUE(wal.Close().ok());
  ASSERT_TRUE(compactor.CompactOnce().ok());
}

/// Every point of a store, dequantized as recovery reconstructs it, in
/// the order a query returns its hits: block by block in manifest order,
/// each block's checkpoints by seq (a block is one device's run of whole
/// checkpoints, so its meta names them).
std::vector<KeyPoint> StoredPoints(const std::string& wal_dir,
                                   const std::string& block_dir) {
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.value().report.clean());
  const WalRecovery& recovered = r.value().wal;
  Manifest manifest;
  EXPECT_TRUE(ReadManifest(block_dir, &manifest).ok());
  std::vector<KeyPoint> points;
  for (const ManifestBlockFile& file : manifest.files) {
    for (const ManifestBlockEntry& entry : file.blocks) {
      const blk::BlockMeta& m = entry.meta;
      for (const wal::WalCheckpoint& c : recovered.checkpoints) {
        if (c.device != m.device || c.seq < m.first_seq ||
            c.seq > m.last_seq) {
          continue;
        }
        for (const wal::WalPoint& p : c.points) {
          points.push_back(wal::Dequantize(p, recovered.quant));
        }
      }
    }
  }
  std::size_t total = 0;
  for (const wal::WalCheckpoint& c : recovered.checkpoints) {
    total += c.points.size();
  }
  EXPECT_EQ(points.size(), total) << "every point lives in one block";
  return points;
}

/// The brute-force answer, filtered exactly as BlockStore::Query filters
/// and kept in `all`'s order.
std::vector<KeyPoint> ScanAll(const std::vector<KeyPoint>& all, Vec2 center,
                              double radius, double t_min, double t_max) {
  std::vector<KeyPoint> hits;
  for (const KeyPoint& k : all) {
    if (k.point.t < t_min || k.point.t > t_max) continue;
    if (DistanceSq(k.point.pos, center) > radius * radius) continue;
    hits.push_back(k);
  }
  return hits;
}

/// Runs one query, checks it against the brute-force scan over
/// StoredPoints() — same points, same order, unsorted — and returns the
/// number of points it found.
std::size_t ExpectQueryExact(const BlockStore& store,
                             const std::vector<KeyPoint>& all, Vec2 center,
                             double radius, double t_min, double t_max,
                             RangeQueryStats* stats = nullptr) {
  std::vector<KeyPoint> got;
  const Status st = store.Query(center, radius, t_min, t_max, &got, stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(got, ScanAll(all, center, radius, t_min, t_max))
      << "center (" << center.x << ", " << center.y << ") radius " << radius
      << " t [" << t_min << ", " << t_max << "]";
  return got.size();
}

double LatestTime(const std::vector<KeyPoint>& all) {
  double t = all.front().point.t;
  for (const KeyPoint& k : all) t = std::max(t, k.point.t);
  return t;
}

TEST(BlockStoreTest, MultiFileQueriesMatchBruteForce) {
  const std::string wal_dir = FreshDir("blockstore_multi_wal");
  const std::string block_dir = FreshDir("blockstore_multi_blk");
  // 41-point blocks, 2952 points: blocks straddle the store's 2048-point
  // allocation chunks.
  BuildMultiFileStore(wal_dir, block_dir, 3, 41);
  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  ASSERT_GT(all.size(), 2048u);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  ASSERT_GE(store.manifest().files.size(), 3u);
  const double t_end = LatestTime(all);

  Rng rng(0xd1ff);
  const auto last = static_cast<int64_t>(all.size()) - 1;
  uint64_t nonempty = 0;
  for (int q = 0; q < 240; ++q) {
    Vec2 center;
    double radius = 0.0, t_min = 0.0, t_max = 0.0;
    if (q % 3 != 2) {
      // Local: around a stored point, any time window (some span files,
      // some fall past the end of the data).
      const KeyPoint& k =
          all[static_cast<std::size_t>(rng.UniformInt(0, last))];
      center = k.point.pos + Vec2{rng.Uniform(-300, 300),
                                  rng.Uniform(-300, 300)};
      radius = rng.Uniform(0.0, 600.0);
      t_min = rng.Uniform(-50.0, t_end + 50.0);
      t_max = t_min + rng.Uniform(0.0, t_end / 2);
    } else {
      // Area: anywhere over (and beyond) the four clusters.
      center = Vec2{rng.Uniform(-10000, 30000), rng.Uniform(-10000, 30000)};
      radius = rng.Uniform(1000.0, 30000.0);
      t_min = rng.Uniform(-t_end, t_end);
      t_max = t_min + rng.Uniform(0.0, 2 * t_end);
    }
    RangeQueryStats stats;
    ExpectQueryExact(store, all, center, radius, t_min, t_max, &stats);
    EXPECT_EQ(stats.blocks_total, store.block_count());
    EXPECT_LE(stats.blocks_decoded, stats.grid_candidates);
    EXPECT_EQ(stats.blocks_pruned + stats.blocks_decoded,
              stats.grid_candidates);
    if (stats.points_returned > 0) ++nonempty;
  }
  EXPECT_GT(nonempty, 100u);

  // One query spanning every file returns every point.
  RangeQueryStats every;
  ExpectQueryExact(store, all, Vec2{10000, 10000}, 1e6, -1.0, t_end + 1.0,
                   &every);
  EXPECT_EQ(every.points_returned, all.size());
  EXPECT_EQ(every.blocks_decoded, store.block_count());

  // Empty space and an empty time window scan no block at all.
  RangeQueryStats nowhere;
  ExpectQueryExact(store, all, {-90000, 90000}, 500.0, 0.0, t_end, &nowhere);
  EXPECT_EQ(nowhere.blocks_decoded, 0u);
  EXPECT_EQ(nowhere.points_returned, 0u);
  RangeQueryStats never;
  ExpectQueryExact(store, all, {0, 0}, 500.0, t_end + 10, t_end + 20, &never);
  EXPECT_EQ(never.blocks_decoded, 0u);
  EXPECT_EQ(never.points_returned, 0u);
}

TEST(BlockStoreTest, UnsortedBlocksAndBoundaryTimesMatchBruteForce) {
  const std::string wal_dir = FreshDir("blockstore_unsorted_wal");
  const std::string block_dir = FreshDir("blockstore_unsorted_blk");
  // One block per device, each device in its own corner of the plane:
  // device 1 goes back in time inside a checkpoint, device 2 repeats
  // timestamps, device 3 is sorted within each checkpoint but its second
  // checkpoint starts before its first ends.
  const std::vector<std::vector<double>> times = {
      {100, 90, 95, 80, 120, 110},
      {0, 10, 10, 10, 20, 30, 30, 40},
      {200, 210, 220, 230},
      {150, 160, 170},
  };
  const DeviceId devices[] = {1, 2, 3, 3};
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  uint64_t index = 0;
  for (std::size_t c = 0; c < times.size(); ++c) {
    const double corner = 10000.0 * static_cast<double>(devices[c]);
    std::vector<KeyPoint> keys;
    for (const double t : times[c]) {
      KeyPoint k;
      k.index = index++;
      k.point.t = t;
      k.point.pos = {corner + 7.0 * static_cast<double>(keys.size()),
                     -corner};
      keys.push_back(k);
    }
    ASSERT_TRUE(wal.Append(devices[c], keys).ok());
  }
  ASSERT_TRUE(wal.Close().ok());
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());

  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  ASSERT_EQ(store.block_count(), 3u);

  // Every window whose ends are stored times (or just past them), over
  // the whole plane and over each device's corner.
  std::vector<double> ends;
  for (const KeyPoint& k : all) {
    ends.push_back(k.point.t);
    ends.push_back(k.point.t + 0.5);
  }
  std::vector<Vec2> centers = {{20000, -20000}};
  for (const double d : {1.0, 2.0, 3.0}) {
    centers.push_back({10000.0 * d, -10000.0 * d});
  }
  for (const Vec2 center : centers) {
    const double radius = center == centers[0] ? 1e5 : 100.0;
    for (const double t_min : ends) {
      for (const double t_max : ends) {
        ExpectQueryExact(store, all, center, radius, t_min, t_max);
      }
    }
  }

  // Only device 1's block, a window holding one point: the unsorted block
  // is one zone, scanned in full. So is device 2's sorted block, whose
  // window holds three duplicates.
  ASSERT_LE(times[1].size(), BlockStore::kZonePoints);
  RangeQueryStats unsorted;
  EXPECT_EQ(ExpectQueryExact(store, all, centers[1], 100.0, 95, 95,
                             &unsorted),
            1u);
  EXPECT_EQ(unsorted.blocks_decoded, 1u);
  EXPECT_EQ(unsorted.points_scanned, times[0].size());
  RangeQueryStats sorted;
  EXPECT_EQ(ExpectQueryExact(store, all, centers[2], 100.0, 10, 10, &sorted),
            3u);
  EXPECT_EQ(sorted.blocks_decoded, 1u);
  EXPECT_EQ(sorted.points_scanned, times[1].size());
  RangeQueryStats crossed;
  EXPECT_EQ(ExpectQueryExact(store, all, centers[3], 100.0, 160, 210,
                             &crossed),
            4u);
  EXPECT_EQ(crossed.points_scanned, times[2].size() + times[3].size());
}

/// Compacts `blocks` into a store holding each as one block: block b is
/// device b + 1's only checkpoint, so manifest order is `blocks` order.
void BuildStoreOfBlocks(const std::string& wal_dir,
                        const std::string& block_dir,
                        const std::vector<std::vector<KeyPoint>>& blocks) {
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    ASSERT_TRUE(wal.Append(1 + b, blocks[b]).ok());
  }
  ASSERT_TRUE(wal.Close().ok());
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  ASSERT_EQ(compactor.stats().blocks_written, blocks.size());
}

/// `n` key points of a random walk from `start`, one per `dt` seconds
/// from `t0`.
std::vector<KeyPoint> RandomWalk(Rng& rng, int n, Vec2 start, double t0,
                                 double dt, double step = 40.0) {
  std::vector<KeyPoint> keys;
  Vec2 pos = start;
  for (int i = 0; i < n; ++i) {
    pos = pos + Vec2{rng.Uniform(-step, step), rng.Uniform(-step, step)};
    KeyPoint k;
    k.index = static_cast<uint64_t>(i);
    k.point.t = t0 + dt * i;
    k.point.pos = pos;
    keys.push_back(k);
  }
  return keys;
}

/// A zone as BlockStore forms it: points [begin, end) of the store, in
/// block `block`, and their time span and bbox.
struct Zone {
  std::size_t block = 0;
  std::size_t begin = 0, end = 0;
  double t0 = 0, t1 = 0, x0 = 0, x1 = 0, y0 = 0, y1 = 0;
};

/// The zones of a store whose blocks hold `block_sizes` points, in order,
/// over the stored points `all`.
std::vector<Zone> ZonesOf(const std::vector<KeyPoint>& all,
                          const std::vector<std::size_t>& block_sizes) {
  std::vector<Zone> zones;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < block_sizes.size(); ++b) {
    const std::size_t size = block_sizes[b];
    for (std::size_t z = begin; z < begin + size;
         z += BlockStore::kZonePoints) {
      Zone zone;
      zone.block = b;
      zone.begin = z;
      zone.end = std::min(begin + size, z + BlockStore::kZonePoints);
      const TrackPoint& first = all[z].point;
      zone.t0 = zone.t1 = first.t;
      zone.x0 = zone.x1 = first.pos.x;
      zone.y0 = zone.y1 = first.pos.y;
      for (std::size_t i = z; i < zone.end; ++i) {
        const TrackPoint& p = all[i].point;
        zone.t0 = std::min(zone.t0, p.t);
        zone.t1 = std::max(zone.t1, p.t);
        zone.x0 = std::min(zone.x0, p.pos.x);
        zone.x1 = std::max(zone.x1, p.pos.x);
        zone.y0 = std::min(zone.y0, p.pos.y);
        zone.y1 = std::max(zone.y1, p.pos.y);
      }
      zones.push_back(zone);
    }
    begin += size;
  }
  EXPECT_EQ(begin, all.size());
  return zones;
}

TEST(BlockStoreTest, ZoneSizedBlocksMatchBruteForce) {
  const std::string wal_dir = FreshDir("blockstore_zone_sizes_wal");
  const std::string block_dir = FreshDir("blockstore_zone_sizes_blk");
  // Blocks of one point, one short of a zone, one zone, one past it and
  // two zones and one, all walking around the same corner of the plane.
  const std::vector<std::size_t> sizes = {1, 15, 16, 17, 33};
  ASSERT_EQ(BlockStore::kZonePoints, 16u);
  Rng rng(0x20e5);
  std::vector<std::vector<KeyPoint>> blocks;
  for (const std::size_t n : sizes) {
    blocks.push_back(RandomWalk(rng, static_cast<int>(n), {0, 0},
                                rng.Uniform(0.0, 20.0), 3.0));
  }
  BuildStoreOfBlocks(wal_dir, block_dir, blocks);
  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  const std::vector<Zone> zones = ZonesOf(all, sizes);
  ASSERT_EQ(zones.size(), 1u + 1u + 1u + 2u + 3u);

  // Windows whose ends are stored times (or just past them), circles
  // around stored points from a point query up to the whole cluster.
  std::vector<double> ends;
  for (const KeyPoint& k : all) {
    ends.push_back(k.point.t);
    ends.push_back(k.point.t + 0.5);
  }
  for (std::size_t c = 0; c < all.size(); c += 7) {
    for (const double radius : {0.0, 30.0, 120.0, 1e4}) {
      for (std::size_t a = 0; a < ends.size(); a += 5) {
        for (std::size_t b = a; b < ends.size(); b += 9) {
          ExpectQueryExact(store, all, all[c].point.pos, radius,
                           std::min(ends[a], ends[b]),
                           std::max(ends[a], ends[b]));
        }
      }
    }
  }

  // Everything: every zone scanned, none pruned.
  RangeQueryStats every;
  ExpectQueryExact(store, all, {0, 0}, 1e6, -1.0, 1e6, &every);
  EXPECT_EQ(every.points_returned, all.size());
  EXPECT_EQ(every.points_scanned, all.size());
  EXPECT_EQ(every.zones_pruned, 0u);
  // One zone's time span alone: of the blocks that overlap it, only the
  // zones that overlap it are read, and the rest count as pruned.
  std::vector<double> block_t0(sizes.size(), 1e9), block_t1(sizes.size(), 0);
  for (const Zone& zone : zones) {
    block_t0[zone.block] = std::min(block_t0[zone.block], zone.t0);
    block_t1[zone.block] = std::max(block_t1[zone.block], zone.t1);
  }
  for (const Zone& zone : zones) {
    RangeQueryStats one;
    ExpectQueryExact(store, all, {0, 0}, 1e6, zone.t0, zone.t1, &one);
    std::size_t pruned = 0, points = 0;
    for (const Zone& other : zones) {
      if (block_t1[other.block] < zone.t0 || block_t0[other.block] > zone.t1) {
        continue;
      }
      if (other.t1 >= zone.t0 && other.t0 <= zone.t1) {
        points += other.end - other.begin;
      } else {
        ++pruned;
      }
    }
    EXPECT_EQ(one.points_scanned, points);
    EXPECT_EQ(one.zones_pruned, pruned);
  }
}

TEST(BlockStoreTest, UnsortedZonesWithDuplicateTimesMatchBruteForce) {
  const std::string wal_dir = FreshDir("blockstore_unsorted_zones_wal");
  const std::string block_dir = FreshDir("blockstore_unsorted_zones_blk");
  // Three multi-zone blocks whose timestamps jump back and forth over a
  // handful of values, so most zones share times with others.
  Rng rng(0xd0b1);
  std::vector<std::vector<KeyPoint>> blocks;
  for (const int n : {40, 57, 70}) {
    std::vector<KeyPoint> keys = RandomWalk(rng, n, {500, 500}, 0.0, 1.0);
    for (KeyPoint& k : keys) {
      k.point.t = 5.0 * static_cast<double>(rng.UniformInt(0, 12));
    }
    blocks.push_back(keys);
  }
  BuildStoreOfBlocks(wal_dir, block_dir, blocks);
  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();

  std::vector<double> ends = {-1.0, 61.0};
  for (int v = 0; v <= 12; ++v) {
    ends.push_back(5.0 * v);
    ends.push_back(5.0 * v + 2.5);
  }
  uint64_t pruned = 0;
  for (std::size_t c = 0; c < all.size(); c += 5) {
    for (const double radius : {0.0, 50.0, 200.0, 1e4}) {
      for (const double t_min : ends) {
        for (const double t_max : ends) {
          RangeQueryStats stats;
          ExpectQueryExact(store, all, all[c].point.pos, radius, t_min, t_max,
                           &stats);
          EXPECT_LE(stats.points_returned, stats.points_scanned);
          pruned += stats.zones_pruned;
        }
      }
    }
  }
  // Unsorted zones still prune, by space if not by time.
  EXPECT_GT(pruned, 0u);
}

TEST(BlockStoreTest, QueriesTouchingZoneBoundsMatchBruteForce) {
  const std::string wal_dir = FreshDir("blockstore_touch_wal");
  const std::string block_dir = FreshDir("blockstore_touch_blk");
  Rng rng(0x7011c);
  std::vector<std::vector<KeyPoint>> blocks;
  std::vector<std::size_t> sizes;
  for (const int n : {16, 37, 64}) {
    blocks.push_back(RandomWalk(rng, n, {-300, 800}, 0.0, 2.0, 120.0));
    sizes.push_back(static_cast<std::size_t>(n));
  }
  // The middle block goes back in time every few points.
  for (std::size_t i = 0; i < blocks[1].size(); ++i) {
    blocks[1][i].point.t = static_cast<double>((i * 7) % 23);
  }
  BuildStoreOfBlocks(wal_dir, block_dir, blocks);
  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();

  for (const Zone& zone : ZonesOf(all, sizes)) {
    // Windows that end exactly on the zone's first or last time.
    for (const double width : {0.0, 3.0}) {
      EXPECT_GT(ExpectQueryExact(store, all, {0, 0}, 1e6, zone.t1,
                                 zone.t1 + width),
                0u);
      EXPECT_GT(ExpectQueryExact(store, all, {0, 0}, 1e6, zone.t0 - width,
                                 zone.t0),
                0u);
    }
    // Circles that touch the zone's bbox from outside, on each side, at
    // the point that sets that side: the test's own distance to it is
    // exactly the radius.
    for (std::size_t i = zone.begin; i < zone.end; ++i) {
      const Vec2 p = all[i].point.pos;
      for (const double gap : {0.0, 1.0, 37.5}) {
        std::vector<Vec2> centers;
        if (p.x == zone.x1) centers.push_back({p.x + gap, p.y});
        if (p.x == zone.x0) centers.push_back({p.x - gap, p.y});
        if (p.y == zone.y1) centers.push_back({p.x, p.y + gap});
        if (p.y == zone.y0) centers.push_back({p.x, p.y - gap});
        for (const Vec2 center : centers) {
          const double radius = std::sqrt(DistanceSq(p, center));
          ASSERT_EQ(radius * radius, DistanceSq(p, center));
          EXPECT_GT(ExpectQueryExact(store, all, center, radius, zone.t0,
                                     zone.t1),
                    0u);
          ExpectQueryExact(store, all, center, std::nextafter(radius, 0.0),
                           zone.t0, zone.t1);
        }
      }
    }
  }
}

TEST(BlockStoreTest, OnePointWindowReadsAtMostTwoZones) {
  const std::string wal_dir = FreshDir("blockstore_one_point_wal");
  const std::string block_dir = FreshDir("blockstore_one_point_blk");
  // One long time-sorted block; every fifth time repeats the one before,
  // so some windows straddle a zone boundary.
  Rng rng(0x1e9);
  std::vector<KeyPoint> keys = RandomWalk(rng, 500, {0, 0}, 0.0, 1.0);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    keys[i].point.t = keys[i - 1].point.t + (i % 5 == 0 ? 0.0 : 1.0);
  }
  BuildStoreOfBlocks(wal_dir, block_dir, {keys});
  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  const std::size_t zones =
      (all.size() + BlockStore::kZonePoints - 1) / BlockStore::kZonePoints;

  bool straddled = false;
  for (const KeyPoint& k : all) {
    RangeQueryStats stats;
    EXPECT_GT(ExpectQueryExact(store, all, {0, 0}, 1e6, k.point.t, k.point.t,
                               &stats),
              0u);
    EXPECT_EQ(stats.blocks_decoded, 1u);
    EXPECT_LE(stats.points_scanned, 2 * BlockStore::kZonePoints);
    EXPECT_GE(stats.zones_pruned, zones - 2);
    if (stats.zones_pruned == zones - 2) straddled = true;
  }
  EXPECT_TRUE(straddled) << "no window crossed a zone boundary";
}

TEST(BlockStoreTest, RandomizedStoresMatchBruteForce) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    const std::string wal_dir =
        FreshDir("blockstore_random_wal_" + std::to_string(seed));
    const std::string block_dir =
        FreshDir("blockstore_random_blk_" + std::to_string(seed));
    Rng rng(0xb10c + seed);

    // Devices walk around nearby centers in checkpoints of 1-40 points;
    // some devices' times step back now and then. A few compaction
    // rounds make a multi-file store, with random block sizes.
    KeyPointWalOptions wal_options;
    wal_options.dir = wal_dir;
    wal_options.segment_bytes = 1024;
    KeyPointWal wal(wal_options);
    ASSERT_TRUE(wal.Open().ok());
    CompactionOptions options;
    options.wal_dir = wal_dir;
    options.block_dir = block_dir;
    options.max_points_per_block =
        static_cast<std::size_t>(rng.UniformInt(1, 80));
    Compactor compactor(options);
    const int devices = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<Vec2> pos;
    std::vector<double> t(static_cast<std::size_t>(devices), 0.0);
    std::vector<uint64_t> index(static_cast<std::size_t>(devices), 0);
    for (int d = 0; d < devices; ++d) {
      pos.push_back({rng.Uniform(-3000, 3000), rng.Uniform(-3000, 3000)});
    }
    const int rounds = static_cast<int>(rng.UniformInt(1, 4));
    for (int r = 0; r < rounds; ++r) {
      for (int c = 0; c < 12; ++c) {
        const auto d = static_cast<std::size_t>(rng.UniformInt(0, devices - 1));
        const bool jumpy = d % 2 == 1;
        std::vector<KeyPoint> keys;
        const int n = static_cast<int>(rng.UniformInt(1, 40));
        for (int i = 0; i < n; ++i) {
          pos[d] = pos[d] + Vec2{rng.Uniform(-90, 90), rng.Uniform(-90, 90)};
          t[d] += jumpy ? rng.Uniform(-8.0, 10.0) : rng.Uniform(0.0, 4.0);
          KeyPoint k;
          k.index = index[d]++;
          k.point.t = t[d];
          k.point.pos = pos[d];
          keys.push_back(k);
        }
        ASSERT_TRUE(wal.Append(1 + d, keys).ok());
      }
      ASSERT_TRUE(compactor.CompactOnce(wal.current_segment_index()).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
    ASSERT_TRUE(compactor.CompactOnce().ok());

    const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
    ASSERT_FALSE(all.empty());
    Result<BlockStore> opened = BlockStore::Open(block_dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    const BlockStore& store = opened.value();
    double t_lo = all.front().point.t, t_hi = t_lo;
    for (const KeyPoint& k : all) {
      t_lo = std::min(t_lo, k.point.t);
      t_hi = std::max(t_hi, k.point.t);
    }
    const auto last = static_cast<int64_t>(all.size()) - 1;
    for (int q = 0; q < 300; ++q) {
      const KeyPoint& k =
          all[static_cast<std::size_t>(rng.UniformInt(0, last))];
      const Vec2 center =
          k.point.pos + Vec2{rng.Uniform(-200, 200), rng.Uniform(-200, 200)};
      const double radius =
          q % 4 == 0 ? rng.Uniform(0.0, 8000.0) : rng.Uniform(0.0, 400.0);
      double t_min = rng.Uniform(t_lo - 10.0, t_hi + 10.0);
      double t_max = t_min + rng.Uniform(0.0, 0.3 * (t_hi - t_lo) + 1.0);
      if (q % 5 == 0) t_min = t_max = k.point.t;
      RangeQueryStats stats;
      ExpectQueryExact(store, all, center, radius, t_min, t_max, &stats);
      EXPECT_EQ(stats.blocks_pruned + stats.blocks_decoded,
                stats.grid_candidates);
      EXPECT_LE(stats.points_returned, stats.points_scanned);
    }
  }
}

TEST(BlockStoreTest, DamagedBlocksFailOnlyTheQueriesThatReachThem) {
  const std::string wal_dir = FreshDir("blockstore_damaged_wal");
  const std::string block_dir = FreshDir("blockstore_damaged_blk");
  BuildMultiFileStore(wal_dir, block_dir, 3);
  const std::vector<KeyPoint> all = StoredPoints(wal_dir, block_dir);
  Manifest manifest;
  ASSERT_TRUE(ReadManifest(block_dir, &manifest).ok());
  ASSERT_GE(manifest.files.size(), 3u);
  const double cq = manifest.quant.coord_quantum;
  const double tq = manifest.quant.time_quantum;
  const auto center_of = [&](const blk::BlockMeta& m) {
    return Vec2{0.5 * static_cast<double>(m.qx_min + m.qx_max) * cq,
                0.5 * static_cast<double>(m.qy_min + m.qy_max) * cq};
  };
  const double t_end = LatestTime(all);
  // Queries that prune the damaged blocks answer exactly, and not emptily.
  const auto expect_answered = [&](const BlockStore& bs, Vec2 center,
                                   double radius, double t_min, double t_max) {
    EXPECT_GT(ExpectQueryExact(bs, all, center, radius, t_min, t_max), 0u);
  };

  // Flip one byte in the middle of the first block's frame.
  {
    const ManifestBlockFile& file = manifest.files[0];
    ASSERT_GE(file.blocks.size(), 2u);
    const uint64_t at = (file.blocks[0].offset + file.blocks[1].offset) / 2;
    const std::string path = block_dir + "/" + BlockFileName(file.file_id);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&byte, 1);
  }
  {
    Result<BlockStore> opened = BlockStore::Open(block_dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    const BlockStore& store = opened.value();
    const blk::BlockMeta& bad = manifest.files[0].blocks[0].meta;
    const double bad_t0 = static_cast<double>(bad.qt_min) * tq;
    const double bad_t1 = static_cast<double>(bad.qt_max) * tq;

    std::vector<KeyPoint> got;
    const Status st = store.Query(center_of(bad), 1.0, bad_t0, bad_t1, &got);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();

    // Same place, after the damaged block's time span: pruned by time.
    expect_answered(store, center_of(bad), 2000.0, bad_t1 + 1.0, t_end);
    // Every other cluster, all of time: pruned by space.
    for (const ManifestBlockEntry& entry : manifest.files[2].blocks) {
      if (entry.meta.device == bad.device) continue;
      expect_answered(store, center_of(entry.meta), 3000.0, 0.0, t_end);
    }
  }

  // Delete the middle file outright.
  const ManifestBlockFile& gone = manifest.files[1];
  const std::string gone_path = block_dir + "/" + BlockFileName(gone.file_id);
  ASSERT_TRUE(std::filesystem::remove(gone_path));
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  double gone_t0 = t_end, gone_t1 = 0.0;
  for (const ManifestBlockEntry& entry : gone.blocks) {
    gone_t0 = std::min(gone_t0, static_cast<double>(entry.meta.qt_min) * tq);
    gone_t1 = std::max(gone_t1, static_cast<double>(entry.meta.qt_max) * tq);
  }
  const blk::BlockMeta& missing = gone.blocks.front().meta;
  std::vector<KeyPoint> got;
  const double missing_t0 = static_cast<double>(missing.qt_min) * tq;
  const double missing_t1 = static_cast<double>(missing.qt_max) * tq;
  const Status st =
      store.Query(center_of(missing), 1.0, missing_t0, missing_t1, &got);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  // Windows before or after the missing file's time span never reach it;
  // the earlier ones also stay clear of the damaged block's cluster.
  for (const ManifestBlockEntry& entry : manifest.files[2].blocks) {
    expect_answered(store, center_of(entry.meta), 3000.0, gone_t1 + 1.0, t_end);
    if (entry.meta.device == manifest.files[0].blocks[0].meta.device) {
      continue;
    }
    expect_answered(store, center_of(entry.meta), 3000.0, 0.0, gone_t0 - 1.0);
  }
}

TEST(BlockStoreTest, QueryRejectsNonFiniteAndNegativeArguments) {
  const std::string wal_dir = FreshDir("blockstore_args_wal");
  const std::string block_dir = FreshDir("blockstore_args_blk");
  BuildMultiFileStore(wal_dir, block_dir, 1);
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();

  const auto expect_rejected = [&](Vec2 center, double radius, double t_min,
                                   double t_max) {
    std::vector<KeyPoint> got;
    const Status st = store.Query(center, radius, t_min, t_max, &got);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_TRUE(got.empty());
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected({nan, 0}, 100, 0, 1e9);
  expect_rejected({0, nan}, 100, 0, 1e9);
  expect_rejected({inf, 0}, 100, 0, 1e9);
  expect_rejected({0, 0}, nan, 0, 1e9);
  expect_rejected({0, 0}, inf, 0, 1e9);
  expect_rejected({0, 0}, 100, nan, 1e9);
  expect_rejected({0, 0}, 100, -inf, 1e9);
  expect_rejected({0, 0}, 100, 0, inf);
  // A negative radius used to return the points within |radius|.
  expect_rejected({0, 0}, -1.0, 0, 1e9);
  expect_rejected({0, 0}, -1e9, 0, 1e9);
  // A zero radius is a valid (point) query.
  std::vector<KeyPoint> got;
  EXPECT_TRUE(store.Query({0, 0}, 0.0, 0, 1e9, &got).ok());
}

TEST(BlockStoreTest, OpenReportsNotFoundWithoutManifest) {
  const std::string dir = FreshDir("blockstore_empty");
  std::filesystem::create_directories(dir);
  Result<BlockStore> opened = BlockStore::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bqs
