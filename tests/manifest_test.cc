// MANIFEST codec and atomic publication: round-trips, totality on
// corrupted bytes (every truncation and every byte flip must reject —
// never mis-decode), and the injected failure modes of
// WriteFileAtomic (ENOSPC classification, rename failure leaves the old
// manifest intact).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "storage/manifest.h"

namespace bqs {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Manifest SampleManifest() {
  Manifest m;
  m.quant.time_quantum = 1e-3;
  m.quant.coord_quantum = 1e-3;
  m.last_applied_seq = 41;

  ManifestBlockFile file;
  file.file_id = 7;
  file.file_bytes = 12345;
  ManifestBlockEntry a;
  a.offset = 32;
  a.meta.device = 3;
  a.meta.first_seq = 10;
  a.meta.last_seq = 20;
  a.meta.checkpoint_count = 4;
  a.meta.point_count = 64;
  a.meta.qt_min = -5;
  a.meta.qt_max = 5000;
  a.meta.qx_min = -1000000;
  a.meta.qx_max = 1000000;
  a.meta.qy_min = 17;
  a.meta.qy_max = 17000;
  file.blocks.push_back(a);
  ManifestBlockEntry b = a;
  b.offset = 900;
  b.meta.device = 9;
  b.meta.first_seq = 21;
  b.meta.last_seq = 41;
  file.blocks.push_back(b);
  m.files.push_back(file);

  ManifestBlockFile empty_file;
  empty_file.file_id = 8;
  empty_file.file_bytes = 32;
  m.files.push_back(empty_file);
  return m;
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(ManifestCodecTest, RoundTripsEmptyAndPopulated) {
  for (const Manifest& m : {Manifest{}, SampleManifest()}) {
    std::string bytes;
    ASSERT_TRUE(EncodeManifest(m, &bytes));
    Manifest decoded;
    ASSERT_TRUE(DecodeManifest(AsBytes(bytes), &decoded));
    EXPECT_TRUE(decoded == m);
  }
}

TEST(ManifestCodecTest, EveryTruncationRejects) {
  std::string bytes;
  ASSERT_TRUE(EncodeManifest(SampleManifest(), &bytes));
  Manifest decoded;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    EXPECT_FALSE(DecodeManifest(AsBytes(prefix), &decoded))
        << "prefix of " << cut << " bytes decoded";
  }
  // Trailing garbage after a valid image rejects too (all-or-nothing).
  const std::string padded = bytes + '\0';
  EXPECT_FALSE(DecodeManifest(AsBytes(padded), &decoded));
}

TEST(ManifestCodecTest, EveryByteFlipRejects) {
  std::string bytes;
  ASSERT_TRUE(EncodeManifest(SampleManifest(), &bytes));
  Manifest decoded;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_FALSE(DecodeManifest(AsBytes(corrupt), &decoded))
        << "flip at byte " << i << " decoded";
  }
}

TEST(ManifestIoTest, WriteReadRoundTripAndNotFound) {
  const std::string dir = FreshDir("manifest_io");
  Manifest m;
  EXPECT_EQ(ReadManifest(dir, &m).code(), StatusCode::kNotFound);

  const Manifest written = SampleManifest();
  ASSERT_TRUE(WriteManifest(dir, written).ok());
  ASSERT_TRUE(ReadManifest(dir, &m).ok());
  EXPECT_TRUE(m == written);
  // No temp debris after a clean publication.
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.tmp"));

  // Rewrite with new content: the rename replaces atomically.
  Manifest next = written;
  next.last_applied_seq = 99;
  ASSERT_TRUE(WriteManifest(dir, next).ok());
  ASSERT_TRUE(ReadManifest(dir, &m).ok());
  EXPECT_EQ(m.last_applied_seq, 99u);
}

TEST(ManifestIoTest, CorruptManifestReadsAsCorruption) {
  const std::string dir = FreshDir("manifest_corrupt");
  {
    std::ofstream out(dir + "/MANIFEST", std::ios::binary);
    out << "not a manifest";
  }
  Manifest m;
  EXPECT_EQ(ReadManifest(dir, &m).code(), StatusCode::kCorruption);
}

TEST(ManifestIoTest, InjectedEnospcClassifies) {
  const std::string dir = FreshDir("manifest_enospc");
  FaultInjector injector(/*seed=*/1);
  injector.Arm(FaultSite::kEnospc, /*probability=*/1.0, /*max_fires=*/1);
  const Status st = WriteManifest(dir, SampleManifest(), &injector);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsEnospc(st)) << st.message();
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST"));
  // Once the injected firing is spent, the same call succeeds.
  ASSERT_TRUE(WriteManifest(dir, SampleManifest(), &injector).ok());
  EXPECT_FALSE(IsEnospc(Status::OK()));
  EXPECT_FALSE(IsEnospc(Status::IoError("something else")));
}

TEST(ManifestIoTest, InjectedRenameFailureLeavesOldManifest) {
  const std::string dir = FreshDir("manifest_rename");
  const Manifest old_manifest = SampleManifest();
  ASSERT_TRUE(WriteManifest(dir, old_manifest).ok());

  Manifest next = old_manifest;
  next.last_applied_seq = 777;
  FaultInjector injector(/*seed=*/1);
  injector.Arm(FaultSite::kRenameFail, /*probability=*/1.0, /*max_fires=*/1);
  const Status st = WriteManifest(dir, next, &injector);
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(IsEnospc(st));
  // The failed publication left the previous manifest untouched (the temp
  // file may remain — that is what the compactor's quarantine is for).
  Manifest m;
  ASSERT_TRUE(ReadManifest(dir, &m).ok());
  EXPECT_TRUE(m == old_manifest);
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.tmp"));
}

TEST(ManifestIoTest, CrashPointAbortsBetweenTempAndRename) {
  const std::string dir = FreshDir("manifest_crashpoint");
  int calls = 0;
  const Status st = WriteFileAtomic(
      dir, "MANIFEST", "payload", nullptr, [&]() -> Status {
        ++calls;
        return Status::IoError("simulated crash");
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(calls, 1);  // died at the first crash point: after temp durable
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST"));
}

}  // namespace
}  // namespace bqs
