// The shared storage file layer: one naming rule and one directory listing
// for both numbered families ("wal-*.log", "blk-*.bqb"), driven from one
// table, plus the errno mapping that makes disk-full classifiable wherever
// it strikes.
#include "storage/file_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/keypoint_wal.h"

namespace bqs {
namespace {

struct Family {
  FileFamily family;
  std::string_view prefix;  // spelled out again so the table reads alone
  std::string_view suffix;
};

const Family kFamilies[] = {{kWalSegmentFiles, "wal-", ".log"},
                            {kBlockFiles, "blk-", ".bqb"}};

std::string Name(const Family& f, std::string_view digits) {
  return std::string(f.prefix) + std::string(digits) + std::string(f.suffix);
}

TEST(NumberedFileTest, FormatsCanonicallyAndParsesAnyDigitCount) {
  struct Row {
    std::string_view digits;  // between prefix and suffix
    bool parses;
    uint64_t number;
  };
  const Row rows[] = {
      {"000001", true, 1},
      {"000042", true, 42},
      {"7", true, 7},        // any digit count
      {"01", true, 1},
      {"0000001", true, 1},  // more padding than canonical
      {"1234567", true, 1234567},
      {"9999999999999999999", true, 9999999999999999999ull},  // 19 digits
      {"00000000000000000001", false, 0},  // 20 digits: could overflow
      {"", false, 0},                      // empty
      {"12x", false, 0},                   // non-digit
      {"-1", false, 0},
      {" 1", false, 0},
  };
  for (const Family& f : kFamilies) {
    EXPECT_EQ(NumberedFileName(f.family, 1), Name(f, "000001"));
    EXPECT_EQ(NumberedFileName(f.family, 1234567), Name(f, "1234567"));
    for (const Row& row : rows) {
      const std::string name = Name(f, row.digits);
      SCOPED_TRACE(name);
      uint64_t number = 0;
      EXPECT_EQ(ParseNumberedFileName(f.family, name, &number), row.parses);
      if (row.parses) {
        EXPECT_EQ(number, row.number);
      }
    }
  }
  // Temp files, the other family's names and foreign names.
  for (const std::string_view other :
       {"wal-000001.log.tmp", "blk-000042.bqb.tmp", "MANIFEST", "MANIFEST.tmp",
        "notes.txt", "wal-000001.bqb", "blk-000001.log", "wal-", "blk-.bqb",
        "xwal-000001.log", "wal-000001.logx"}) {
    uint64_t number = 0;
    for (const Family& f : kFamilies) {
      EXPECT_FALSE(ParseNumberedFileName(f.family, other, &number)) << other;
    }
  }
  uint64_t number = 0;
  EXPECT_FALSE(ParseNumberedFileName(kBlockFiles, "wal-000001.log", &number));
  EXPECT_FALSE(ParseNumberedFileName(kWalSegmentFiles, "blk-000001.bqb",
                                     &number));
}

TEST(NumberedFileTest, ListingIsSortedAndSettlesDuplicatesDeterministically) {
  for (const Family& f : kFamilies) {
    const std::string dir =
        std::string(::testing::TempDir()) + "/listing_" + std::string(f.prefix);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto touch = [&](const std::string& name) {
      std::ofstream(dir + "/" + name, std::ios::binary) << name;
    };
    const auto path = [&](std::string_view digits) {
      return dir + "/" + Name(f, digits);
    };
    // Index 1 under four spellings; the canonical one must win although
    // "0000001" sorts before it and the directory order is arbitrary.
    for (const std::string_view digits :
         {"1", "0000001", "000001", "01", "000010", "000002"}) {
      touch(Name(f, digits));
    }
    touch(Name(f, "000002") + ".tmp");
    touch("MANIFEST.tmp");
    touch("notes.txt");
    touch(f.prefix == "wal-" ? "blk-000003.bqb" : "wal-000003.log");
    // Index 3 exists only under other spellings: the smallest path wins.
    touch(Name(f, "3"));
    touch(Name(f, "03"));

    for (int round = 0; round < 3; ++round) {  // deterministic across calls
      Result<NumberedListing> listed = ListNumberedFiles(dir, f.family);
      ASSERT_TRUE(listed.ok()) << listed.status().message();
      const NumberedListing& l = listed.value();
      ASSERT_EQ(l.files.size(), 4u);
      EXPECT_EQ(l.files[0].index, 1u);
      EXPECT_EQ(l.files[0].path, path("000001"));
      EXPECT_EQ(l.files[1].index, 2u);
      EXPECT_EQ(l.files[2].index, 3u);
      EXPECT_EQ(l.files[2].path, path("03"));
      EXPECT_EQ(l.files[3].index, 10u);
      ASSERT_EQ(l.duplicates.size(), 4u);
      EXPECT_EQ(l.duplicates[0].path, path("0000001"));
      EXPECT_EQ(l.duplicates[1].path, path("01"));
      EXPECT_EQ(l.duplicates[2].path, path("1"));
      EXPECT_EQ(l.duplicates[3].path, path("3"));
      EXPECT_EQ(l.temps, (std::vector<std::string>{
                             dir + "/MANIFEST.tmp", path("000002") + ".tmp"}));
    }

    if (f.prefix == "wal-") {
      // The WAL's view: duplicates and temps are quarantined, foreign names
      // are ignored silently.
      std::vector<std::string> ignored;
      Result<std::vector<WalSegmentFile>> segments =
          ListWalSegments(dir, &ignored);
      ASSERT_TRUE(segments.ok());
      ASSERT_EQ(segments.value().size(), 4u);
      EXPECT_EQ(segments.value()[0].path, path("000001"));
      std::sort(ignored.begin(), ignored.end());
      EXPECT_EQ(ignored,
                (std::vector<std::string>{
                    dir + "/MANIFEST.tmp", path("0000001"), path("000002") + ".tmp",
                    path("01"), path("1"), path("3")}));
    }
  }
  EXPECT_EQ(ListNumberedFiles(std::string(::testing::TempDir()) +
                                  "/listing_no_such_dir",
                              kBlockFiles)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(FileIoTest, ErrnoStatusTagsDiskFull) {
  errno = ENOSPC;
  const Status full = ErrnoStatus("write wal-000001.log");
  EXPECT_EQ(full.code(), StatusCode::kIoError);
  EXPECT_TRUE(IsEnospc(full)) << full.message();

  errno = EIO;
  const Status io = ErrnoStatus("write wal-000001.log");
  EXPECT_EQ(io.code(), StatusCode::kIoError);
  EXPECT_FALSE(IsEnospc(io)) << io.message();
  EXPECT_NE(io.message().find("write wal-000001.log"), std::string::npos);

  EXPECT_FALSE(IsEnospc(Status::OK()));
}

TEST(FileIoTest, ReadFileBytesReadsWholeImagesAndReportsMissing) {
  const std::string dir = std::string(::testing::TempDir()) + "/read_bytes";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string bytes = "stale";
  EXPECT_EQ(ReadFileBytes(dir + "/absent", &bytes).code(),
            StatusCode::kNotFound);

  std::ofstream(dir + "/empty", std::ios::binary).flush();
  ASSERT_TRUE(ReadFileBytes(dir + "/empty", &bytes).ok());
  EXPECT_TRUE(bytes.empty());
  const std::string image("a\0b\xff", 4);
  std::ofstream(dir + "/image", std::ios::binary) << image;
  ASSERT_TRUE(ReadFileBytes(dir + "/image", &bytes).ok());
  EXPECT_EQ(bytes, image);
}

}  // namespace
}  // namespace bqs
