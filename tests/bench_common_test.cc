// Tests for the bench harness glue: ScaleFromArgs argv/env precedence and
// rejection of non-positive or malformed scales, flag parsing, the
// up-front argument check, and the JsonReport emitter.
#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace bqs {
namespace bench {
namespace {

// Helper owning a mutable argv array (ScaleFromArgs takes char**).
class ScaleFromArgsTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("BQS_BENCH_SCALE"); }
  void TearDown() override { unsetenv("BQS_BENCH_SCALE"); }

  static double Run(const char* arg1, double default_scale = 0.35) {
    static char prog[] = "bench";
    static char buf[64];
    char* argv[3] = {prog, nullptr, nullptr};
    int argc = 1;
    if (arg1 != nullptr) {
      std::snprintf(buf, sizeof(buf), "%s", arg1);
      argv[1] = buf;
      argc = 2;
    }
    return ScaleFromArgs(argc, argv, default_scale);
  }
};

TEST_F(ScaleFromArgsTest, DefaultWhenNoArgvNoEnv) {
  EXPECT_DOUBLE_EQ(Run(nullptr), 0.35);
  EXPECT_DOUBLE_EQ(Run(nullptr, 2.0), 2.0);
}

TEST_F(ScaleFromArgsTest, ArgvOverridesDefault) {
  EXPECT_DOUBLE_EQ(Run("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(Run("0.05"), 0.05);
}

TEST_F(ScaleFromArgsTest, EnvOverridesDefault) {
  setenv("BQS_BENCH_SCALE", "0.7", 1);
  EXPECT_DOUBLE_EQ(Run(nullptr), 0.7);
}

TEST_F(ScaleFromArgsTest, ArgvTakesPrecedenceOverEnv) {
  setenv("BQS_BENCH_SCALE", "0.7", 1);
  EXPECT_DOUBLE_EQ(Run("1.25"), 1.25);
}

TEST_F(ScaleFromArgsTest, NonPositiveArgvFallsThroughToEnv) {
  setenv("BQS_BENCH_SCALE", "0.9", 1);
  EXPECT_DOUBLE_EQ(Run("0"), 0.9);
  EXPECT_DOUBLE_EQ(Run("-3.5"), 0.9);
}

TEST_F(ScaleFromArgsTest, NonPositiveEverywhereFallsBackToDefault) {
  setenv("BQS_BENCH_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(Run("0"), 0.35);
  setenv("BQS_BENCH_SCALE", "0", 1);
  EXPECT_DOUBLE_EQ(Run(nullptr, 0.5), 0.5);
}

TEST_F(ScaleFromArgsTest, MalformedInputsAreRejected) {
  // std::atof returns 0.0 on parse failure, which counts as non-positive.
  EXPECT_DOUBLE_EQ(Run("fast"), 0.35);
  setenv("BQS_BENCH_SCALE", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(Run(nullptr), 0.35);
}

TEST_F(ScaleFromArgsTest, LeadingNumberParsesLikeAtof) {
  // atof semantics: trailing junk after a valid prefix is ignored.
  EXPECT_DOUBLE_EQ(Run("2.5x"), 2.5);
}

// --scale flag forms (what the CI smoke run passes), incl. mixed with
// other flags anywhere in argv.
class FlagArgsTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("BQS_BENCH_SCALE"); }
  void TearDown() override { unsetenv("BQS_BENCH_SCALE"); }

  /// Owns the argv storage, so several packs can coexist in one test.
  struct ArgvPack {
    std::vector<std::string> storage;
    std::vector<char*> argv;
    int argc() const { return static_cast<int>(argv.size()); }
    char** data() { return argv.data(); }
  };

  static ArgvPack Argv(std::initializer_list<const char*> args) {
    ArgvPack pack;
    pack.storage.emplace_back("bench");
    pack.storage.insert(pack.storage.end(), args.begin(), args.end());
    // Pointers are taken only after storage stops growing; moving the pack
    // moves the vectors' heap buffers, leaving the strings in place.
    for (std::string& s : pack.storage) pack.argv.push_back(s.data());
    return pack;
  }
};

TEST_F(FlagArgsTest, ScaleFlagWithSeparateValue) {
  auto argv = Argv({"--scale", "0.05"});
  EXPECT_DOUBLE_EQ(ScaleFromArgs(argv.argc(), argv.data()), 0.05);
}

TEST_F(FlagArgsTest, ScaleFlagWithEquals) {
  auto argv = Argv({"--scale=1.25"});
  EXPECT_DOUBLE_EQ(ScaleFromArgs(argv.argc(), argv.data()), 1.25);
}

TEST_F(FlagArgsTest, ScaleFlagAfterOtherFlags) {
  auto argv = Argv({"--out", "x.json", "--scale", "0.7"});
  EXPECT_DOUBLE_EQ(ScaleFromArgs(argv.argc(), argv.data()), 0.7);
}

TEST_F(FlagArgsTest, MalformedScaleFlagFallsBack) {
  auto argv = Argv({"--scale", "zero"});
  EXPECT_DOUBLE_EQ(ScaleFromArgs(argv.argc(), argv.data(), 0.4), 0.4);
}

TEST_F(FlagArgsTest, StringFlagForms) {
  auto argv = Argv({"--scale", "0.1", "--out", "a.json"});
  auto argv2 = Argv({"--out=b.json"});
  auto argv3 = Argv({"0.5"});
  EXPECT_EQ(StringFlag(argv.argc(), argv.data(), "--out", "default.json"),
            "a.json");
  EXPECT_EQ(StringFlag(argv2.argc(), argv2.data(), "--out", "default.json"),
            "b.json");
  EXPECT_EQ(StringFlag(argv3.argc(), argv3.data(), "--out", "default.json"),
            "default.json");
}

// CheckArgs: --help and bad arguments stop a bench before it runs (and
// before it writes its report); the argument shapes CI passes go through.
class CheckArgsTest : public FlagArgsTest {
 protected:
  static std::optional<int> Check(ArgvPack argv) {
    return CheckArgs(argv.argc(), argv.data(), "usage: bench [scale]",
                     {"--out", "--reps", "--min-seq-ratio"});
  }
};

TEST_F(CheckArgsTest, HelpPrintsUsageAndExitsZero) {
  for (const char* help : {"--help", "-h"}) {
    ::testing::internal::CaptureStdout();
    const std::optional<int> code = Check(Argv({"--out", "x.json", help}));
    const std::string printed = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(code, 0) << help;
    EXPECT_EQ(printed, "usage: bench [scale]\n") << help;
  }
}

TEST_F(CheckArgsTest, UnknownFlagExitsTwo) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(Check(Argv({"--bogus"})), 2);
  EXPECT_EQ(Check(Argv({"--scale", "1", "--outt=x.json"})), 2);
  EXPECT_EQ(Check(Argv({"--ou", "x.json"})), 2);
  ::testing::internal::GetCapturedStderr();
}

TEST_F(CheckArgsTest, MissingValueAndStrayPositionalExitTwo) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(Check(Argv({"--out"})), 2);
  EXPECT_EQ(Check(Argv({"0.5", "extra"})), 2);
  EXPECT_EQ(Check(Argv({"--reps", "3", "0.5"})), 2);
  // A leading positional that is not a positive scale would run the bench
  // at the default scale.
  EXPECT_EQ(Check(Argv({"-help"})), 2);
  EXPECT_EQ(Check(Argv({"help"})), 2);
  EXPECT_EQ(Check(Argv({"foo"})), 2);
  EXPECT_EQ(Check(Argv({"0.5x"})), 2);
  EXPECT_EQ(Check(Argv({"0"})), 2);
  EXPECT_EQ(Check(Argv({""})), 2);
  ::testing::internal::GetCapturedStderr();
}

TEST_F(CheckArgsTest, ScaleAndDeclaredFlagsRun) {
  EXPECT_EQ(Check(Argv({})), std::nullopt);
  EXPECT_EQ(Check(Argv({"0.05"})), std::nullopt);
  EXPECT_EQ(Check(Argv({"--scale=1", "--out=a.json"})), std::nullopt);
  // The shapes ci.yml passes.
  EXPECT_EQ(Check(Argv({"--scale", "1", "--reps", "7", "--out",
                        "build/BENCH_throughput.json"})),
            std::nullopt);
  EXPECT_EQ(Check(Argv({"--scale", "1", "--reps", "5", "--min-seq-ratio",
                        "0.75", "--out", "build/BENCH_fleet.json"})),
            std::nullopt);
  // A flag value that looks like a flag is still the value.
  EXPECT_EQ(Check(Argv({"--out", "--help"})), std::nullopt);
}

// IntFlag: the --threads/--threads= forms bench_fleet uses, with env
// fallback and the same non-positive/malformed fall-through as scale.
class IntFlagTest : public FlagArgsTest {
 protected:
  void SetUp() override { unsetenv("BQS_BENCH_THREADS"); }
  void TearDown() override { unsetenv("BQS_BENCH_THREADS"); }
};

TEST_F(IntFlagTest, SeparateAndEqualsForms) {
  auto argv = Argv({"--threads", "4"});
  EXPECT_EQ(IntFlag(argv.argc(), argv.data(), "--threads",
                    "BQS_BENCH_THREADS", 1),
            4);
  auto argv2 = Argv({"--scale", "0.1", "--threads=8"});
  EXPECT_EQ(IntFlag(argv2.argc(), argv2.data(), "--threads",
                    "BQS_BENCH_THREADS", 1),
            8);
}

TEST_F(IntFlagTest, DefaultWhenAbsent) {
  auto argv = Argv({"--scale", "0.1"});
  EXPECT_EQ(IntFlag(argv.argc(), argv.data(), "--threads",
                    "BQS_BENCH_THREADS", 6),
            6);
}

TEST_F(IntFlagTest, EnvFallbackAndArgvPrecedence) {
  setenv("BQS_BENCH_THREADS", "3", 1);
  auto argv = Argv({});
  EXPECT_EQ(IntFlag(argv.argc(), argv.data(), "--threads",
                    "BQS_BENCH_THREADS", 1),
            3);
  auto argv2 = Argv({"--threads", "5"});
  EXPECT_EQ(IntFlag(argv2.argc(), argv2.data(), "--threads",
                    "BQS_BENCH_THREADS", 1),
            5);
  // A null env var name skips the env source entirely.
  EXPECT_EQ(IntFlag(argv.argc(), argv.data(), "--threads", nullptr, 2), 2);
}

TEST_F(IntFlagTest, NonPositiveAndMalformedFallThrough) {
  setenv("BQS_BENCH_THREADS", "7", 1);
  auto argv = Argv({"--threads", "0"});
  EXPECT_EQ(IntFlag(argv.argc(), argv.data(), "--threads",
                    "BQS_BENCH_THREADS", 1),
            7);
  auto argv2 = Argv({"--threads", "-2"});
  EXPECT_EQ(IntFlag(argv2.argc(), argv2.data(), "--threads",
                    "BQS_BENCH_THREADS", 1),
            7);
  setenv("BQS_BENCH_THREADS", "lots", 1);
  auto argv3 = Argv({"--threads=many"});
  EXPECT_EQ(IntFlag(argv3.argc(), argv3.data(), "--threads",
                    "BQS_BENCH_THREADS", 9),
            9);
}

TEST(JsonReportTest, NestedDocumentStructure) {
  JsonReport json;
  json.BeginObject();
  json.Key("schema").Value("bqs-bench-v1");
  json.Key("scale").Value(0.05);
  json.Key("count").Value(uint64_t{12});
  json.Key("delta").Value(-3);
  json.Key("ok").Value(true);
  json.Key("streams").BeginArray();
  json.BeginObject();
  json.Key("name").Value("empirical");
  json.Key("values").BeginArray();
  json.Value(1).Value(2).Value(3);
  json.EndArray();
  json.EndObject();
  json.BeginObject().EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"schema\":\"bqs-bench-v1\",\"scale\":0.05,\"count\":12,"
            "\"delta\":-3,\"ok\":true,\"streams\":[{\"name\":\"empirical\","
            "\"values\":[1,2,3]},{}]}");
}

TEST(JsonReportTest, EscapesStrings) {
  JsonReport json;
  json.BeginObject();
  json.Key("text").Value("a\"b\\c\nd\te\x01");
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"text\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}

TEST(JsonReportTest, WriteFileRoundTrips) {
  JsonReport json;
  json.BeginObject();
  json.Key("x").Value(7);
  json.EndObject();
  const std::string path = ::testing::TempDir() + "/bqs_json_report_test.json";
  ASSERT_TRUE(json.WriteFile(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"x\":7}\n");
}

}  // namespace
}  // namespace bench
}  // namespace bqs
