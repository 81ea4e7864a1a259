// bqs_cli — command-line trajectory compression.
//
//   $ ./bqs_cli --algo fbqs --epsilon 10 in.csv out.csv
//   $ ./bqs_cli --demo                       # generate + compress a demo
//
// Reads a trajectory CSV ("x,y,t[,vx,vy]" with header, metres/seconds, as
// written by WriteTrajectoryCsv), compresses it with the chosen algorithm,
// writes the retained key points as CSV, and prints verified statistics.
// Malformed arguments (a non-finite or non-positive epsilon, trailing
// characters after a number, an unknown algorithm, metric or option, a
// negative or oversized buffer) exit with status 2 before any work is done.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "eval/algorithms.h"
#include "eval/metrics.h"
#include "simulation/datasets.h"
#include "trajectory/csv_io.h"
#include "trajectory/deviation.h"

namespace {

void Usage() {
  std::printf(
      "usage: bqs_cli [--algo bqs|fbqs|bdp|bgd|dp|dr|squish] "
      "[--epsilon METRES]\n"
      "               [--metric line|segment] [--buffer N] IN.csv OUT.csv\n"
      "       bqs_cli --demo   (compress a generated synthetic stream)\n");
}

bqs::Result<bqs::AlgorithmId> ParseAlgo(const std::string& name) {
  using bqs::AlgorithmId;
  if (name == "bqs") return AlgorithmId::kBqs;
  if (name == "fbqs") return AlgorithmId::kFbqs;
  if (name == "bdp") return AlgorithmId::kBdp;
  if (name == "bgd") return AlgorithmId::kBgd;
  if (name == "dp") return AlgorithmId::kDp;
  if (name == "dr") return AlgorithmId::kDr;
  if (name == "squish") return AlgorithmId::kSquishE;
  return bqs::Status::InvalidArgument("unknown algorithm: " + name);
}

// Whole-argument numeric parses: "10abc" or "" fail instead of being read
// as their numeric prefix.
bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool ParseCount(const char* text, std::size_t* out) {
  // strtoull accepts a sign and wraps "-1" to ULLONG_MAX; a count is
  // digits only.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

// Buffered baselines reserve the whole buffer up front; a larger request
// is a typo, not a workload.
constexpr std::size_t kMaxBufferPoints = std::size_t{1} << 24;

int BadArgument(const std::string& message) {
  std::fprintf(stderr, "bqs_cli: %s\n", message.c_str());
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bqs;

  AlgorithmConfig config;
  config.id = AlgorithmId::kFbqs;
  config.epsilon = 10.0;
  std::string in_path;
  std::string out_path;
  bool demo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      if (in_path.empty()) {
        in_path = arg;
      } else if (out_path.empty()) {
        out_path = arg;
      } else {
        return BadArgument("unexpected argument: " + arg);
      }
      continue;
    }
    if (arg != "--algo" && arg != "--epsilon" && arg != "--metric" &&
        arg != "--buffer") {
      return BadArgument("unknown option: " + arg);
    }
    if (i + 1 >= argc) return BadArgument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--algo") {
      const auto algo = ParseAlgo(value);
      if (!algo.ok()) return BadArgument(algo.status().ToString());
      config.id = algo.value();
    } else if (arg == "--epsilon") {
      if (!ParseDouble(value.c_str(), &config.epsilon) ||
          !std::isfinite(config.epsilon) || config.epsilon <= 0.0) {
        return BadArgument("epsilon must be a positive finite number, got '" +
                           value + "'");
      }
    } else if (arg == "--metric") {
      if (value == "line") {
        config.metric = DistanceMetric::kPointToLine;
      } else if (value == "segment") {
        config.metric = DistanceMetric::kPointToSegment;
      } else {
        return BadArgument("unknown metric: " + value);
      }
    } else if (!ParseCount(value.c_str(), &config.buffer_size) ||
               config.buffer_size > kMaxBufferPoints) {
      return BadArgument("buffer must be an integer in [0, " +
                         std::to_string(kMaxBufferPoints) + "], got '" +
                         value + "'");
    }
  }

  Trajectory stream;
  if (demo) {
    stream = BuildSyntheticDataset(0.2).stream;
    in_path = "(generated synthetic stream)";
    if (out_path.empty()) out_path = "compressed_demo.csv";
  } else {
    if (in_path.empty() || out_path.empty()) {
      Usage();
      return 2;
    }
    auto read = ReadTrajectoryCsv(in_path);
    if (!read.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   read.status().ToString().c_str());
      return 1;
    }
    stream = std::move(read).value();
  }
  if (stream.size() < 2) {
    std::fprintf(stderr, "input has fewer than 2 points\n");
    return 1;
  }

  const RunOutput out = RunAlgorithm(config, stream);
  const CompressionQuality quality = MeasureQuality(
      stream, out.compressed, config.epsilon, config.metric);

  if (const Status st = WriteCompressedCsv(out.compressed, out_path);
      !st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("input:       %s (%zu points)\n", in_path.c_str(),
              stream.size());
  std::printf("algorithm:   %s, epsilon %.2f m (%s metric)\n",
              std::string(AlgorithmName(config.id)).c_str(), config.epsilon,
              config.metric == DistanceMetric::kPointToLine ? "line"
                                                            : "segment");
  std::printf("kept:        %zu points (%.2f%%)\n", quality.points_out,
              100.0 * quality.compression_rate);
  std::printf("max error:   %.3f m (%s)\n", quality.max_deviation,
              quality.error_bounded ? "within bound"
                                    : "EXCEEDS BOUND (metric differs?)");
  std::printf("runtime:     %.2f ms\n", out.runtime_ms);
  std::printf("output:      %s\n", out_path.c_str());
  return 0;
}
