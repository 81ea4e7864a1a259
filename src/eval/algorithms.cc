#include "eval/algorithms.h"

#include <chrono>

#include "baselines/buffered_dp.h"
#include "baselines/buffered_greedy.h"
#include "baselines/dead_reckoning.h"
#include "baselines/douglas_peucker.h"
#include "baselines/squish_e.h"
#include "core/bqs_compressor.h"
#include "core/fbqs_compressor.h"

namespace bqs {

std::string_view AlgorithmName(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kBqs:
      return "BQS";
    case AlgorithmId::kFbqs:
      return "FBQS";
    case AlgorithmId::kBdp:
      return "BDP";
    case AlgorithmId::kBgd:
      return "BGD";
    case AlgorithmId::kDp:
      return "DP";
    case AlgorithmId::kDr:
      return "DR";
    case AlgorithmId::kSquishE:
      return "SQUISH-E";
  }
  return "";
}

bool IsStreaming(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kBqs:
    case AlgorithmId::kFbqs:
    case AlgorithmId::kBdp:
    case AlgorithmId::kBgd:
    case AlgorithmId::kDr:
      return true;
    case AlgorithmId::kDp:
    case AlgorithmId::kSquishE:
      return false;
  }
  return false;
}

std::unique_ptr<StreamCompressor> MakeStreamCompressor(
    const AlgorithmConfig& config) {
  switch (config.id) {
    case AlgorithmId::kBqs:
    case AlgorithmId::kFbqs: {
      const BqsOptions options{config.epsilon, config.metric};
      if (config.id == AlgorithmId::kBqs) {
        return std::make_unique<BqsCompressor>(options);
      }
      return std::make_unique<FbqsCompressor>(options);
    }
    case AlgorithmId::kBdp: {
      BufferedDpOptions options;
      options.epsilon = config.epsilon;
      options.metric = config.metric;
      options.buffer_size = config.buffer_size;
      return std::make_unique<BufferedDp>(options);
    }
    case AlgorithmId::kBgd: {
      BufferedGreedyOptions options;
      options.epsilon = config.epsilon;
      options.metric = config.metric;
      options.buffer_size = config.buffer_size;
      return std::make_unique<BufferedGreedy>(options);
    }
    case AlgorithmId::kDr: {
      DeadReckoningOptions options;
      options.epsilon = config.epsilon;
      return std::make_unique<DeadReckoning>(options);
    }
    case AlgorithmId::kDp:
    case AlgorithmId::kSquishE:
      return nullptr;
  }
  return nullptr;
}

RunOutput RunAlgorithm(const AlgorithmConfig& config,
                       std::span<const TrackPoint> points) {
  RunOutput out;
  const auto start = std::chrono::steady_clock::now();

  if (auto stream = MakeStreamCompressor(config)) {
    out.compressed = CompressAll(*stream, points);
    if (const DecisionStats* stats = stream->decision_stats()) {
      out.stats = *stats;
      out.has_stats = true;
    }
  } else if (config.id == AlgorithmId::kDp) {
    DouglasPeucker dp(DpOptions{config.epsilon, config.metric});
    out.compressed = dp.Compress(points);
  } else {
    SquishEOptions options;
    options.epsilon = config.epsilon;
    SquishE squish(options);
    out.compressed = squish.Compress(points);
  }

  const auto end = std::chrono::steady_clock::now();
  out.runtime_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return out;
}

}  // namespace bqs
