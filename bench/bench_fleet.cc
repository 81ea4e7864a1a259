// Fleet ingest bench + machine-readable baseline (BENCH_fleet.json).
//
// Measures FleetEngine throughput (points/sec, interleaved multi-vehicle
// feed, ingest through FinishAll) across ingest modes — inline (shards=0,
// no threads or queues) and the sharded pipeline as the shard count grows
// — against the sequential reference: every device's stream compressed
// alone through CompressAll on one thread. Every fleet run is
// checksum-verified per device against that reference; the FleetEngine
// invariant is that ingest mode never changes any device's compressed
// output. Pipeline counters (coalesced runs, block recycling, wakes,
// backpressure, queue depth) are reported so regressions can be localized.
//
// Rows are timed round-robin: each round runs a calibration pass (CRC32C
// over the feed's bytes, work the engine never does), the sequential
// reference, then every engine configuration, so a slow stretch of the
// host lands on all rows of that round alike. Every statistic is the
// median over rounds. A row's service cost is its ns/fix minus the
// sequential kernel's ns/fix in the same round: what the engine adds on
// top of the kernel it runs. Dividing it by the round's calibration ns/fix
// gives `service_ratio`, a cost in units of the host's own speed, which a
// faster kernel cannot move.
//
// The run FAILS (exit 1, so CI fails) if:
//   - any per-device output diverges from the sequential reference, or
//   - the shards=1 or inline configuration's service_ratio exceeds
//     kMaxServiceRatio — the service layer must not eat the kernel's
//     speed, or
//   - an overload scenario (below) breaks its own limits.
//
// Overload scenario suite: three deployment-shaped stress runs exercising
// the admission-control layer — a Zipf-skewed feed under kShedByDevice
// (the hot device rate-limits itself before starving cold ones), device
// churn under kShedNewest with a per-batch latency budget, and a memory
// squeeze that walks sessions down the eps-coarsening ladder. Each row
// reports p99 per-IngestBatch ingest latency and the shed rate, carries
// its own limits (p99_limit_ms, shed_rate_limit) into BENCH_fleet.json for
// check_perf to re-gate, and fails the run when a limit is broken or when
// a record goes unaccounted (ingested + shed + dropped must equal fed).
// Shedding and degradation intentionally change output, so these rows are
// excluded from the byte-identity gate — which stays mandatory for every
// non-degraded configuration above.
//
// Usage: bench_fleet [scale | --scale S] [--out PATH] [--reps N]
//                    [--threads N | --threads=N]   (env: BQS_BENCH_THREADS)
//                    [--devices N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "eval/table.h"
#include "service/fleet_engine.h"
#include "simulation/datasets.h"
#include "trajectory/compressor.h"

namespace bqs {
namespace {

constexpr double kEpsilon = 10.0;  // Paper's evaluation tolerance (metres).
constexpr std::size_t kIngestChunk = 8192;  // Records per IngestBatch call.
/// The service-cost gate: inline and shards=1 may add at most this many
/// calibration passes' worth of time per fix on top of the sequential
/// kernel. tools/check_perf.py re-gates the report with the same value
/// (FLEET_MAX_SERVICE_RATIO).
constexpr double kMaxServiceRatio = 2.25;

/// Per-device running checksums, sharded into buckets so concurrent shard
/// threads rarely contend on the same mutex.
class ChecksumSink final : public FleetSink {
 public:
  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    Bucket& bucket = buckets_[device % kBuckets];
    std::lock_guard<std::mutex> lock(bucket.mu);
    auto [it, inserted] = bucket.sums.try_emplace(device, bench::kFnvOffset);
    it->second = bench::MixKeyPoint(it->second, key);
  }

  std::map<DeviceId, uint64_t> Collect() const {
    std::map<DeviceId, uint64_t> out;
    for (const Bucket& bucket : buckets_) {
      std::lock_guard<std::mutex> lock(bucket.mu);
      out.insert(bucket.sums.begin(), bucket.sums.end());
    }
    return out;
  }

 private:
  static constexpr std::size_t kBuckets = 64;
  struct Bucket {
    mutable std::mutex mu;
    std::unordered_map<DeviceId, uint64_t> sums;
  };
  Bucket buckets_[kBuckets];
};

struct EngineRun {
  std::string label;       ///< "inline" or "shards=N".
  std::size_t shards = 0;  ///< num_shards passed to the engine (0=inline).
  std::vector<double> round_ms;  ///< One wall time per round.
  double median_ms = 0.0;
  double points_per_sec = 0.0;
  /// Median over rounds of (this row - sequential) ns/fix, and of that
  /// difference over the round's calibration ns/fix.
  double service_ns_per_fix = 0.0;
  double service_ratio = 0.0;
  bool byte_identical = true;
  FleetStats stats;        ///< Counters from the last rep.
};

struct AlgorithmReport {
  std::string name;
  std::vector<double> sequential_round_ms;
  std::vector<double> calibration_round_ms;
  double sequential_median_ms = 0.0;
  double sequential_points_per_sec = 0.0;
  double calibration_ns_per_fix = 0.0;
  std::vector<EngineRun> runs;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile over a copy of `samples`: an observed value,
/// never an interpolation below it, so an upper-bound gate on it holds
/// for that share of the samples. 0 for no samples.
double NearestRankPercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p * static_cast<double>(samples.size())) - 1.0;
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 0.0, static_cast<double>(samples.size()) - 1.0));
  return samples[idx];
}

/// Median over rounds; the lower of the two middle rounds when the count
/// is even.
double Median(const std::vector<double>& values) {
  return NearestRankPercentile(values, 0.5);
}

/// Where calibration passes store their CRC, so none is optimized away.
volatile uint32_t g_calibration_crc = 0;

/// One calibration pass: CRC32C over the feed's bytes. It reads the same
/// bytes the engine ingests but runs none of the engine's code, so its
/// time tracks the host's speed only.
double CalibrationMs(const std::vector<FleetRecord>& feed) {
  const auto start = std::chrono::steady_clock::now();
  g_calibration_crc =
      crc32c::Value(feed.data(), feed.size() * sizeof(FleetRecord));
  return MsSince(start);
}

// ---------------------------------------------------------------------------
// Overload scenario suite.
// ---------------------------------------------------------------------------

/// Key counting only — the overload scenarios measure admission latency and
/// shed accounting, not output bytes (shed/degraded output is intentionally
/// not byte-identical), so the sink must stay off the critical path.
class CountingSink final : public FleetSink {
 public:
  void OnKeyPoint(DeviceId, const KeyPoint&) override {
    keys_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t keys() const { return keys_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> keys_{0};
};

/// Zipf(s=1)-skewed fleet feed: device ranks weighted 1/rank, one shared
/// stream clock at `rate_hz` aggregate records/sec. Rank 1 receives ~21% of
/// a 64-device feed (1/H_64), putting it just over the scenario's per-device
/// admission rate while every other device stays comfortably under.
std::vector<FleetRecord> BuildZipfFeed(std::size_t num_devices,
                                       std::size_t records, double rate_hz,
                                       uint64_t seed) {
  std::vector<double> cdf(num_devices);
  double sum = 0.0;
  for (std::size_t d = 0; d < num_devices; ++d) {
    sum += 1.0 / static_cast<double>(d + 1);
    cdf[d] = sum;
  }
  for (double& c : cdf) c /= sum;

  Rng rng(seed);
  std::vector<Vec2> pos(num_devices);
  for (Vec2& p : pos) {
    p = {rng.Uniform(-2000.0, 2000.0), rng.Uniform(-2000.0, 2000.0)};
  }
  std::vector<FleetRecord> feed;
  feed.reserve(records);
  const double dt = 1.0 / rate_hz;
  for (std::size_t r = 0; r < records; ++r) {
    const double u = rng.Uniform(0.0, 1.0);
    const std::size_t d = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    pos[d] += {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    feed.push_back({static_cast<DeviceId>(d + 1),
                    {pos[d], static_cast<double>(r) * dt, {0.0, 0.0}}});
  }
  return feed;
}

/// Device-churn feed: `waves` cohorts of `per_wave` devices, each cohort
/// streaming for one contiguous third of the feed then going silent — the
/// shape that exercises idle-timeout closure under a latency budget.
std::vector<FleetRecord> BuildChurnFeed(std::size_t waves,
                                        std::size_t per_wave,
                                        std::size_t records, double rate_hz,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<FleetRecord> feed;
  feed.reserve(records);
  const double dt = 1.0 / rate_hz;
  std::vector<Vec2> pos(per_wave);
  std::size_t r = 0;
  for (std::size_t w = 0; w < waves; ++w) {
    const DeviceId base = static_cast<DeviceId>(w * per_wave + 1);
    for (Vec2& p : pos) {
      p = {rng.Uniform(-2000.0, 2000.0), rng.Uniform(-2000.0, 2000.0)};
    }
    const std::size_t wave_end =
        (w + 1 == waves) ? records : (records / waves) * (w + 1);
    std::size_t k = 0;
    while (r < wave_end) {
      const std::size_t d = k++ % per_wave;
      const std::size_t burst = static_cast<std::size_t>(
          std::min<int64_t>(rng.UniformInt(1, 6),
                            static_cast<int64_t>(wave_end - r)));
      for (std::size_t b = 0; b < burst; ++b, ++r) {
        pos[d] += {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
        feed.push_back({static_cast<DeviceId>(base + d),
                        {pos[d], static_cast<double>(r) * dt, {0.0, 0.0}}});
      }
    }
  }
  return feed;
}

struct OverloadScenario {
  std::string name;
  std::string policy_label;
  std::vector<FleetRecord> feed;
  FleetEngineOptions options;
  std::size_t chunk = 2048;
  // Self-limits carried into the JSON row; check_perf re-gates them.
  double p99_limit_ms = 25.0;
  double shed_rate_limit = 0.9;
  uint64_t min_shed = 0;         ///< Gate: records_shed >= this.
  uint64_t min_degraded = 0;     ///< Gate: sessions_degraded >= this.
  double max_bound_limit = 0.0;  ///< Gate: max_error_bound <= this (0=off).
};

struct OverloadResult {
  std::size_t batches = 0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double shed_rate = 0.0;
  bool invariant_ok = false;
  FleetStats stats;
};

/// Runs one scenario `reps` times and keeps the rep with the lowest p99
/// (gates are upper bounds, so best-of-reps filters the scheduler noise
/// that a single slow batch would otherwise put on the row).
OverloadResult RunOverloadScenario(const OverloadScenario& scenario,
                                   int reps) {
  OverloadResult best;
  for (int rep = 0; rep < reps; ++rep) {
    CountingSink sink;
    FleetEngine engine(scenario.options, sink);
    std::vector<double> batch_ms;
    batch_ms.reserve(scenario.feed.size() / scenario.chunk + 1);
    for (std::size_t i = 0; i < scenario.feed.size();
         i += scenario.chunk) {
      const std::size_t n =
          std::min(scenario.chunk, scenario.feed.size() - i);
      const auto start = std::chrono::steady_clock::now();
      engine.IngestBatch(
          std::span<const FleetRecord>(scenario.feed.data() + i, n));
      batch_ms.push_back(MsSince(start));
    }
    engine.FinishAll();

    OverloadResult result;
    result.batches = batch_ms.size();
    result.max_ms = *std::max_element(batch_ms.begin(), batch_ms.end());
    result.p99_ms = NearestRankPercentile(batch_ms, 0.99);
    result.stats = engine.Stats();
    const uint64_t fed = static_cast<uint64_t>(scenario.feed.size());
    result.invariant_ok = result.stats.records_ingested +
                              result.stats.records_shed +
                              result.stats.records_dropped ==
                          fed;
    result.shed_rate =
        Ratio(static_cast<double>(result.stats.records_shed),
              static_cast<double>(fed));
    if (rep == 0 || result.p99_ms < best.p99_ms) best = result;
  }
  return best;
}

int Run(int argc, char** argv) {
  if (const std::optional<int> code = bench::CheckArgs(
          argc, argv,
          "usage: bench_fleet [scale | --scale S] [--out PATH] [--reps N]\n"
          "                   [--threads N] [--devices N]",
          {"--out", "--reps", "--threads", "--devices"})) {
    return *code;
  }
  const double scale = bench::ScaleFromArgs(argc, argv, 1.0);
  const std::string out_path =
      bench::StringFlag(argc, argv, "--out", "BENCH_fleet.json");
  const int reps = std::clamp(
      std::atoi(bench::StringFlag(argc, argv, "--reps", "3").c_str()), 1,
      100);
  const int max_threads =
      bench::IntFlag(argc, argv, "--threads", "BQS_BENCH_THREADS", 8);
  const std::size_t num_devices = static_cast<std::size_t>(
      bench::IntFlag(argc, argv, "--devices", nullptr, 24));

  bench::Banner(
      "Fleet ingest — points/sec through the FleetEngine pipeline (inline "
      "and sharded) vs the sequential per-device reference (eps = 10 m)",
      "Deployment shape beyond the paper: many concurrent device streams "
      "multiplexed over the single-stream compressors",
      scale);

  const FleetDataset fleet = BuildFleetDataset(num_devices, scale);
  const std::size_t total_points = fleet.feed.size();
  std::printf("fleet: %zu devices, %zu interleaved records, %d reps, "
              "inline + shard sweep up to %d threads, service-ratio gate "
              "%.2f\n",
              fleet.devices.size(), total_points, reps, max_threads,
              kMaxServiceRatio);

  // Engine configurations: inline mode first, then the shard sweep.
  std::vector<std::pair<std::string, std::size_t>> configs;
  configs.emplace_back("inline", 0);
  for (const std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    if (s <= static_cast<std::size_t>(max_threads)) {
      configs.emplace_back("shards=" + std::to_string(s), s);
    }
  }

  struct AlgorithmCase {
    const char* label;
    AlgorithmId id;
  };
  const AlgorithmCase algorithm_cases[] = {
      {"BQS", AlgorithmId::kBqs},
      {"FBQS", AlgorithmId::kFbqs},
  };

  bool all_identical = true;
  std::vector<std::string> gate_failures;
  std::vector<AlgorithmReport> reports;

  for (const AlgorithmCase& algorithm_case : algorithm_cases) {
    AlgorithmConfig config;
    config.id = algorithm_case.id;
    config.epsilon = kEpsilon;

    AlgorithmReport report;
    report.name = algorithm_case.label;

    for (const auto& [label, shards] : configs) {
      EngineRun run;
      run.label = label;
      run.shards = shards;
      report.runs.push_back(run);
    }
    // Sequential reference: one thread, each device's stream alone. Also
    // produces the per-device checksums every fleet run must reproduce.
    std::map<DeviceId, uint64_t> reference;
    for (int r = 0; r < reps; ++r) {
      report.calibration_round_ms.push_back(
          CalibrationMs(fleet.feed));
      reference.clear();
      auto compressor = MakeStreamCompressor(config);
      const auto seq_start = std::chrono::steady_clock::now();
      for (const auto& [device, stream] : fleet.devices) {
        reference[device] = bench::ChecksumKeys(
            CompressAll(*compressor, stream).keys);
      }
      report.sequential_round_ms.push_back(MsSince(seq_start));

      for (EngineRun& run : report.runs) {
        ChecksumSink sink;
        FleetEngineOptions options;
        options.algorithm = config;
        options.num_shards = run.shards;
        FleetEngine engine(options, sink);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < fleet.feed.size(); i += kIngestChunk) {
          const std::size_t n =
              std::min(kIngestChunk, fleet.feed.size() - i);
          engine.IngestBatch(
              std::span<const FleetRecord>(fleet.feed.data() + i, n));
        }
        engine.FinishAll();
        run.round_ms.push_back(MsSince(start));
        run.byte_identical = run.byte_identical &&
                             sink.Collect() == reference;
        run.stats = engine.Stats();
      }
    }

    const double ns_per_ms_fix = 1e6 / static_cast<double>(total_points);
    report.sequential_median_ms = Median(report.sequential_round_ms);
    report.sequential_points_per_sec =
        Ratio(static_cast<double>(total_points),
              report.sequential_median_ms / 1000.0);
    report.calibration_ns_per_fix =
        Median(report.calibration_round_ms) * ns_per_ms_fix;
    for (EngineRun& run : report.runs) {
      std::vector<double> service_ns;
      std::vector<double> service_ratio;
      for (int r = 0; r < reps; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        const double ns =
            (run.round_ms[i] - report.sequential_round_ms[i]) * ns_per_ms_fix;
        service_ns.push_back(ns);
        service_ratio.push_back(
            Ratio(ns, report.calibration_round_ms[i] * ns_per_ms_fix));
      }
      run.median_ms = Median(run.round_ms);
      run.points_per_sec =
          Ratio(static_cast<double>(total_points), run.median_ms / 1000.0);
      run.service_ns_per_fix = Median(service_ns);
      run.service_ratio = Median(service_ratio);
      all_identical = all_identical && run.byte_identical;
    }
    reports.push_back(std::move(report));
  }

  // ---- overload scenario suite ----
  // Deployment-shaped stress runs against the admission-control layer. All
  // three use BQS at the sweep epsilon; the sharded ones use deliberately
  // small rings/blocks so genuine producer-vs-worker imbalance (not fault
  // injection) drives the overload.
  const std::size_t shed_shards = std::clamp<std::size_t>(
      static_cast<std::size_t>(max_threads), 2, 4);
  std::vector<OverloadScenario> scenarios;
  {
    // 1. Zipf-skewed fleet under kShedByDevice with a zero latency budget
    //    and a one-block ring: every full-ring seal compacts through the
    //    token buckets. The hot device (~21% of a 200 rec/s feed, ~42/s)
    //    runs far over the 10/s admission rate and sheds its over-rate
    //    suffix at compaction; most other devices stay under and keep
    //    their records re-queued. min_shed pins that overload actually
    //    occurred — a fast worker cannot silently turn this row into a
    //    no-op.
    OverloadScenario zipf;
    zipf.name = "zipf_hot_device";
    zipf.policy_label = "shed_by_device";
    zipf.feed = BuildZipfFeed(
        64, static_cast<std::size_t>(std::max(20000.0, 120000.0 * scale)),
        200.0, 6101);
    zipf.options.algorithm.id = AlgorithmId::kBqs;
    zipf.options.algorithm.epsilon = kEpsilon;
    zipf.options.num_shards = shed_shards;
    zipf.options.block_capacity = 256;
    zipf.options.max_pending_blocks = 1;
    zipf.options.overload.policy = OverloadPolicy::kShedByDevice;
    zipf.options.overload.device_rate_per_second = 10.0;
    zipf.options.overload.latency_budget_ms = 0.0;
    zipf.shed_rate_limit = 0.95;
    zipf.min_shed = 1;
    scenarios.push_back(std::move(zipf));

    // 2. Device churn under kShedNewest + latency budget: three cohorts
    //    arrive and go silent in sequence, idle timeout reclaims the dead
    //    cohort's sessions while ingest latency stays budgeted.
    OverloadScenario churn;
    churn.name = "churn";
    churn.policy_label = "shed_newest";
    churn.feed = BuildChurnFeed(
        3, 40, static_cast<std::size_t>(std::max(15000.0, 90000.0 * scale)),
        100.0, 6202);
    churn.options.algorithm.id = AlgorithmId::kBqs;
    churn.options.algorithm.epsilon = kEpsilon;
    churn.options.num_shards = shed_shards;
    churn.options.block_capacity = 256;
    churn.options.max_pending_blocks = 1;
    churn.options.idle_timeout_seconds = 60.0;
    churn.options.overload.policy = OverloadPolicy::kShedNewest;
    churn.options.overload.latency_budget_ms = 2.0;
    scenarios.push_back(std::move(churn));

    // 3. Memory squeeze in inline mode: a budget far below the fleet's
    //    natural footprint forces sessions down the eps ladder. Inline mode
    //    never sheds (shed_rate_limit 0 gates that), sessions must degrade
    //    (min_degraded gates that), and no session may ever honor a bound
    //    wider than the last rung (max_bound_limit gates that). Fully
    //    deterministic: no threads, decisions keyed on stream time.
    OverloadScenario squeeze;
    squeeze.name = "memory_squeeze";
    squeeze.policy_label = "block";
    {
      const FleetDataset squeeze_fleet =
          BuildFleetDataset(16, std::max(0.2, scale), 6303);
      squeeze.feed = squeeze_fleet.feed;
    }
    squeeze.options.algorithm.id = AlgorithmId::kBqs;
    squeeze.options.algorithm.epsilon = kEpsilon;
    squeeze.options.num_shards = 0;
    squeeze.options.memory_budget_bytes = 24 * 1024;
    squeeze.options.overload.eps_ladder = {2.0, 4.0};
    squeeze.p99_limit_ms = 50.0;
    squeeze.shed_rate_limit = 0.0;
    squeeze.min_degraded = 1;
    squeeze.max_bound_limit = kEpsilon * 4.0;
    scenarios.push_back(std::move(squeeze));
  }

  std::vector<OverloadResult> overload_results;
  overload_results.reserve(scenarios.size());
  for (const OverloadScenario& scenario : scenarios) {
    overload_results.push_back(RunOverloadScenario(scenario, reps));
  }

  // ---- human-readable table ----
  for (const AlgorithmReport& report : reports) {
    std::printf("\n-- %s --\n", report.name.c_str());
    std::printf("calibration (CRC32C over the feed): %.2f ns/fix\n",
                report.calibration_ns_per_fix);
    TablePrinter table({"config", "points/sec", "median_ms", "vs_seq",
                        "service_ns/fix", "service_ratio",
                        "runs/blk/wakes/bp", "identical"});
    table.AddRow({"sequential",
                  FmtDouble(report.sequential_points_per_sec, 0),
                  FmtDouble(report.sequential_median_ms, 2), "1.00", "-",
                  "-", "-", "ref"});
    for (const EngineRun& run : report.runs) {
      const double speedup =
          Ratio(report.sequential_median_ms, run.median_ms);
      const FleetStats& s = run.stats;
      table.AddRow(
          {run.label, FmtDouble(run.points_per_sec, 0),
           FmtDouble(run.median_ms, 2), FmtDouble(speedup, 2),
           FmtDouble(run.service_ns_per_fix, 2),
           FmtDouble(run.service_ratio, 2),
           std::to_string(s.coalesced_runs) + "/" +
               std::to_string(s.blocks_dispatched) + "/" +
               std::to_string(s.worker_wakes) + "/" +
               std::to_string(s.backpressure_waits),
           run.byte_identical ? "yes" : "DIVERGED"});
    }
    table.Print(std::cout);
  }

  std::printf("\n-- overload scenarios --\n");
  {
    TablePrinter table({"scenario", "policy", "records", "p99_ms",
                        "shed_rate", "shed/degr/evict", "max_eps", "ok"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const OverloadScenario& scenario = scenarios[i];
      const OverloadResult& result = overload_results[i];
      const FleetStats& s = result.stats;
      table.AddRow(
          {scenario.name, scenario.policy_label,
           std::to_string(scenario.feed.size()),
           FmtDouble(result.p99_ms, 3), FmtDouble(result.shed_rate, 3),
           std::to_string(s.records_shed) + "/" +
               std::to_string(s.sessions_degraded) + "/" +
               std::to_string(s.sessions_evicted),
           FmtDouble(s.max_error_bound, 1),
           result.invariant_ok ? "yes" : "UNACCOUNTED"});
    }
    table.Print(std::cout);
  }

  // ---- machine-readable report ----
  bench::JsonReport json;
  json.BeginObject();
  json.Key("schema").Value("bqs-bench-fleet-v3");
  json.Key("scale").Value(scale);
  json.Key("epsilon").Value(kEpsilon);
  json.Key("reps").Value(reps);
  // Threaded rows only mean something next to the core count they ran on.
  const unsigned nproc = std::thread::hardware_concurrency();
  json.Key("nproc").Value(static_cast<uint64_t>(nproc));
  json.Key("devices").Value(static_cast<uint64_t>(fleet.devices.size()));
  json.Key("records").Value(static_cast<uint64_t>(total_points));
  json.Key("ingest_chunk").Value(static_cast<uint64_t>(kIngestChunk));
  json.Key("algorithms").BeginArray();
  for (const AlgorithmReport& report : reports) {
    json.BeginObject();
    json.Key("name").Value(report.name);
    json.Key("calibration_ns_per_fix").Value(report.calibration_ns_per_fix);
    json.Key("sequential_median_ms").Value(report.sequential_median_ms);
    json.Key("sequential_points_per_sec")
        .Value(report.sequential_points_per_sec);
    json.Key("runs").BeginArray();
    double best_multi = 0.0;
    double one_shard = 0.0;
    for (const EngineRun& run : report.runs) {
      json.BeginObject();
      json.Key("config").Value(run.label);
      json.Key("shards").Value(static_cast<uint64_t>(run.shards));
      json.Key("median_ms").Value(run.median_ms);
      json.Key("points_per_sec").Value(run.points_per_sec);
      json.Key("speedup_vs_sequential")
          .Value(Ratio(report.sequential_median_ms, run.median_ms));
      json.Key("service_ns_per_fix").Value(run.service_ns_per_fix);
      json.Key("service_ratio").Value(run.service_ratio);
      json.Key("byte_identical").Value(run.byte_identical);
      const FleetStats& s = run.stats;
      json.Key("counters").BeginObject();
      json.Key("coalesced_runs").Value(s.coalesced_runs);
      json.Key("blocks_dispatched").Value(s.blocks_dispatched);
      json.Key("blocks_allocated").Value(s.blocks_allocated);
      json.Key("blocks_recycled").Value(s.blocks_recycled);
      json.Key("worker_wakes").Value(s.worker_wakes);
      json.Key("backpressure_waits").Value(s.backpressure_waits);
      json.Key("peak_queue_depth")
          .Value(static_cast<uint64_t>(s.peak_queue_depth));
      json.EndObject();
      json.EndObject();
      if (run.shards == 1) one_shard = run.points_per_sec;
      if (run.shards > 1) best_multi = std::max(best_multi,
                                                run.points_per_sec);
    }
    json.EndArray();
    json.Key("multi_shard_speedup_vs_1shard")
        .Value(Ratio(best_multi, one_shard));
    json.EndObject();
  }
  json.EndArray();
  // Overload rows carry their own limits so check_perf can re-gate a
  // candidate file without hardcoding thresholds. They are deliberately
  // outside all_byte_identical: shedding and degradation change output.
  json.Key("overload").BeginArray();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const OverloadScenario& scenario = scenarios[i];
    const OverloadResult& result = overload_results[i];
    const FleetStats& s = result.stats;
    json.BeginObject();
    json.Key("scenario").Value(scenario.name);
    json.Key("policy").Value(scenario.policy_label);
    json.Key("shards")
        .Value(static_cast<uint64_t>(scenario.options.num_shards));
    json.Key("records").Value(static_cast<uint64_t>(scenario.feed.size()));
    json.Key("batches").Value(static_cast<uint64_t>(result.batches));
    json.Key("p99_ms").Value(result.p99_ms);
    json.Key("max_ms").Value(result.max_ms);
    json.Key("p99_limit_ms").Value(scenario.p99_limit_ms);
    json.Key("shed_rate").Value(result.shed_rate);
    json.Key("shed_rate_limit").Value(scenario.shed_rate_limit);
    json.Key("records_shed").Value(s.records_shed);
    json.Key("records_ingested").Value(s.records_ingested);
    json.Key("shed_ring_full").Value(s.shed_ring_full);
    json.Key("shed_latency").Value(s.shed_latency);
    json.Key("shed_rate_limited").Value(s.shed_rate_limited);
    json.Key("sessions_degraded").Value(s.sessions_degraded);
    json.Key("sessions_recovered").Value(s.sessions_recovered);
    json.Key("sessions_evicted").Value(s.sessions_evicted);
    json.Key("sessions_idled").Value(s.sessions_idled);
    json.Key("max_error_bound").Value(s.max_error_bound);
    json.Key("invariant_ok").Value(result.invariant_ok);
    json.EndObject();
  }
  json.EndArray();
  json.Key("all_byte_identical").Value(all_identical);
  json.EndObject();

  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  // ---- exit gates ----
  // 1. The service layer must not eat the kernel's speed: inline and
  //    shards=1 may each add at most kMaxServiceRatio calibration passes
  //    per fix on top of the sequential kernel.
  for (const AlgorithmReport& report : reports) {
    for (const EngineRun& run : report.runs) {
      if (run.shards > 1) continue;
      if (run.service_ratio > kMaxServiceRatio) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "%s %s adds %.2f ns/fix over sequential, %.2fx the "
                      "calibration pass (gate %.2f)",
                      report.name.c_str(), run.label.c_str(),
                      run.service_ns_per_fix, run.service_ratio,
                      kMaxServiceRatio);
        gate_failures.push_back(buf);
      }
    }
  }
  // 2. Byte identity across every ingest mode.
  if (!all_identical) {
    gate_failures.push_back(
        "per-device output diverged from the sequential CompressAll "
        "reference");
  }
  // 3. Overload scenarios must hold their own limits.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const OverloadScenario& scenario = scenarios[i];
    const OverloadResult& result = overload_results[i];
    char buf[192];
    if (result.p99_ms > scenario.p99_limit_ms) {
      std::snprintf(buf, sizeof(buf),
                    "%s p99 ingest latency %.3f ms over limit %.3f ms",
                    scenario.name.c_str(), result.p99_ms,
                    scenario.p99_limit_ms);
      gate_failures.push_back(buf);
    }
    if (result.shed_rate > scenario.shed_rate_limit) {
      std::snprintf(buf, sizeof(buf),
                    "%s shed rate %.3f over limit %.3f",
                    scenario.name.c_str(), result.shed_rate,
                    scenario.shed_rate_limit);
      gate_failures.push_back(buf);
    }
    if (!result.invariant_ok) {
      std::snprintf(buf, sizeof(buf),
                    "%s record accounting broken: ingested + shed + "
                    "dropped != fed",
                    scenario.name.c_str());
      gate_failures.push_back(buf);
    }
    if (result.stats.records_shed < scenario.min_shed) {
      std::snprintf(buf, sizeof(buf),
                    "%s expected >= %llu shed records (overload never "
                    "materialized), saw %llu",
                    scenario.name.c_str(),
                    static_cast<unsigned long long>(scenario.min_shed),
                    static_cast<unsigned long long>(
                        result.stats.records_shed));
      gate_failures.push_back(buf);
    }
    if (result.stats.sessions_degraded < scenario.min_degraded) {
      std::snprintf(buf, sizeof(buf),
                    "%s expected >= %llu eps-ladder degradations, saw %llu",
                    scenario.name.c_str(),
                    static_cast<unsigned long long>(scenario.min_degraded),
                    static_cast<unsigned long long>(
                        result.stats.sessions_degraded));
      gate_failures.push_back(buf);
    }
    if (scenario.max_bound_limit > 0.0 &&
        result.stats.max_error_bound > scenario.max_bound_limit) {
      std::snprintf(buf, sizeof(buf),
                    "%s honored error bound %.2f beyond the ladder's last "
                    "rung %.2f",
                    scenario.name.c_str(), result.stats.max_error_bound,
                    scenario.max_bound_limit);
      gate_failures.push_back(buf);
    }
  }

  if (!gate_failures.empty()) {
    std::fprintf(stderr, "\nbench_fleet FAILED:\n");
    for (const std::string& failure : gate_failures) {
      std::fprintf(stderr, "  - %s\n", failure.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) { return bqs::Run(argc, argv); }
