// FleetEngine overload resilience: admission control and load shedding
// under a finite latency budget, per-device token-bucket fairness, the
// eps-coarsening degradation ladder, and the deterministic fault-injection
// sites that make all of it reproducible from a seed.
//
// The accounting invariant every scenario pins: after FinishAll(), every
// fed record is exactly one of ingested, shed, or dropped — shedding is
// loud and fully accounted, never silent.
#include "common/fault_injector.h"
#include "service/fleet_engine.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "simulation/datasets.h"
#include "test_util.h"
#include "trajectory/compressor.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

/// Collects per-device output and lifecycle events; OnKeyPoint may fire
/// concurrently for different devices, so every mutation locks.
class CollectingSink : public FleetSink {
 public:
  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_[device].push_back(key);
  }
  void OnSessionEnd(DeviceId device, SessionEndReason reason) override {
    std::lock_guard<std::mutex> lock(mu_);
    ends_[device].push_back(reason);
  }
  void OnErrorBoundChanged(DeviceId device, double error_bound) override {
    std::lock_guard<std::mutex> lock(mu_);
    bounds_[device].push_back(error_bound);
  }

  std::map<DeviceId, std::vector<KeyPoint>> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }
  std::map<DeviceId, std::vector<SessionEndReason>> ends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ends_;
  }
  std::map<DeviceId, std::vector<double>> bounds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bounds_;
  }

 private:
  mutable std::mutex mu_;
  std::map<DeviceId, std::vector<KeyPoint>> keys_;
  std::map<DeviceId, std::vector<SessionEndReason>> ends_;
  std::map<DeviceId, std::vector<double>> bounds_;
};

AlgorithmConfig ConfigFor(AlgorithmId id) {
  AlgorithmConfig config;
  config.id = id;
  config.epsilon = 8.0;
  return config;
}

std::vector<FleetRecord> ToFeed(DeviceId device, const Trajectory& stream) {
  std::vector<FleetRecord> feed;
  feed.reserve(stream.size());
  for (const TrackPoint& pt : stream) feed.push_back({device, pt});
  return feed;
}

std::vector<KeyPoint> ReferenceKeys(const AlgorithmConfig& config,
                                    std::span<const TrackPoint> stream) {
  auto compressor = MakeStreamCompressor(config);
  return CompressAll(*compressor, stream).keys;
}

/// Rebuilds a CompressedTrajectory whose key indices point into `original`,
/// by matching the emitted keys (which are always original points, in
/// stream order) forward through the stream. Degradation reseats restart
/// the compressor-local indices mid-stream, so the emitted indices cannot
/// be used directly; the points themselves still identify their position.
CompressedTrajectory MapKeysToStream(std::span<const TrackPoint> original,
                                     const std::vector<KeyPoint>& keys) {
  CompressedTrajectory out;
  std::size_t cursor = 0;
  for (const KeyPoint& key : keys) {
    while (cursor < original.size() && !(original[cursor] == key.point)) {
      ++cursor;
    }
    EXPECT_LT(cursor, original.size()) << "emitted key not in stream";
    out.keys.push_back(KeyPoint{key.point, cursor});
    ++cursor;  // indices must be strictly increasing
  }
  return out;
}

// --- shedding ------------------------------------------------------------

TEST(FleetOverloadTest, ZeroBudgetShedIsDeterministicAndFullyAccounted) {
  // The kRingFull fault makes seals see a full ring on a seeded schedule,
  // so the shed path runs on cue instead of depending on worker timing.
  const FleetDataset fleet = BuildFleetDataset(6, 0.02, 8101);
  FleetStats first;
  std::map<DeviceId, std::vector<KeyPoint>> first_keys;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(2024);
    injector.Arm(FaultSite::kRingFull, 0.4);
    CollectingSink sink;
    FleetEngineOptions options;
    options.algorithm = ConfigFor(AlgorithmId::kBqs);
    options.num_shards = 2;
    options.block_capacity = 16;
    options.overload.latency_budget_ms = 0.0;
    options.fault_injector = &injector;
    FleetEngine engine(options, sink);
    engine.IngestBatch(fleet.feed);
    engine.FinishAll();
    const FleetStats stats = engine.Stats();

    EXPECT_GT(stats.records_shed, 0u);
    EXPECT_GT(stats.shed_batches, 0u);
    // A zero budget: full-ring sheds are accounted as ring_full.
    EXPECT_EQ(stats.shed_ring_full, stats.records_shed);
    EXPECT_EQ(stats.shed_latency, 0u);
    EXPECT_GT(stats.faults_injected, 0u);
    // The invariant: every fed record is ingested, shed, or dropped.
    EXPECT_EQ(stats.records_ingested + stats.records_shed +
                  stats.records_dropped,
              fleet.feed.size());

    if (run == 0) {
      first = stats;
      first_keys = sink.keys();
    } else {
      // Same seed, same feed: the whole shed schedule — and therefore the
      // surviving stream and its compressed output — replays exactly.
      EXPECT_EQ(stats.records_shed, first.records_shed);
      EXPECT_EQ(stats.records_ingested, first.records_ingested);
      EXPECT_EQ(stats.faults_injected, first.faults_injected);
      EXPECT_EQ(sink.keys(), first_keys);
    }
  }
}

TEST(FleetOverloadTest, ShedByDeviceRateLimitsHotDeviceNotColdDevice) {
  // One hot device floods at 100 records/s of stream time; one cold device
  // trickles at 1/s against a 5/s admission rate. With a device rate the
  // hot device loses its over-rate suffix and the cold device's records
  // all survive — its output must stay byte-identical to compressing its
  // stream alone, the fairness property a whole-block shed lacks.
  const DeviceId kHot = 1;
  const DeviceId kCold = 2;
  Trajectory hot_stream;
  for (int i = 0; i < 400; ++i) {
    hot_stream.push_back(
        TrackPoint{{static_cast<double>(i), 0.0}, i * 0.01});
  }
  Trajectory cold_stream;
  for (int i = 0; i < 5; ++i) {
    cold_stream.push_back(
        TrackPoint{{0.0, static_cast<double>(i)}, 0.5 + i});
  }
  // Interleave by stream time, hot first on ties.
  std::vector<FleetRecord> feed;
  std::size_t h = 0;
  std::size_t c = 0;
  while (h < hot_stream.size() || c < cold_stream.size()) {
    if (c >= cold_stream.size() ||
        (h < hot_stream.size() && hot_stream[h].t <= cold_stream[c].t)) {
      feed.push_back({kHot, hot_stream[h++]});
    } else {
      feed.push_back({kCold, cold_stream[c++]});
    }
  }

  FaultInjector injector(77);
  injector.Arm(FaultSite::kRingFull, 1.0, /*max_fires=*/6);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 2;
  options.block_capacity = 16;
  options.overload.latency_budget_ms = 0.0;
  options.overload.device_rate_per_second = 5.0;
  options.fault_injector = &injector;
  FleetEngine engine(options, sink);
  engine.IngestBatch(feed);
  engine.FinishAll();
  const FleetStats stats = engine.Stats();

  EXPECT_GT(stats.shed_rate_limited, 0u);
  EXPECT_EQ(stats.shed_rate_limited, stats.records_shed)
      << "compaction found an over-rate device, so no block shed whole";
  EXPECT_EQ(stats.records_ingested + stats.records_shed, feed.size());

  // The cold device never exceeded its rate: nothing of its stream was
  // shed, so its compressed output matches the sequential reference.
  const auto keys = sink.keys();
  ASSERT_TRUE(keys.contains(kCold));
  EXPECT_EQ(keys.at(kCold),
            ReferenceKeys(ConfigFor(AlgorithmId::kBqs), cold_stream));
}

TEST(FleetOverloadTest, LatencyBudgetBoundsIngestWhenWorkerStalls) {
  // Park the shard worker via the kWorkerStall site: the ring backs up for
  // real, and the per-batch latency budget turns unbounded blocking into
  // bounded waiting plus accounted latency sheds.
  const Trajectory stream = testing_util::SmoothWalk(8102, 200);
  const std::vector<FleetRecord> feed = ToFeed(1, stream);

  FaultInjector injector(5150);
  injector.Arm(FaultSite::kWorkerStall, 1.0, /*max_fires=*/1);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 2;
  options.block_capacity = 16;
  options.max_pending_blocks = 1;
  options.overload.latency_budget_ms = 5.0;
  options.fault_injector = &injector;
  FleetEngine engine(options, sink);
  engine.IngestBatch(feed);
  // IngestBatch returned with the worker still parked — the bounded-wait
  // guarantee in action. Release the gate so the drain can finish.
  EXPECT_EQ(injector.fires(FaultSite::kWorkerStall), 1u);
  injector.ReleaseStalls();
  engine.FinishAll();
  const FleetStats stats = engine.Stats();

  EXPECT_GT(stats.shed_latency, 0u);
  EXPECT_EQ(stats.shed_latency, stats.records_shed);
  EXPECT_GE(stats.faults_injected, 1u);
  EXPECT_GE(stats.backpressure_waits, 1u);  // the timed waits that expired
  EXPECT_EQ(stats.records_ingested + stats.records_shed, feed.size());
}

TEST(FleetOverloadTest, BlockPolicyNeverShedsEvenWithFaultsFiring) {
  // Under the default infinite budget a seal blocks and never asks the
  // kRingFull site: no record is ever shed and the output stays
  // byte-identical — the guard that shedding is strictly opt-in.
  const FleetDataset fleet = BuildFleetDataset(4, 0.02, 8104);
  const AlgorithmConfig config = ConfigFor(AlgorithmId::kBqs);
  std::map<DeviceId, std::vector<KeyPoint>> reference;
  for (const auto& [device, stream] : fleet.devices) {
    reference[device] = ReferenceKeys(config, stream);
  }

  FaultInjector injector(99);
  injector.Arm(FaultSite::kRingFull, 1.0);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = config;
  options.num_shards = 2;
  options.block_capacity = 16;
  options.fault_injector = &injector;
  FleetEngine engine(options, sink);
  engine.IngestBatch(fleet.feed);
  engine.FinishAll();
  const FleetStats stats = engine.Stats();

  EXPECT_EQ(stats.records_shed, 0u);
  EXPECT_EQ(stats.shed_batches, 0u);
  EXPECT_EQ(injector.calls(FaultSite::kRingFull), 0u);
  EXPECT_EQ(stats.faults_injected, 0u);
  EXPECT_EQ(stats.records_ingested, fleet.feed.size());
  EXPECT_EQ(sink.keys(), reference);
}

TEST(FleetOverloadTest, ConstructorNormalizesTheLatencyBudget) {
  // A non-finite budget blocks, a negative one sheds at once like 0, and a
  // finite one past a day waits a day; the engine reports what it runs.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> cases = {
      {std::numeric_limits<double>::quiet_NaN(), inf},
      {-inf, inf},
      {inf, inf},
      {-3.0, 0.0},
      {0.0, 0.0},
      {2.5, 2.5},
      {1e300, 24.0 * 3600.0 * 1000.0},
  };
  for (const auto& [given, runs] : cases) {
    CollectingSink sink;
    FleetEngineOptions options;
    options.algorithm = ConfigFor(AlgorithmId::kBqs);
    options.num_shards = 2;
    options.overload.latency_budget_ms = given;
    FleetEngine engine(options, sink);
    EXPECT_EQ(engine.options().overload.latency_budget_ms, runs) << given;
  }
}

TEST(FleetOverloadTest, MidBatchEvictClosesSessionWhichReopensCleanly) {
  // The injected eviction closes the session right after a dispatched run;
  // the device's next record transparently opens a fresh session. Each
  // segment must be byte-identical to compressing its slice alone.
  const Trajectory walk = testing_util::SmoothWalk(8105, 140);
  const std::span<const TrackPoint> all(walk);
  const auto slice1 = all.subspan(0, 80);
  const auto slice2 = all.subspan(80);

  FaultInjector injector(404);
  injector.Arm(FaultSite::kMidBatchEvict, 1.0, /*max_fires=*/1);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 1;  // inline: the fast path has the hook too
  options.fault_injector = &injector;
  FleetEngine engine(options, sink);

  std::vector<FleetRecord> batch1;
  for (const TrackPoint& pt : slice1) batch1.push_back({1, pt});
  std::vector<FleetRecord> batch2;
  for (const TrackPoint& pt : slice2) batch2.push_back({1, pt});
  engine.IngestBatch(batch1);  // evicted right after this dispatch
  engine.IngestBatch(batch2);  // reopens
  engine.FinishAll();
  const FleetStats stats = engine.Stats();

  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.faults_injected, 1u);
  const auto ends = sink.ends();
  ASSERT_TRUE(ends.contains(1));
  EXPECT_EQ(ends.at(1),
            (std::vector<SessionEndReason>{SessionEndReason::kEvicted,
                                           SessionEndReason::kFinished}));

  const AlgorithmConfig config = ConfigFor(AlgorithmId::kBqs);
  std::vector<KeyPoint> expected = ReferenceKeys(config, slice1);
  const std::vector<KeyPoint> second = ReferenceKeys(config, slice2);
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(sink.keys().at(1), expected);
}

// --- eps-coarsening degradation ------------------------------------------

TEST(FleetOverloadTest, EpsLadderDegradesUnderPressureAndBoundsHold) {
  // Three devices fed sequentially against a budget two grown sessions
  // cannot share: the ladder steps idle sessions to widened epsilons
  // instead of evicting them, and every emitted point must still honor the
  // widest bound the engine reports.
  const AlgorithmConfig config = ConfigFor(AlgorithmId::kBqs);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = config;
  options.num_shards = 1;
  options.memory_budget_bytes = 4096;
  options.overload.eps_ladder = {2.0, 4.0};
  FleetEngine engine(options, sink);

  std::map<DeviceId, Trajectory> streams;
  for (DeviceId device = 1; device <= 3; ++device) {
    streams[device] = testing_util::SmoothWalk(8200 + device, 200);
    for (const TrackPoint& pt : streams[device]) engine.Ingest(device, pt);
  }
  const FleetStats mid = engine.Stats();
  EXPECT_GT(mid.sessions_degraded, 0u);
  EXPECT_GT(mid.degraded_sessions, 0u);
  EXPECT_EQ(mid.sessions_evicted, 0u)
      << "the ladder should absorb this pressure without evicting";
  // The reported fleet-wide bound is a real ladder rung.
  EXPECT_GE(mid.max_error_bound, 2.0 * config.epsilon);
  EXPECT_LE(mid.max_error_bound, 4.0 * config.epsilon);

  engine.FinishAll();
  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.records_ingested, 600u);
  EXPECT_EQ(stats.degraded_sessions, 0u);  // nothing live anymore

  // Degradation announcements went to the sink, and each announced bound
  // is a ladder rung (or the base epsilon, on recovery).
  const auto bounds = sink.bounds();
  ASSERT_FALSE(bounds.empty());
  for (const auto& [device, history] : bounds) {
    (void)device;
    for (const double b : history) {
      EXPECT_TRUE(b == config.epsilon || b == 2.0 * config.epsilon ||
                  b == 4.0 * config.epsilon)
          << b;
    }
  }

  // The widened-bound contract, verified geometrically: re-segment each
  // device's original stream by its emitted keys and measure true
  // deviation. Every segment was produced by a compressor honoring some
  // rung's epsilon, so the stream-wide max is within the reported bound.
  const auto keys = sink.keys();
  for (const auto& [device, stream] : streams) {
    ASSERT_TRUE(keys.contains(device));
    const CompressedTrajectory mapped =
        MapKeysToStream(stream, keys.at(device));
    const DeviationReport report =
        EvaluateCompression(stream, mapped, config.metric);
    EXPECT_TRUE(report.BoundedBy(stats.max_error_bound))
        << "device " << device << " deviated " << report.max_deviation
        << " > " << stats.max_error_bound;
  }
}

TEST(FleetOverloadTest, EpsLadderRecoversWhenPressureClears) {
  const AlgorithmConfig config = ConfigFor(AlgorithmId::kBqs);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = config;
  options.num_shards = 1;
  // Tuned to the BQS segment buffer's footprint (32 B per buffered point:
  // start-relative x and y plus the absolute position): the two growing
  // sessions below overflow it, device 1 alone does not. 2560-3276 pass.
  options.memory_budget_bytes = 3072;
  options.overload.eps_ladder = {2.0};
  FleetEngine engine(options, sink);

  const Trajectory walk_a = testing_util::SmoothWalk(8301, 250);
  const std::span<const TrackPoint> a(walk_a);
  const Trajectory walk_b = testing_util::SmoothWalk(8302, 200);

  // Grow device 1, then let device 2's growth degrade it (LRU order).
  for (const TrackPoint& pt : a.subspan(0, 200)) engine.Ingest(1, pt);
  for (const TrackPoint& pt : walk_b) engine.Ingest(2, pt);
  const FleetStats mid = engine.Stats();
  EXPECT_GE(mid.sessions_degraded, 1u);
  EXPECT_EQ(mid.sessions_evicted, 0u);

  // Pressure clears; device 1's next records step it back to base eps.
  engine.FinishDevice(2);
  for (const TrackPoint& pt : a.subspan(200)) engine.Ingest(1, pt);
  engine.FinishAll();
  const FleetStats stats = engine.Stats();

  EXPECT_GE(stats.sessions_recovered, 1u);
  EXPECT_EQ(stats.degraded_sessions, 0u);
  const auto bounds = sink.bounds();
  ASSERT_TRUE(bounds.contains(1));
  ASSERT_GE(bounds.at(1).size(), 2u);
  EXPECT_EQ(bounds.at(1).front(), 2.0 * config.epsilon);  // degrade...
  EXPECT_EQ(bounds.at(1).back(), config.epsilon);         // ...then recover
  EXPECT_EQ(stats.max_error_bound, 2.0 * config.epsilon);
}

}  // namespace
}  // namespace bqs
