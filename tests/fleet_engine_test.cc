// FleetEngine: the sharded multi-device session manager. The headline
// invariant — for any shard count, per-device output is byte-identical to
// compressing that device's stream alone through CompressAll — plus session
// lifecycle (finish, reopen, budget eviction, idle timeout), stats
// aggregation, and ingest-chunking independence.
#include "service/fleet_engine.h"

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "simulation/datasets.h"
#include "test_util.h"
#include "trajectory/compressor.h"

namespace bqs {
namespace {

/// Collects per-device output. OnKeyPoint may fire concurrently for
/// different devices, so every mutation locks.
class CollectingSink final : public FleetSink {
 public:
  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_[device].push_back(key);
  }
  void OnSessionEnd(DeviceId device, SessionEndReason reason) override {
    std::lock_guard<std::mutex> lock(mu_);
    ends_[device].push_back(reason);
  }

  std::map<DeviceId, std::vector<KeyPoint>> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }
  std::map<DeviceId, std::vector<SessionEndReason>> ends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ends_;
  }

 private:
  mutable std::mutex mu_;
  std::map<DeviceId, std::vector<KeyPoint>> keys_;
  std::map<DeviceId, std::vector<SessionEndReason>> ends_;
};

AlgorithmConfig ConfigFor(AlgorithmId id) {
  AlgorithmConfig config;
  config.id = id;
  config.epsilon = 8.0;
  return config;
}

/// Feeds `feed` in chunks of `chunk` records and finalizes everything.
void RunFleet(FleetEngine& engine, const std::vector<FleetRecord>& feed,
              std::size_t chunk) {
  for (std::size_t i = 0; i < feed.size(); i += chunk) {
    const std::size_t n = std::min(chunk, feed.size() - i);
    engine.IngestBatch(std::span<const FleetRecord>(feed.data() + i, n));
  }
  engine.FinishAll();
}

/// Sequential reference: each device's stream alone through CompressAll.
std::map<DeviceId, std::vector<KeyPoint>> SequentialReference(
    const FleetDataset& fleet, const AlgorithmConfig& config) {
  std::map<DeviceId, std::vector<KeyPoint>> out;
  for (const auto& [device, stream] : fleet.devices) {
    auto compressor = MakeStreamCompressor(config);
    out[device] = CompressAll(*compressor, stream).keys;
  }
  return out;
}

TEST(FleetEngineTest, PerDeviceOutputMatchesSequentialAcrossShardCounts) {
  // shards=0 is inline mode: same router, no threads — held to the same
  // byte-identity invariant as every threaded shard count.
  const FleetDataset fleet = BuildFleetDataset(12, 0.05, 7001);
  const AlgorithmId algorithms[] = {AlgorithmId::kBqs, AlgorithmId::kFbqs,
                                    AlgorithmId::kBdp, AlgorithmId::kBgd,
                                    AlgorithmId::kDr};
  for (const AlgorithmId id : algorithms) {
    const AlgorithmConfig config = ConfigFor(id);
    const auto reference = SequentialReference(fleet, config);
    for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{8}}) {
      CollectingSink sink;
      FleetEngineOptions options;
      options.algorithm = config;
      options.num_shards = shards;
      {
        FleetEngine engine(options, sink);
        RunFleet(engine, fleet.feed, 512);
      }
      EXPECT_EQ(sink.keys(), reference)
          << AlgorithmName(id) << " diverged at " << shards << " shards";
    }
  }
}

TEST(FleetEngineTest, OutputIndependentOfIngestChunking) {
  const FleetDataset fleet = BuildFleetDataset(6, 0.04, 7002);
  const AlgorithmConfig config = ConfigFor(AlgorithmId::kBqs);
  std::map<DeviceId, std::vector<KeyPoint>> first;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{37},
                                  std::size_t{4096}}) {
    CollectingSink sink;
    FleetEngineOptions options;
    options.algorithm = config;
    options.num_shards = 3;
    {
      FleetEngine engine(options, sink);
      RunFleet(engine, fleet.feed, chunk);
    }
    if (first.empty()) {
      first = sink.keys();
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(sink.keys(), first) << "chunk size " << chunk;
    }
  }
}

TEST(FleetEngineTest, FinishDeviceClosesOnlyThatSession) {
  const Trajectory stream = testing_util::SmoothWalk(7003, 400);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kFbqs);
  options.num_shards = 2;
  FleetEngine engine(options, sink);
  for (const TrackPoint& pt : stream) {
    engine.Ingest(1, pt);
    engine.Ingest(2, pt);
  }
  engine.FinishDevice(1);
  engine.Flush();
  {
    const auto ends = sink.ends();
    ASSERT_EQ(ends.count(1), 1u);
    EXPECT_EQ(ends.at(1),
              std::vector<SessionEndReason>{SessionEndReason::kFinished});
    EXPECT_EQ(ends.count(2), 0u);
  }
  // Finishing an already-closed device is a harmless no-op.
  engine.FinishDevice(1);
  engine.FinishAll();
  const auto ends = sink.ends();
  EXPECT_EQ(ends.at(1).size(), 1u);
  EXPECT_EQ(ends.at(2),
            std::vector<SessionEndReason>{SessionEndReason::kFinished});

  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.sessions_finished, 2u);
  EXPECT_EQ(stats.live_sessions, 0u);
  EXPECT_EQ(stats.records_ingested, 2 * stream.size());
}

TEST(FleetEngineTest, ReopenedSessionsMatchAFreshCompressor) {
  const Trajectory stream = testing_util::JaggedWalk(7004, 300);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 1;
  FleetEngine engine(options, sink);

  // Three generations of the same device: each finish closes the session,
  // each reopen starts a new one.
  std::vector<KeyPoint> expected;
  {
    auto reference = MakeStreamCompressor(options.algorithm);
    expected = CompressAll(*reference, stream).keys;
  }
  for (int generation = 0; generation < 3; ++generation) {
    for (const TrackPoint& pt : stream) engine.Ingest(42, pt);
    engine.FinishDevice(42);
  }
  engine.FinishAll();

  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.sessions_opened, 3u);
  EXPECT_EQ(stats.sessions_finished, 3u);
  EXPECT_EQ(stats.state_bytes, 0u);

  // Every generation's output is byte-identical to a fresh compressor's.
  const auto keys = sink.keys().at(42);
  ASSERT_EQ(keys.size(), 3 * expected.size());
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(keys[g * expected.size() + i], expected[i])
          << "generation " << g << " key " << i;
    }
  }
}

TEST(FleetEngineTest, MemoryBudgetEvictsLeastRecentlyActiveSessions) {
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 1;
  // Room for roughly two base charges: a third concurrent session must
  // evict the least recently active one.
  options.memory_budget_bytes = 2 * FleetEngine::kSessionBaseBytes + 64;
  FleetEngine engine(options, sink);

  const Trajectory stream = testing_util::SmoothWalk(7005, 120);
  for (DeviceId device = 1; device <= 4; ++device) {
    for (const TrackPoint& pt : stream) engine.Ingest(device, pt);
  }
  engine.Flush();
  const FleetStats mid = engine.Stats();
  EXPECT_GT(mid.sessions_evicted, 0u);
  EXPECT_LE(mid.state_bytes, options.memory_budget_bytes);
  engine.FinishAll();
  // Closed sessions take their compressors with them: nothing stays
  // accounted once every session is finished.
  const FleetStats end = engine.Stats();
  EXPECT_EQ(end.state_bytes, 0u);

  bool saw_evicted = false;
  for (const auto& [device, reasons] : sink.ends()) {
    (void)device;
    for (const SessionEndReason reason : reasons) {
      saw_evicted = saw_evicted || reason == SessionEndReason::kEvicted;
    }
  }
  EXPECT_TRUE(saw_evicted);
}

TEST(FleetEngineTest, IdleTimeoutFinalizesStaleSessions) {
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kFbqs);
  options.num_shards = 1;
  options.idle_timeout_seconds = 50.0;
  FleetEngine engine(options, sink);

  // Device 1 sends early and goes quiet; device 2 keeps transmitting past
  // the timeout horizon.
  for (int i = 0; i < 10; ++i) {
    engine.Ingest(1, TrackPoint{{static_cast<double>(i), 0.0},
                                static_cast<double>(i)});
  }
  for (int i = 0; i < 200; ++i) {
    engine.Ingest(2, TrackPoint{{static_cast<double>(i), 5.0},
                                static_cast<double>(i)});
  }
  engine.Flush();
  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.sessions_idled, 1u);
  EXPECT_EQ(stats.live_sessions, 1u);
  const auto ends = sink.ends();
  ASSERT_EQ(ends.count(1), 1u);
  EXPECT_EQ(ends.at(1),
            std::vector<SessionEndReason>{SessionEndReason::kIdle});
  engine.FinishAll();
}

TEST(FleetEngineTest, AggregatesDecisionStatsAcrossSessions) {
  const FleetDataset fleet = BuildFleetDataset(5, 0.04, 7006);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 4;
  FleetEngine engine(options, sink);
  engine.IngestBatch(fleet.feed);

  // Live sessions' stats are part of the aggregate even before FinishAll.
  const FleetStats mid = engine.Stats();
  EXPECT_EQ(mid.decisions.points, fleet.feed.size());
  EXPECT_EQ(mid.live_sessions, fleet.devices.size());
  EXPECT_GT(mid.state_bytes,
            fleet.devices.size() * FleetEngine::kSessionBaseBytes - 1);
  EXPECT_GE(mid.peak_state_bytes, mid.state_bytes);

  engine.FinishAll();
  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.decisions.points, fleet.feed.size());
  EXPECT_EQ(stats.records_ingested, fleet.feed.size());
  EXPECT_EQ(stats.key_points_emitted,
            [&] {
              std::size_t n = 0;
              for (const auto& [device, keys] : sink.keys()) n += keys.size();
              return n;
            }());
  EXPECT_EQ(stats.live_sessions, 0u);
  EXPECT_EQ(stats.state_bytes, 0u);
}

TEST(FleetEngineTest, OfflineAlgorithmRecordsAreDroppedAndCounted) {
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kDp);  // offline: no sessions
  FleetEngine engine(options, sink);
  const Trajectory stream = testing_util::SmoothWalk(7007, 50);
  for (const TrackPoint& pt : stream) engine.Ingest(9, pt);
  engine.FinishAll();
  const FleetStats stats = engine.Stats();
  EXPECT_EQ(stats.records_ingested, 0u);
  EXPECT_EQ(stats.records_dropped, stream.size());
  EXPECT_TRUE(sink.keys().empty());
}

TEST(FleetEngineTest, EmptyBatchAndDestructionWithoutFinishAreSafe) {
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kFbqs);
  options.num_shards = 3;
  {
    FleetEngine engine(options, sink);
    engine.IngestBatch({});
    engine.Flush();
    const Trajectory stream = testing_util::SmoothWalk(7008, 100);
    for (const TrackPoint& pt : stream) engine.Ingest(1, pt);
    // Destructor drains the queue but does not finalize sessions.
  }
  for (const auto& [device, reasons] : sink.ends()) {
    (void)device;
    EXPECT_TRUE(reasons.empty());
  }
}

/// Builds an interleaved feed from per-device streams by a caller-chosen
/// pattern; returns the feed (per-device record order always preserved).
using Pattern = std::vector<std::size_t>;  // sequence of device indices

std::vector<FleetRecord> Weave(const FleetDataset& fleet,
                               const Pattern& pattern,
                               std::size_t burst) {
  std::vector<FleetRecord> feed;
  std::vector<std::size_t> cursor(fleet.devices.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const std::size_t d : pattern) {
      const auto& [device, stream] = fleet.devices[d];
      for (std::size_t b = 0; b < burst && cursor[d] < stream.size(); ++b) {
        feed.push_back(FleetRecord{device, stream[cursor[d]++]});
        progressed = true;
      }
    }
  }
  return feed;
}

/// The router's dispatch count, replayed from the outside: every block
/// holds at most `cap` records and gives each device in it one dispatch.
/// Blocks seal when full, at FinishAll, and in inline mode at the end of
/// every IngestBatch; a run longer than a block's room splits at the cap.
uint64_t ExpectedDispatches(const FleetEngine& engine,
                            const std::vector<FleetRecord>& feed,
                            std::size_t chunk, std::size_t cap) {
  struct Filling {
    std::size_t count = 0;
    std::set<DeviceId> devices;
  };
  std::vector<Filling> shards(engine.num_shards());
  uint64_t dispatches = 0;
  const auto seal = [&dispatches](Filling& filling) {
    dispatches += filling.devices.size();
    filling = Filling{};
  };
  for (std::size_t begin = 0; begin < feed.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, feed.size());
    for (std::size_t i = begin; i < end; ++i) {
      Filling& filling = shards[engine.ShardOf(feed[i].device)];
      filling.devices.insert(feed[i].device);
      if (++filling.count == cap) seal(filling);
    }
    if (engine.inline_mode()) seal(shards[0]);
  }
  for (Filling& filling : shards) seal(filling);
  return dispatches;
}

TEST(FleetEngineTest, RunCoalescingFuzzAcrossInterleavings) {
  // The router groups each block by device and dispatches each device's
  // span as one PushBatch. Whatever the interleaving shape — long bursts
  // that cross the block capacity and split across blocks, strict
  // round-robin (every run length 1), whole streams back to back,
  // adversarial two-device alternation, or random bursts — per-device
  // output must stay byte-identical to sequential CompressAll at every
  // shard count including inline mode, for every streaming algorithm,
  // under randomized ingest chunking, and the engine must dispatch exactly
  // once per (block, device) pair.
  const FleetDataset fleet = BuildFleetDataset(6, 0.04, 7100);
  const std::size_t n = fleet.devices.size();

  struct NamedFeed {
    const char* name;
    std::vector<FleetRecord> feed;
  };
  std::vector<NamedFeed> feeds;
  Pattern all;
  for (std::size_t d = 0; d < n; ++d) all.push_back(d);
  feeds.push_back({"round_robin", Weave(fleet, all, 1)});
  feeds.push_back({"bursty", Weave(fleet, all, 7)});
  // Bursts of 150 against 64-record blocks: every run crosses the cap.
  feeds.push_back({"cap_crossing", Weave(fleet, all, 150)});
  feeds.push_back({"single_device", Weave(fleet, all, 1u << 20)});
  // Adversarial alternation: A,B,A,B,... then C,D,C,D,... — run length 1
  // with only two live devices at a time, the worst case for coalescing.
  Pattern pairs;
  for (std::size_t d = 0; d + 1 < n; d += 2) {
    for (int repeat = 0; repeat < 64; ++repeat) {
      pairs.push_back(d);
      pairs.push_back(d + 1);
    }
  }
  feeds.push_back({"alternation", Weave(fleet, pairs, 1)});
  feeds.push_back({"original_bursty_random", fleet.feed});

  const AlgorithmId algorithms[] = {AlgorithmId::kBqs, AlgorithmId::kFbqs,
                                    AlgorithmId::kBdp, AlgorithmId::kBgd,
                                    AlgorithmId::kDr};
  Rng rng(0xC0A1E5CEULL);
  for (const AlgorithmId id : algorithms) {
    const AlgorithmConfig config = ConfigFor(id);
    const auto reference = SequentialReference(fleet, config);
    for (const NamedFeed& named : feeds) {
      ASSERT_EQ(named.feed.size(), fleet.feed.size()) << named.name;
      for (const std::size_t shards :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
            std::size_t{8}}) {
        CollectingSink sink;
        FleetEngineOptions options;
        options.algorithm = config;
        options.num_shards = shards;
        // Small blocks so every feed shape crosses block boundaries.
        options.block_capacity = 64;
        {
          FleetEngine engine(options, sink);
          const std::size_t chunk = static_cast<std::size_t>(
              rng.UniformInt(1, 300));
          RunFleet(engine, named.feed, chunk);
          EXPECT_EQ(engine.Stats().coalesced_runs,
                    ExpectedDispatches(engine, named.feed, chunk,
                                       options.block_capacity))
              << AlgorithmName(id) << " feed=" << named.name
              << " shards=" << shards << " chunk=" << chunk;
        }
        EXPECT_EQ(sink.keys(), reference)
            << AlgorithmName(id) << " feed=" << named.name
            << " shards=" << shards;
      }
    }
  }
}

TEST(FleetEngineTest, PipelineCountersExposeIngestShape) {
  const FleetDataset fleet = BuildFleetDataset(8, 0.05, 7200);

  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 2;
  options.block_capacity = 64;
  // A shallow ring guarantees the producer laps the arena, so recycling
  // provably engages even on a single-core machine.
  options.max_pending_blocks = 4;
  {
    CollectingSink sink;
    FleetEngine engine(options, sink);
    RunFleet(engine, fleet.feed, 512);
    const FleetStats stats = engine.Stats();
    EXPECT_EQ(stats.records_ingested, fleet.feed.size());
    // Run coalescing happened: strictly fewer dispatches than records
    // (the bursty feed guarantees multi-record runs), and every record
    // went through some run.
    EXPECT_GT(stats.coalesced_runs, 0u);
    EXPECT_LT(stats.coalesced_runs, stats.records_ingested);
    // Block pipeline engaged and the arena recycled: far more blocks
    // dispatched than ever allocated (allocations are bounded by the few
    // blocks that can be outstanding at once).
    EXPECT_GT(stats.blocks_dispatched, 0u);
    EXPECT_EQ(stats.blocks_allocated + stats.blocks_recycled,
              stats.blocks_dispatched);
    EXPECT_GT(stats.blocks_recycled, 0u);
    EXPECT_LE(stats.blocks_allocated,
              2 * (options.max_pending_blocks + 2));
    EXPECT_LE(stats.peak_queue_depth, options.max_pending_blocks);
  }

  // Inline mode (num_shards 0 and 1 both take the single-shard shortcut):
  // no threads and no queue, but the same blocks, grouped the same way and
  // counted through the same stats. Its block runs on the caller's thread
  // and goes straight back to the arena, so one block serves every seal.
  {
    CollectingSink sink;
    FleetEngineOptions one = options;
    one.num_shards = 1;
    FleetEngine engine(one, sink);
    EXPECT_TRUE(engine.inline_mode());
  }
  options.num_shards = 0;
  CollectingSink sink;
  FleetEngine engine(options, sink);
  RunFleet(engine, fleet.feed, 512);
  const FleetStats stats = engine.Stats();
  EXPECT_TRUE(engine.inline_mode());
  EXPECT_EQ(engine.num_shards(), 1u);
  EXPECT_EQ(stats.records_ingested, fleet.feed.size());
  EXPECT_GT(stats.coalesced_runs, 0u);
  EXPECT_GT(stats.blocks_dispatched, 0u);
  EXPECT_EQ(stats.blocks_allocated, 1u);
  EXPECT_EQ(stats.blocks_allocated + stats.blocks_recycled,
            stats.blocks_dispatched);
  EXPECT_EQ(stats.worker_wakes, 0u);
  EXPECT_EQ(stats.backpressure_waits, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);

  // A batch holding one device's whole stream (the per-device upload
  // shape), longer than a block: it splits at the cap into one dispatch
  // per block, with the same bytes as compressing the stream alone.
  const Trajectory upload = testing_util::SmoothWalk(7201, 600);
  ASSERT_GT(upload.size(), options.block_capacity);
  constexpr DeviceId kUploader = 99;
  std::vector<FleetRecord> batch;
  for (const TrackPoint& pt : upload) batch.push_back({kUploader, pt});
  engine.IngestBatch(batch);
  const FleetStats after = engine.Stats();
  const std::size_t blocks =
      (upload.size() + options.block_capacity - 1) / options.block_capacity;
  EXPECT_EQ(after.coalesced_runs, stats.coalesced_runs + blocks);
  EXPECT_EQ(after.records_ingested, stats.records_ingested + upload.size());
  engine.FinishDevice(kUploader);
  auto reference = MakeStreamCompressor(options.algorithm);
  EXPECT_EQ(sink.keys().at(kUploader), CompressAll(*reference, upload).keys);
}

TEST(FleetEngineTest, InlineModeCompressesSynchronously) {
  const Trajectory stream = testing_util::SmoothWalk(7300, 600);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kBqs);
  options.num_shards = 0;
  FleetEngine engine(options, sink);

  std::vector<FleetRecord> records;
  records.reserve(stream.size());
  for (const TrackPoint& pt : stream) records.push_back({11, pt});
  engine.IngestBatch(records);
  // No Flush, no Finish: inline mode already compressed everything on the
  // caller thread (the first point is always emitted immediately).
  EXPECT_FALSE(sink.keys().empty());
  EXPECT_GE(sink.keys().at(11).size(), 1u);
  const FleetStats mid = engine.Stats();
  EXPECT_EQ(mid.records_ingested, stream.size());
  EXPECT_EQ(mid.live_sessions, 1u);

  // FinishDevice is immediate too.
  engine.FinishDevice(11);
  ASSERT_EQ(sink.ends().count(11), 1u);
  EXPECT_EQ(sink.ends().at(11),
            std::vector<SessionEndReason>{SessionEndReason::kFinished});

  // Output equals the sequential reference, like every other mode.
  auto reference = MakeStreamCompressor(options.algorithm);
  EXPECT_EQ(sink.keys().at(11), CompressAll(*reference, stream).keys);
}

TEST(FleetEngineTest, StatsSnapshotsAreMonotoneAndDrainVisible) {
  // The Stats() contract: every cumulative counter and peak is monotone
  // non-decreasing across snapshots, and a snapshot after Flush() (or
  // Stats' own drain) reflects every record ingested before it — in both
  // accounting modes, lazy (no budget) and eager (budget set).
  const FleetDataset fleet = BuildFleetDataset(6, 0.05, 7400);
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1} << 20}) {
    CollectingSink sink;
    FleetEngineOptions options;
    options.algorithm = ConfigFor(AlgorithmId::kBqs);
    options.num_shards = 2;
    options.block_capacity = 16;
    // A one-deep ring with tiny blocks forces real backpressure, so the
    // blocked-producer counter provably registers and stays visible.
    options.max_pending_blocks = 1;
    options.memory_budget_bytes = budget;
    FleetEngine engine(options, sink);

    FleetStats prev;
    std::size_t fed = 0;
    const std::size_t chunk = 200;
    for (std::size_t i = 0; i < fleet.feed.size(); i += chunk) {
      const std::size_t n = std::min(chunk, fleet.feed.size() - i);
      engine.IngestBatch(
          std::span<const FleetRecord>(fleet.feed.data() + i, n));
      fed += n;
      const FleetStats s = engine.Stats();
      // Stats() drains, so the snapshot covers everything fed so far.
      EXPECT_EQ(s.records_ingested, fed) << "budget " << budget;
      EXPECT_GE(s.records_ingested, prev.records_ingested);
      EXPECT_GE(s.key_points_emitted, prev.key_points_emitted);
      EXPECT_GE(s.coalesced_runs, prev.coalesced_runs);
      EXPECT_GE(s.blocks_dispatched, prev.blocks_dispatched);
      EXPECT_GE(s.worker_wakes, prev.worker_wakes);
      EXPECT_GE(s.backpressure_waits, prev.backpressure_waits);
      EXPECT_GE(s.peak_queue_depth, prev.peak_queue_depth);
      EXPECT_GE(s.peak_state_bytes, prev.peak_state_bytes);
      EXPECT_GE(s.sessions_opened, prev.sessions_opened);
      // Peaks dominate the current values they track.
      EXPECT_GE(s.peak_state_bytes, s.state_bytes);
      EXPECT_GE(s.peak_queue_depth, 1u);
      prev = s;
    }

    engine.Flush();
    const FleetStats flushed = engine.Stats();
    EXPECT_EQ(flushed.records_ingested, fleet.feed.size());
    // The shallow ring made the producer block; the waits survived into
    // the post-Flush snapshot and never decreased along the way.
    EXPECT_GT(flushed.backpressure_waits, 0u) << "budget " << budget;
    EXPECT_GE(flushed.backpressure_waits, prev.backpressure_waits);

    engine.FinishAll();
    const FleetStats end = engine.Stats();
    EXPECT_EQ(end.live_sessions, 0u);
    EXPECT_EQ(end.state_bytes, 0u);
    EXPECT_GE(end.peak_state_bytes, flushed.peak_state_bytes);
    EXPECT_GE(end.key_points_emitted, flushed.key_points_emitted);
    EXPECT_EQ(end.records_ingested + end.records_dropped,
              fleet.feed.size());
  }
}

TEST(FleetEngineTest, EvictedDeviceReappearsWithByteIdenticalSessions) {
  // Budget eviction is not the end of a device: its next record opens a
  // fresh session transparently. Each of the device's sessions must be
  // byte-identical to compressing that session's records alone — the
  // kEvicted -> reappear lifecycle the service layer promises.
  const AlgorithmConfig config = ConfigFor(AlgorithmId::kBqs);
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = config;
  options.num_shards = 1;
  // Holds device 1's small session comfortably, but not alongside a grown
  // neighbor: feeding devices 2 and 3 must push device 1 (the LRU) out.
  options.memory_budget_bytes = 2048;
  FleetEngine engine(options, sink);

  const Trajectory first = testing_util::SmoothWalk(7501, 40);
  const Trajectory second = testing_util::SmoothWalk(7502, 40);
  for (const TrackPoint& pt : first) engine.Ingest(1, pt);
  for (DeviceId device = 2; device <= 3; ++device) {
    const Trajectory pressure = testing_util::SmoothWalk(7500 + 10 * device,
                                                         200);
    for (const TrackPoint& pt : pressure) engine.Ingest(device, pt);
  }
  {
    const auto ends = sink.ends();
    ASSERT_TRUE(ends.contains(1));
    EXPECT_EQ(ends.at(1), std::vector<SessionEndReason>{
                              SessionEndReason::kEvicted});
  }

  // The device reappears and finishes normally.
  for (const TrackPoint& pt : second) engine.Ingest(1, pt);
  engine.FinishAll();
  const FleetStats stats = engine.Stats();
  EXPECT_GE(stats.sessions_evicted, 1u);
  EXPECT_GE(stats.sessions_opened, 4u);  // device 1 twice, devices 2 and 3

  const auto ends = sink.ends();
  EXPECT_EQ(ends.at(1),
            (std::vector<SessionEndReason>{SessionEndReason::kEvicted,
                                           SessionEndReason::kFinished}));
  // Session 1 closed with its full compressed output (eviction finalizes
  // through the same Finish path as FinishAll), session 2 compressed from
  // scratch.
  auto reference = MakeStreamCompressor(config);
  std::vector<KeyPoint> expected = CompressAll(*reference, first).keys;
  reference->Reset();
  const std::vector<KeyPoint> again = CompressAll(*reference, second).keys;
  expected.insert(expected.end(), again.begin(), again.end());
  EXPECT_EQ(sink.keys().at(1), expected);
}

TEST(FleetEngineTest, ShardRoutingIsStableAndInRange) {
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = ConfigFor(AlgorithmId::kFbqs);
  options.num_shards = 8;
  FleetEngine engine(options, sink);
  ASSERT_EQ(engine.num_shards(), 8u);
  std::vector<std::size_t> hits(engine.num_shards(), 0);
  for (DeviceId device = 0; device < 1000; ++device) {
    const std::size_t shard = engine.ShardOf(device);
    ASSERT_LT(shard, engine.num_shards());
    EXPECT_EQ(shard, engine.ShardOf(device));  // stable
    ++hits[shard];
  }
  // splitmix64 routing should spread sequential ids across all shards.
  for (const std::size_t h : hits) EXPECT_GT(h, 50u);
}

}  // namespace
}  // namespace bqs
