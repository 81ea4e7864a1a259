// End-to-end pipeline benchmark: fleet ingest, the BQS kernel, the key-point
// WAL, compaction and block range queries, driven together in one process.
//
// One rep is one closed-loop pass of a seeded, pre-generated fleet feed
// through a fresh store directory:
//
//   setup      FleetEngine (BQS, eps = 10 m) + KeyPointWal::Open (group
//              commit, 64 KiB segments) + Compactor          -> setup_s
//   ingest     IngestBatch, 1,024 fixes per call, one producer thread
//   barrier    every `barrier_every` fixes: Flush, CheckpointWal, then
//              Compactor::CompactOnce(wal.current_segment_index()) -- the
//              call the engine would make itself, made here so each layer
//              is its own span
//   queries    query_mix only: BlockStore::Open + range queries per barrier
//   finish     FinishAll, then a final barrier                -> rep wall
//   restart    WAL Close, RecoverStore (3 times, median)      -> recover_ms
//   read-back  BlockStore::Open + 512 range queries on the final store
//              (every workload; outside the rep wall)         -> query_p50_us
//
// Every timing is normalized by bench-local calibration passes run around
// and through the rep, and the end-to-end metrics come from the half of
// the reps the passes saw least disturbed (see "Host-speed calibration").
//
// Every rep is verified after its timing stops: per-device sink output
// byte-identical to CompressAll on the device's own stream, recovery equal
// to the sink's key points under wal::Quantize, every query equal to a
// brute-force scan of the recovered checkpoints at or below the watermark
// it ran at, ingested + shed + dropped == fed, storage healthy and no
// failed operation. Any violation makes the run print correct=false and
// exit 1.
//
// Usage:
//   bench_pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out PATH] [--work-dir DIR]
//   bench_pipeline --self-test
//
// --trace 0 reports the end-to-end metrics (medians over untraced reps,
// latencies pooled across reps). --trace 1 alternates untraced and traced
// reps and reports the per-layer metrics from the traced ones; --trace-out
// writes the last traced rep's spans as JSON. The last stdout line is the
// result object; bench/pipeline/run.py builds this program and checks that
// line against BENCHMARK.json.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/op_counters.h"
#include "common/rng.h"
#include "common/simd.h"
#include "eval/algorithms.h"
#include "service/fleet_engine.h"
#include "simulation/datasets.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"
#include "storage/wal_format.h"
#include "trace.h"
#include "trajectory/compressor.h"

namespace bqs::pipeline {
namespace {

constexpr double kEpsilon = 10.0;
constexpr std::size_t kIngestBatch = 1024;
constexpr std::size_t kSegmentBytes = std::size_t{64} << 10;
// Far above any session's per-barrier output, so WAL appends happen at the
// barriers (inside the storage.wal span) and never inside IngestBatch.
constexpr std::size_t kCheckpointPoints = std::size_t{1} << 20;
// Read-back queries per rep, drawn from a plan of kReadbackSlices slices
// that successive reps rotate through, so a run samples thousands of
// distinct queries rather than repeating one set.
constexpr std::size_t kReadbackQueries = 512;
constexpr std::size_t kReadbackSlices = 8;
// RecoverStore runs per rep; the rep reports their median.
constexpr int kRecoveries = 3;
constexpr int kMinReps = 11;
constexpr int kMinTracedReps = 3;
// Stop adding reps past this much measuring time even if a percentile still
// lacks samples; the run then fails rather than report an unsupported tail.
constexpr double kMaxMeasureSeconds = 120.0;

struct WorkloadSpec {
  const char* name;
  bool empirical;  ///< Simulated bats and vehicles, not random walks.
  std::size_t devices;
  std::size_t fixes_per_device;  ///< Random-walk feeds only.
  std::size_t shards;            ///< 0 = inline (no worker threads).
  std::size_t barrier_every;     ///< Fixes fed between durability barriers.
  std::size_t queries_per_barrier;
};

// Why these four: moving_inline keeps the kernel on its scalar path;
// empirical_inline puts it on the vector lanes so the service and storage
// layers hold the larger share; moving_sharded is the only one on the
// ring/arena/worker path; query_mix runs reads beside writes.
constexpr WorkloadSpec kWorkloads[] = {
    {"moving_inline", false, 48, 24000, 0, 65536, 0},
    {"empirical_inline", true, 48, 0, 0, 65536, 0},
    {"moving_sharded", false, 48, 24000, 3, 65536, 0},
    {"query_mix", false, 24, 24000, 0, 16384, 64},
};

// ---------------------------------------------------------------------------
// Load generation (before any timing; the program sees only the records).
// ---------------------------------------------------------------------------

struct Feed {
  std::vector<FleetRecord> records;
  std::vector<DeviceId> ids;                     ///< Slot -> device.
  std::vector<Trajectory> streams;               ///< Slot -> own stream.
  std::vector<std::vector<KeyPoint>> reference;  ///< CompressAll per slot.
};

double Div(double num, double den) { return den != 0.0 ? num / den : 0.0; }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Interleaves per-device streams into one bursty arrival feed: pick a
/// random unfinished device, take its next 1-8 fixes (the weave
/// BuildFleetDataset uses).
std::vector<FleetRecord> Weave(const std::vector<DeviceId>& ids,
                               const std::vector<Trajectory>& streams,
                               uint64_t seed) {
  std::size_t total = 0;
  for (const Trajectory& s : streams) total += s.size();
  std::vector<FleetRecord> feed;
  feed.reserve(total);
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<std::size_t> unfinished(streams.size());
  for (std::size_t d = 0; d < streams.size(); ++d) unfinished[d] = d;
  Rng rng(seed);
  while (!unfinished.empty()) {
    const auto pick = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(unfinished.size()) - 1));
    const std::size_t d = unfinished[pick];
    const auto burst = static_cast<std::size_t>(rng.UniformInt(1, 8));
    for (std::size_t b = 0; b < burst && cursor[d] < streams[d].size(); ++b) {
      feed.push_back(FleetRecord{ids[d], streams[d][cursor[d]++]});
    }
    if (cursor[d] >= streams[d].size()) {
      unfinished[pick] = unfinished.back();
      unfinished.pop_back();
    }
  }
  return feed;
}

/// Empirical feed: every sixth device is a vehicle, the rest are bats (a
/// vehicle stream is a sixth of a bat stream's length, so vehicles are ~3%
/// of the fixes). Each device gets its own simulated stream; averaging over
/// 48 independent animals and cars keeps the compression rate nearly the
/// same from seed to seed. Each stream is moved to its own cell of a fixed
/// 30 km grid, so the spatial layout the queries see does not change with
/// the seed either.
void BuildEmpiricalFeed(const WorkloadSpec& w, uint64_t seed, Feed* feed) {
  for (std::size_t d = 0; d < w.devices; ++d) {
    const uint64_t device_seed = SplitMix64(seed * 1000 + d);
    Trajectory stream = d % 6 == 5
                            ? BuildVehicleDataset(1.0, device_seed).stream
                            : BuildBatDataset(0.5, device_seed).stream;
    const double dx = 30000.0 * static_cast<double>(d % 8);
    const double dy = 30000.0 * static_cast<double>(d / 8);
    for (TrackPoint& p : stream) {
      p.pos.x += dx;
      p.pos.y += dy;
    }
    feed->ids.push_back(1000 + 7919 * static_cast<DeviceId>(d));
    feed->streams.push_back(std::move(stream));
  }
  feed->records = Weave(feed->ids, feed->streams, SplitMix64(seed ^ 0x3eaeULL));
}

AlgorithmConfig KernelConfig() {
  AlgorithmConfig config;
  config.id = AlgorithmId::kBqs;
  config.epsilon = kEpsilon;
  return config;
}

/// Replays every device's stream alone through CompressAll; returns the
/// elapsed nanoseconds. Fills `out` (one vector per slot) when non-null.
int64_t ReplayCore(const Feed& feed,
                   std::vector<std::vector<KeyPoint>>* out) {
  std::unique_ptr<StreamCompressor> compressor =
      MakeStreamCompressor(KernelConfig());
  if (out != nullptr) out->assign(feed.streams.size(), {});
  const int64_t t0 = NowNs();
  for (std::size_t d = 0; d < feed.streams.size(); ++d) {
    CompressedTrajectory keys = CompressAll(*compressor, feed.streams[d]);
    if (out != nullptr) (*out)[d] = std::move(keys.keys);
  }
  return NowNs() - t0;
}

Feed BuildFeed(const WorkloadSpec& w, uint64_t seed) {
  Feed feed;
  if (w.empirical) {
    BuildEmpiricalFeed(w, seed, &feed);
  } else {
    FleetDataset fleet = BuildFleetDataset(
        w.devices, static_cast<double>(w.fixes_per_device) / 6000.0,
        SplitMix64(seed));
    feed.records = std::move(fleet.feed);
    for (auto& [device, stream] : fleet.devices) {
      feed.ids.push_back(device);
      feed.streams.push_back(std::move(stream));
    }
  }
  ReplayCore(feed, &feed.reference);
  return feed;
}

// ---------------------------------------------------------------------------
// Queries: planned from the seed before timing.
// ---------------------------------------------------------------------------

struct QuerySpec {
  Vec2 center;
  double radius = 0.0;
  double t_min = 0.0;
  double t_max = 0.0;
};

/// A local (r 200-1000 m, +-10 min) or area (r 2-5 km, +-1 h) query
/// around a random fix among the first `limit` of the feed.
QuerySpec PlanQuery(Rng& rng, const std::vector<FleetRecord>& records,
                    std::size_t limit, bool local) {
  const auto& fix = records[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int64_t>(limit) - 1))];
  const double radius =
      local ? rng.Uniform(200.0, 1000.0) : rng.Uniform(2000.0, 5000.0);
  const double half_window = local ? 600.0 : 3600.0;
  return QuerySpec{fix.point.pos, radius, fix.point.t - half_window,
                   fix.point.t + half_window};
}

struct QueryPlan {
  std::vector<std::vector<QuerySpec>> per_barrier;  ///< Indexed by barrier.
  std::vector<std::vector<QuerySpec>> readback;  ///< Slices, one per rep.
};

std::size_t BarrierCount(const WorkloadSpec& w, std::size_t fixes) {
  return fixes / w.barrier_every + 1;  // periodic ones + the final one
}

/// Every fourth query of a barrier's batch or a read-back slice is an area
/// query, so each batch has the same local/area mix.
QueryPlan PlanQueries(const WorkloadSpec& w, const Feed& feed,
                      uint64_t seed) {
  QueryPlan plan;
  Rng rng(SplitMix64(seed ^ 0x9e3779b9ULL));
  const std::size_t n = feed.records.size();
  const std::size_t barriers = BarrierCount(w, n);
  plan.per_barrier.resize(barriers);
  for (std::size_t b = 0; b < barriers; ++b) {
    const std::size_t fed = std::min(n, (b + 1) * w.barrier_every);
    for (std::size_t q = 0; q < w.queries_per_barrier; ++q) {
      plan.per_barrier[b].push_back(
          PlanQuery(rng, feed.records, fed, q % 4 != 3));
    }
  }
  plan.readback.resize(kReadbackSlices);
  for (std::vector<QuerySpec>& slice : plan.readback) {
    for (std::size_t q = 0; q < kReadbackQueries; ++q) {
      slice.push_back(PlanQuery(rng, feed.records, n, q % 4 != 3));
    }
  }
  return plan;
}

uint64_t HashKey(const KeyPoint& k) {
  uint64_t x = 0, y = 0, t = 0;
  std::memcpy(&x, &k.point.pos.x, sizeof x);
  std::memcpy(&y, &k.point.pos.y, sizeof y);
  std::memcpy(&t, &k.point.t, sizeof t);
  return SplitMix64(k.index ^ SplitMix64(x ^ SplitMix64(y ^ SplitMix64(t))));
}

/// One executed query, kept for the brute-force check after timing.
struct QueryLog {
  QuerySpec spec;
  uint64_t watermark = 0;  ///< BlockStore::last_applied_seq() it ran at.
  uint64_t count = 0;
  uint64_t hash = 0;  ///< Order-independent: sum of HashKey.
};

// ---------------------------------------------------------------------------
// Sink: one preallocated slot per device, no lock (per-device calls are
// ordered by the engine; distinct devices touch distinct cache lines).
// ---------------------------------------------------------------------------

class KeySink final : public FleetSink {
 public:
  explicit KeySink(const Feed& feed) : slots_(feed.ids.size()) {
    for (std::size_t d = 0; d < feed.ids.size(); ++d) {
      slot_of_.emplace(feed.ids[d], d);
      slots_[d].keys.reserve(feed.reference[d].size());
    }
  }

  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    const std::size_t slot = SlotOf(device);
    if (slot == slots_.size()) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[slot].keys.push_back(key);
  }

  void Reset() {
    for (Slot& s : slots_) s.keys.clear();
  }
  const std::vector<KeyPoint>& keys(std::size_t slot) const {
    return slots_[slot].keys;
  }
  std::size_t SlotOf(DeviceId device) const {
    const auto it = slot_of_.find(device);
    return it == slot_of_.end() ? slots_.size() : it->second;
  }
  uint64_t unknown() const { return unknown_.load(); }

 private:
  struct alignas(64) Slot {
    std::vector<KeyPoint> keys;
  };
  std::unordered_map<DeviceId, std::size_t> slot_of_;  ///< Read-only.
  std::vector<Slot> slots_;
  std::atomic<uint64_t> unknown_{0};
};

// ---------------------------------------------------------------------------
// One rep.
// ---------------------------------------------------------------------------

/// Latency samples of one or more reps.
struct Samples {
  std::vector<double> ingest_us;
  std::vector<double> barrier_ms;
  std::vector<double> query_us;
};

/// Raw per-layer counts of one traced rep; summed over traced reps.
struct LayerTotals {
  double reps = 0, rep_ns = 0, root_self_ns = 0;
  double ingest_ns = 0, flush_ns = 0, wal_ns = 0, compaction_ns = 0;
  double query_in_rep_ns = 0;  ///< Opens + queries inside the rep wall.
  double open_ns = 0, opens = 0;
  double core_replay_ns = 0;
  double recover_ns = 0, recovered_points = 0;
  double checkpoints_from_wal = 0, checkpoints_recovered = 0;
  double fixes = 0, barriers = 0;
  double lanes = 0, scalar = 0, rebuilds = 0;
  double exact = 0, bound_decided = 0, bound_assessed = 0;
  double ingested = 0, coalesced_runs = 0;
  double worker_wakes = 0, backpressure_waits = 0;
  double peak_queue_depth = 0, peak_state_bytes = 0;  ///< Max, not sum.
  double wal_points = 0, wal_bytes = 0, wal_syncs = 0;
  double compacted_points = 0, block_bytes = 0, blocks = 0,
         compaction_runs = 0;
  double queries = 0, blocks_total = 0, blocks_decoded = 0,
         points_scanned = 0, points_returned = 0, grid_candidates = 0;
  Samples samples;  ///< Latencies of the traced reps, for the tails.
};

/// Timings are at the nominal calibration speed. A slowdown is the measured
/// calibration time over the nominal one (1 = nominal host): `slowdown` of
/// the cores the rep ran on (wall, barriers), `producer_slowdown` of the
/// producer's core (setup, ingest calls, recovery, queries). They differ
/// only on a sharded engine.
struct RepResult {
  double setup_s = 0, wall_s = 0, recover_s = 0;
  double slowdown = 1.0, producer_slowdown = 1.0;
  Samples samples;
  uint64_t fixes = 0, keypoints = 0, stored_bytes = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

/// Sums regular-file sizes under `dir` (0 when missing).
uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Creates `dir` and flushes its filesystem, so the metadata the previous
/// rep left behind (deleted segments and blocks) is committed before the
/// next rep's directory fsyncs start timing.
void QuiesceFilesystem(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::syncfs(fd);
    (void)::close(fd);
  }
}

// Host-speed calibration. On a shared host the speed of a core moves by
// tens of percent, in steps that last from milliseconds to minutes, and
// every timing of a run moves with it. Two fixed passes measure the host:
// a compute loop, timed before and after the rep and, on inline workloads,
// every 3 ms through it (between calls, excluded from the rep wall), and a
// memory pass, timed before and after the rep. The rep's timings are
// reported at nominal host speed: times are multiplied, rates divided, by
// the slowdown, the geometric mean of each pass's trimmed-mean time over
// its nominal time. With the loop alone an inline rep's time spread ~2%
// where the raw time spread ~15%; on a heavily loaded host (raw run-to-run
// spreads 14-28%) adding the memory pass cut the run-to-run spread of the
// rep wall, recovery and query latency from 5-14% to 2-8%, because other
// tenants slow the shared cache the pipeline streams through more than
// they slow the loop. A sharded rep runs on every core, so its edge passes
// run on every core at once and only those measure its wall and barriers:
// the producer's core alone tracked them poorly (run-to-run throughput
// spread 12-14% against 6-8% with every core). What runs on the producer
// alone (setup, ingest calls, recovery, queries) is measured by the
// producer's passes on every workload. The passes are bench code, so no
// change to the library moves them.
constexpr int kCalibrationFpRounds = 100;
constexpr int kCalibrationIntRounds = 3000;
constexpr double kNominalCalibrationNs = 125000.0;
constexpr int64_t kCalibrationIntervalNs = 3'000'000;
constexpr int kCalibrationEdgePasses = 5;  ///< Before and after each rep.
// The memory pass: independent pseudo-random 8-byte reads over a 16 MiB
// table, past a core's private caches and inside the last-level cache the
// cores (and other tenants) share, where the feed, the block files and the
// per-device state the pipeline streams and looks up live.
constexpr std::size_t kMemoryTableWords = std::size_t{1} << 21;
constexpr int kMemoryReads = 20000;
constexpr double kNominalMemoryPassNs = 150000.0;
std::atomic<double> g_calibration_sink{0.0};

/// One pass of fixed work, the two instruction mixes the pipeline spends
/// its time in: scalar floating point over an L1-resident array (rotations,
/// square roots, a divide, a data-dependent branch: the kernel) and
/// branchy integer code (varint-encoding and hashing a pseudo-random
/// sequence: routing, WAL and block coding). Returns nanoseconds.
double CalibrationPassNs() {
  constexpr int kPoints = 256;
  double xs[kPoints], ys[kPoints];
  for (int i = 0; i < kPoints; ++i) {
    xs[i] = 0.37 * i;
    ys[i] = 100.0 - 0.21 * i;
  }
  const int64_t t0 = NowNs();
  double acc = 0.0;
  for (int k = 0; k < kCalibrationFpRounds; ++k) {
    for (int i = 0; i < kPoints; ++i) {
      const double x = 0.8 * xs[i] - 0.6 * ys[i];
      const double y = 0.6 * xs[i] + 0.8 * ys[i];
      const double d = std::sqrt(x * x + y * y + 1.0);
      acc += x > y ? d : 1.0 / d;
      xs[i] = 0.999 * y + 1e-3;
      ys[i] = 0.999 * x - 1e-3;
    }
  }
  uint64_t x = 0x9e3779b97f4a7c15ULL, h = 1469598103934665603ULL;
  for (int k = 0; k < kCalibrationIntRounds; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    for (uint64_t v = x >> (x & 63);; v >>= 7) {
      h = (h ^ ((v & 0x7f) | (v > 0x7f ? 0x80 : 0))) * 1099511628211ULL;
      if (v <= 0x7f) break;
    }
  }
  g_calibration_sink.store(acc + static_cast<double>(h & 0xff),
                           std::memory_order_relaxed);
  return static_cast<double>(NowNs() - t0);
}

const std::vector<uint64_t>& MemoryTable() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kMemoryTableWords);
    uint64_t x = 0;
    for (uint64_t& word : t) word = x = SplitMix64(x);
    return t;
  }();
  return table;
}

/// One memory pass. Returns nanoseconds.
double MemoryPassNs() {
  const std::vector<uint64_t>& table = MemoryTable();
  const int64_t t0 = NowNs();
  uint64_t x = 0x2545f4914f6cdd1dULL, acc = 0;
  for (int i = 0; i < kMemoryReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (kMemoryTableWords - 1)];
  }
  g_calibration_sink.store(static_cast<double>(acc & 0xff),
                           std::memory_order_relaxed);
  return static_cast<double>(NowNs() - t0);
}

/// Mean of the middle 80% of `v` (which must not be empty).
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Pass times, in nanoseconds.
struct Passes {
  std::vector<double> loop, memory;
};

/// Host slowdown: the geometric mean of the two passes' times over nominal.
double Slowdown(const Passes& p) {
  return std::sqrt(TrimmedMean(p.loop) / kNominalCalibrationNs *
                   TrimmedMean(p.memory) / kNominalMemoryPassNs);
}

class RepRunner {
 public:
  RepRunner(const WorkloadSpec& w, const Feed& feed, const QueryPlan& plan,
            std::size_t shards, unsigned nproc)
      : w_(w),
        feed_(feed),
        plan_(plan),
        shards_(shards),
        edge_helpers_(shards == 0 ? 0 : nproc - 1),
        sink_(feed) {}

  /// Runs one rep in `dir` (created fresh, removed afterwards). `tracer`
  /// and `layer` are set on traced reps only.
  RepResult Run(const std::string& dir, Tracer* tracer, LayerTotals* layer) {
    result_ = RepResult{};
    Samples& samples = result_.samples;
    tracer_ = tracer;
    query_log_.clear();
    query_stats_ = RangeQueryStats{};
    queries_run_ = 0;
    open_ns_ = 0;
    opens_ = 0;
    producer_ = Passes{};
    edge_ = Passes{};
    calibration_ns_ = 0;
    sink_.Reset();
    std::filesystem::remove_all(dir);
    QuiesceFilesystem(dir);
    const std::string wal_dir = dir + "/wal";
    const std::string block_dir = dir + "/blocks";
    const std::size_t calls =
        (feed_.records.size() + kIngestBatch - 1) / kIngestBatch;
    samples.ingest_us.reserve(calls);
    samples.barrier_ms.reserve(BarrierCount(w_, feed_.records.size()));
    CalibrateEdge();

    // --- setup -------------------------------------------------------------
    const int64_t s0 = NowNs();
    KeyPointWalOptions wal_options;
    wal_options.dir = wal_dir;
    wal_options.durability = WalDurability::kGroupCommit;
    wal_options.segment_bytes = kSegmentBytes;
    // Sync by bytes only (and at every segment rotation), so where the
    // fdatasyncs fall follows the data, not how fast this rep happens to
    // run; a clock trigger would move barrier latencies with host noise.
    wal_options.group_commit_interval_ms = -1.0;
    KeyPointWal wal(wal_options);
    const Status opened = wal.Open();
    CompactionOptions compaction_options;
    compaction_options.wal_dir = wal_dir;
    compaction_options.block_dir = block_dir;
    Compactor compactor(compaction_options);
    FleetEngineOptions engine_options;
    engine_options.algorithm = KernelConfig();
    engine_options.num_shards = shards_;
    engine_options.wal = &wal;
    engine_options.wal_checkpoint_points = kCheckpointPoints;
    auto engine = std::make_unique<FleetEngine>(engine_options, sink_);
    const int64_t s1 = NowNs();
    result_.setup_s = static_cast<double>(s1 - s0) * 1e-9;
    if (!opened.ok()) {
      Fail("wal open: " + opened.ToString());
      return std::move(result_);
    }

    const ops::Snapshot ops_before = ops::Read();

    // --- timed rep ---------------------------------------------------------
    const int64_t r0 = NowNs();
    const int64_t calibration_at_r0 = calibration_ns_;
    root_ = tracer_ != nullptr ? tracer_->Add("rep", r0, r0, kNoParent, 0)
                               : kNoParent;
    barrier_id_ = 0;
    std::size_t next_barrier = w_.barrier_every;
    const std::size_t n = feed_.records.size();
    for (std::size_t pos = 0; pos < n; pos += kIngestBatch) {
      const std::size_t len = std::min(kIngestBatch, n - pos);
      const int64_t a = NowNs();
      engine->IngestBatch(
          std::span<const FleetRecord>(feed_.records.data() + pos, len));
      const int64_t b = NowNs();
      samples.ingest_us.push_back(static_cast<double>(b - a) * 1e-3);
      Trace("service.ingest", a, b, root_);
      if (pos + len >= next_barrier) {
        Barrier(*engine, wal, compactor, block_dir);
        next_barrier += w_.barrier_every;
      }
      // A sharded rep runs on every core; the edges measure it.
      if (shards_ == 0) MaybeCalibrate(root_);
    }
    const int64_t f0 = NowNs();
    engine->FinishAll();
    Trace("service.finish", f0, NowNs(), root_);
    Barrier(*engine, wal, compactor, block_dir);
    const int64_t r1 = NowNs();
    if (tracer_ != nullptr) tracer_->Close(root_, r1);
    result_.wall_s =
        static_cast<double>(r1 - r0 - (calibration_ns_ - calibration_at_r0)) *
        1e-9;
    result_.fixes = n;

    // --- counters, shutdown, restart (untimed for the pipeline rate) ------
    const ops::Snapshot ops_delta = ops::Read().Delta(ops_before);
    const FleetStats stats = engine->Stats();
    const KeyPointWalStats wal_stats = wal.stats();
    const CompactionStats compaction_stats = compactor.stats();
    const bool healthy =
        stats.storage_healthy && !wal.dead() && !compactor.degraded();
    engine.reset();
    const int64_t c0 = NowNs();
    const Status closed = wal.Close();
    Trace("storage.wal.close", c0, NowNs(), kNoParent);
    if (!closed.ok()) Fail("wal close: " + closed.ToString());
    result_.stored_bytes = DirBytes(wal_dir) + DirBytes(block_dir);

    std::vector<double> recover_s;
    Result<StoreRecovery> recovered = Status::Internal("not recovered");
    for (int i = 0; i < kRecoveries; ++i) {
      const int64_t v0 = NowNs();
      recovered = RecoverStore(wal_dir, block_dir);
      const int64_t v1 = NowNs();
      Trace("storage.recovery", v0, v1, kNoParent);
      recover_s.push_back(static_cast<double>(v1 - v0) * 1e-9);
    }
    result_.recover_s = Median(std::move(recover_s));

    const int64_t q0 = NowNs();
    const int32_t readback =
        tracer_ != nullptr ? tracer_->Add("readback", q0, q0, kNoParent, 0)
                           : kNoParent;
    RunQueries(block_dir, plan_.readback[reps_run_++ % kReadbackSlices],
               readback, barrier_id_);
    if (tracer_ != nullptr) tracer_->Close(readback, NowNs());

    // --- host-speed normalization of everything this rep timed -------------
    CalibrateEdge();
    const double producer = Slowdown(producer_);
    const double slowdown = shards_ == 0 ? producer : Slowdown(edge_);
    result_.slowdown = slowdown;
    result_.producer_slowdown = producer;
    result_.wall_s /= slowdown;
    for (double& x : samples.barrier_ms) x /= slowdown;
    result_.setup_s /= producer;
    result_.recover_s /= producer;
    for (std::vector<double>* v : {&samples.ingest_us, &samples.query_us}) {
      for (double& x : *v) x /= producer;
    }

    // --- verification (after timing) ---------------------------------------
    uint64_t keypoints = 0;
    for (std::size_t d = 0; d < feed_.ids.size(); ++d) {
      keypoints += sink_.keys(d).size();
    }
    result_.keypoints = keypoints;
    VerifyOutput();
    if (!recovered.ok()) {
      Fail("recover: " + recovered.status().ToString());
    } else {
      VerifyRecovery(recovered.value());
      VerifyQueries(recovered.value());
    }
    const uint64_t fed = n;
    if (stats.records_ingested + stats.records_shed + stats.records_dropped !=
            fed ||
        stats.records_ingested != fed) {
      Fail("accounting: ingested + shed + dropped != fed");
    }
    if (!healthy) Fail("storage unhealthy");
    if (sink_.unknown() != 0) Fail("key points for unknown devices");
    result_.attempted += fed + stats.wal_checkpoints + queries_run_;
    result_.failed += stats.records_shed + stats.records_dropped +
                      stats.wal_append_failures;

    if (layer != nullptr) {
      Accumulate(layer, ops_delta, stats, wal_stats, compaction_stats,
                 recovered);
    }
    std::filesystem::remove_all(dir);
    return std::move(result_);
  }

 private:
  void Fail(std::string what) { result_.failures.push_back(std::move(what)); }

  void Trace(const char* name, int64_t start, int64_t end, int32_t parent) {
    if (tracer_ != nullptr) {
      tracer_->Add(name, start, end, parent, barrier_id_);
    }
  }

  /// One compute-loop pass, and a memory pass when `memory` is set; their
  /// time is kept out of every measurement.
  void Calibrate(int32_t parent, bool memory = false) {
    const int64_t a = NowNs();
    producer_.loop.push_back(CalibrationPassNs());
    if (memory) producer_.memory.push_back(MemoryPassNs());
    const int64_t b = NowNs();
    last_pass_end_ = b;
    calibration_ns_ += b - a;
    Trace("calibration", a, b, parent);
  }

  /// A pass when kCalibrationIntervalNs have gone by since the last one.
  void MaybeCalibrate(int32_t parent) {
    if (NowNs() - last_pass_end_ >= kCalibrationIntervalNs) Calibrate(parent);
  }

  /// Passes before or after the rep, while no shard worker runs: on the
  /// producer and, for a sharded engine, on every other core at once.
  void CalibrateEdge() {
    std::vector<Passes> helper_passes(edge_helpers_);
    {
      std::vector<std::jthread> helpers;
      for (Passes& passes : helper_passes) {
        helpers.emplace_back([&passes] {
          for (int i = 0; i < kCalibrationEdgePasses; ++i) {
            passes.loop.push_back(CalibrationPassNs());
            passes.memory.push_back(MemoryPassNs());
          }
        });
      }
      for (int i = 0; i < kCalibrationEdgePasses; ++i) {
        Calibrate(kNoParent, /*memory=*/true);
        edge_.loop.push_back(producer_.loop.back());
        edge_.memory.push_back(producer_.memory.back());
      }
    }  // joins the helpers
    for (const Passes& p : helper_passes) {
      edge_.loop.insert(edge_.loop.end(), p.loop.begin(), p.loop.end());
      edge_.memory.insert(edge_.memory.end(), p.memory.begin(),
                          p.memory.end());
    }
  }

  void Barrier(FleetEngine& engine, KeyPointWal& wal, Compactor& compactor,
               const std::string& block_dir) {
    const int64_t b0 = NowNs();
    engine.Flush();
    const int64_t b1 = NowNs();
    engine.CheckpointWal();
    const int64_t b2 = NowNs();
    const Status compacted = compactor.CompactOnce(wal.current_segment_index());
    const int64_t b3 = NowNs();
    result_.samples.barrier_ms.push_back(static_cast<double>(b3 - b0) * 1e-6);
    result_.attempted += 1;
    if (!compacted.ok()) {
      result_.failed += 1;
      Fail("compaction: " + compacted.ToString());
    }
    if (tracer_ != nullptr) {
      const int32_t span =
          tracer_->Add("barrier", b0, b3, root_, barrier_id_);
      Trace("service.flush", b0, b1, span);
      Trace("storage.wal", b1, b2, span);
      Trace("storage.compaction", b2, b3, span);
    }
    if (barrier_id_ < plan_.per_barrier.size() &&
        !plan_.per_barrier[barrier_id_].empty()) {
      RunQueries(block_dir, plan_.per_barrier[barrier_id_], root_,
                 barrier_id_);
    }
    ++barrier_id_;
  }

  /// Opens the published store and runs `queries` against it. A store with
  /// no MANIFEST yet (nothing compacted so far) has nothing to query.
  void RunQueries(const std::string& block_dir,
                  const std::vector<QuerySpec>& queries, int32_t parent,
                  uint32_t request) {
    const int64_t o0 = NowNs();
    Result<BlockStore> store = BlockStore::Open(block_dir);
    const int64_t o1 = NowNs();
    if (tracer_ != nullptr) {
      tracer_->Add("storage.query.open", o0, o1, parent, request);
    }
    if (!store.ok()) {
      if (store.status().code() == StatusCode::kNotFound) return;
      result_.attempted += 1;
      result_.failed += 1;
      Fail("block store open: " + store.status().ToString());
      return;
    }
    open_ns_ += static_cast<double>(o1 - o0);
    opens_ += 1;
    const BlockStore& s = store.value();
    for (const QuerySpec& q : queries) {
      results_.clear();
      RangeQueryStats qs;
      const int64_t a = NowNs();
      const Status st =
          s.Query(q.center, q.radius, q.t_min, q.t_max, &results_, &qs);
      const int64_t b = NowNs();
      result_.samples.query_us.push_back(static_cast<double>(b - a) * 1e-3);
      if (tracer_ != nullptr) {
        tracer_->Add("storage.query", a, b, parent, request);
      }
      MaybeCalibrate(parent);
      ++queries_run_;
      if (!st.ok()) {
        result_.failed += 1;
        Fail("query: " + st.ToString());
        continue;
      }
      QueryLog log{q, s.last_applied_seq(), results_.size(), 0};
      for (const KeyPoint& k : results_) log.hash += HashKey(k);
      query_log_.push_back(log);
      query_stats_.blocks_total += qs.blocks_total;
      query_stats_.grid_candidates += qs.grid_candidates;
      query_stats_.blocks_decoded += qs.blocks_decoded;
      query_stats_.points_scanned += qs.points_scanned;
      query_stats_.points_returned += qs.points_returned;
    }
  }

  void VerifyOutput() {
    for (std::size_t d = 0; d < feed_.ids.size(); ++d) {
      if (sink_.keys(d) != feed_.reference[d]) {
        Fail("device " + std::to_string(feed_.ids[d]) +
             ": sink output differs from CompressAll on its own stream");
        return;
      }
    }
  }

  void VerifyRecovery(const StoreRecovery& recovery) {
    if (!recovery.report.clean() || !recovery.wal.report.clean()) {
      Fail("recovery reported loss or corruption");
    }
    const wal::WalQuantization& quant = recovery.wal.quant;
    std::vector<std::size_t> cursor(feed_.ids.size(), 0);
    for (const wal::WalCheckpoint& cp : recovery.wal.checkpoints) {
      const std::size_t slot = sink_.SlotOf(cp.device);
      if (slot >= feed_.ids.size()) {
        Fail("recovered a checkpoint for an unknown device");
        return;
      }
      const std::vector<KeyPoint>& keys = sink_.keys(slot);
      for (const wal::WalPoint& p : cp.points) {
        if (cursor[slot] >= keys.size() ||
            !(wal::Quantize(keys[cursor[slot]], quant) == p)) {
          Fail("device " + std::to_string(cp.device) +
               ": recovered key points differ from the sink's");
          return;
        }
        ++cursor[slot];
      }
    }
    for (std::size_t d = 0; d < feed_.ids.size(); ++d) {
      if (cursor[d] != sink_.keys(d).size()) {
        Fail("device " + std::to_string(feed_.ids[d]) +
             ": recovery is missing key points");
        return;
      }
    }
  }

  /// Brute-force reference: every recovered point with seq <= the
  /// watermark a query ran at, filtered exactly as BlockStore::Query does.
  void VerifyQueries(const StoreRecovery& recovery) {
    std::vector<KeyPoint> points;
    std::vector<uint64_t> seqs;
    for (const wal::WalCheckpoint& cp : recovery.wal.checkpoints) {
      for (const wal::WalPoint& p : cp.points) {
        points.push_back(wal::Dequantize(p, recovery.wal.quant));
        seqs.push_back(cp.seq);
      }
    }
    if (!std::is_sorted(seqs.begin(), seqs.end())) {
      Fail("recovered checkpoints are not in seq order");
      return;
    }
    for (const QueryLog& log : query_log_) {
      const auto end = static_cast<std::size_t>(
          std::upper_bound(seqs.begin(), seqs.end(), log.watermark) -
          seqs.begin());
      const double radius_sq = log.spec.radius * log.spec.radius;
      uint64_t count = 0, hash = 0;
      for (std::size_t i = 0; i < end; ++i) {
        const KeyPoint& k = points[i];
        if (k.point.t < log.spec.t_min || k.point.t > log.spec.t_max) continue;
        if (DistanceSq(k.point.pos, log.spec.center) > radius_sq) continue;
        ++count;
        hash += HashKey(k);
      }
      if (count != log.count || hash != log.hash) {
        Fail("a range query differs from the brute-force scan");
        return;
      }
    }
  }

  void Accumulate(LayerTotals* t, const ops::Snapshot& ops_delta,
                  const FleetStats& stats, const KeyPointWalStats& wal_stats,
                  const CompactionStats& compaction_stats,
                  const Result<StoreRecovery>& recovered) {
    const std::vector<Span>& spans = tracer_->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    const double slowdown = result_.slowdown;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string_view name = s.name;
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / slowdown;
      if (name == "rep") {
        t->reps += 1;
        t->rep_ns += result_.wall_s * 1e9;  // normalized, passes excluded
        t->root_self_ns += static_cast<double>(self[i]) / slowdown;
      } else if (name == "service.ingest") {
        t->ingest_ns += dur;
      } else if (name == "service.flush") {
        t->flush_ns += dur;
      } else if (name == "storage.wal") {
        t->wal_ns += dur;
      } else if (name == "storage.compaction") {
        t->compaction_ns += dur;
      }
      if ((name == "storage.query" || name == "storage.query.open") &&
          s.parent == root_) {
        t->query_in_rep_ns += dur;
      }
    }
    t->open_ns += open_ns_ / result_.producer_slowdown;
    const Samples& s = result_.samples;
    t->samples.ingest_us.insert(t->samples.ingest_us.end(),
                                s.ingest_us.begin(), s.ingest_us.end());
    t->samples.barrier_ms.insert(t->samples.barrier_ms.end(),
                                 s.barrier_ms.begin(), s.barrier_ms.end());
    t->samples.query_us.insert(t->samples.query_us.end(), s.query_us.begin(),
                               s.query_us.end());
    t->recover_ns += result_.recover_s * 1e9;  // normalized median
    t->opens += opens_;
    t->fixes += static_cast<double>(result_.fixes);
    t->barriers += static_cast<double>(barrier_id_);
    t->lanes += static_cast<double>(ops_delta.batch_lanes4_points +
                                    ops_delta.batch_lanes2_points);
    t->scalar += static_cast<double>(ops_delta.batch_scalar_points);
    t->rebuilds += static_cast<double>(ops_delta.significant_rebuilds);
    const DecisionStats& dec = stats.decisions;
    t->exact += static_cast<double>(dec.exact_computations);
    t->bound_decided +=
        static_cast<double>(dec.upper_bound_includes + dec.lower_bound_splits);
    t->bound_assessed +=
        static_cast<double>(dec.upper_bound_includes + dec.lower_bound_splits +
                            dec.exact_computations + dec.uncertain_splits);
    t->ingested += static_cast<double>(stats.records_ingested);
    t->coalesced_runs += static_cast<double>(stats.coalesced_runs);
    t->worker_wakes += static_cast<double>(stats.worker_wakes);
    t->backpressure_waits += static_cast<double>(stats.backpressure_waits);
    t->peak_queue_depth = std::max(
        t->peak_queue_depth, static_cast<double>(stats.peak_queue_depth));
    t->peak_state_bytes = std::max(
        t->peak_state_bytes, static_cast<double>(stats.peak_state_bytes));
    t->wal_points += static_cast<double>(wal_stats.points_appended);
    t->wal_bytes += static_cast<double>(wal_stats.bytes_appended);
    t->wal_syncs += static_cast<double>(wal_stats.syncs);
    t->compacted_points +=
        static_cast<double>(compaction_stats.points_compacted);
    t->block_bytes += static_cast<double>(compaction_stats.block_bytes_written);
    t->blocks += static_cast<double>(compaction_stats.blocks_written);
    t->compaction_runs +=
        static_cast<double>(compaction_stats.block_files_written);
    t->queries += static_cast<double>(queries_run_);
    t->blocks_total += static_cast<double>(query_stats_.blocks_total);
    t->blocks_decoded += static_cast<double>(query_stats_.blocks_decoded);
    t->points_scanned += static_cast<double>(query_stats_.points_scanned);
    t->points_returned += static_cast<double>(query_stats_.points_returned);
    t->grid_candidates += static_cast<double>(query_stats_.grid_candidates);
    if (recovered.ok()) {
      const StoreRecovery& r = recovered.value();
      for (const wal::WalCheckpoint& cp : r.wal.checkpoints) {
        t->recovered_points += static_cast<double>(cp.points.size());
      }
      t->checkpoints_from_wal +=
          static_cast<double>(r.report.checkpoints_from_wal);
      t->checkpoints_recovered +=
          static_cast<double>(r.wal.checkpoints.size());
    }
  }

  const WorkloadSpec& w_;
  const Feed& feed_;
  const QueryPlan& plan_;
  const std::size_t shards_;
  const std::size_t edge_helpers_;  ///< Threads beside the producer.
  KeySink sink_;

  RepResult result_;
  Tracer* tracer_ = nullptr;
  int32_t root_ = kNoParent;
  uint32_t barrier_id_ = 0;
  std::vector<KeyPoint> results_;  ///< Query output scratch.
  std::vector<QueryLog> query_log_;
  RangeQueryStats query_stats_;
  uint64_t queries_run_ = 0;
  double open_ns_ = 0, opens_ = 0;
  std::size_t reps_run_ = 0;
  Passes producer_;  ///< The producer's passes in this rep.
  Passes edge_;      ///< Every core's passes at this rep's edges.
  int64_t calibration_ns_ = 0;  ///< Wall time spent in passes.
  int64_t last_pass_end_ = 0;
};

// ---------------------------------------------------------------------------
// Environment and reporting.
// ---------------------------------------------------------------------------

/// A /proc/self/status field in kB (0 when unreadable).
double ProcStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atof(line.c_str() + len + 1);
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS (Linux clear_refs "5").
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// What the end-to-end metrics are computed from.
struct CalmReps {
  std::vector<double> rates, setup_s, recover_ms;
  Samples samples;  ///< Pooled.
  double max_slowdown = 0.0;
};

/// The half of the reps (rounded up) that ran with the least host slowdown.
/// Normalization corrects moderate interference to ~2% but under-corrects
/// heavy bursts from other tenants, so the reps the calibration passes saw
/// disturbed most are left out; the selection reads only those bench-side
/// passes, never a library timing, so a slower library is not filtered
/// away.
CalmReps PoolCalmHalf(const std::vector<RepResult>& reps) {
  std::vector<const RepResult*> order;
  for (const RepResult& r : reps) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const RepResult* a, const RepResult* b) {
                     return a->slowdown < b->slowdown;
                   });
  order.resize((order.size() + 1) / 2);
  CalmReps calm;
  for (const RepResult* r : order) {
    calm.max_slowdown = std::max(calm.max_slowdown, r->slowdown);
    calm.rates.push_back(Div(static_cast<double>(r->fixes), r->wall_s));
    calm.setup_s.push_back(r->setup_s);
    calm.recover_ms.push_back(r->recover_s * 1e3);
    const Samples& s = r->samples;
    Samples& pooled = calm.samples;
    pooled.ingest_us.insert(pooled.ingest_us.end(), s.ingest_us.begin(),
                            s.ingest_us.end());
    pooled.barrier_ms.insert(pooled.barrier_ms.end(), s.barrier_ms.begin(),
                             s.barrier_ms.end());
    pooled.query_us.insert(pooled.query_us.end(), s.query_us.begin(),
                           s.query_us.end());
  }
  return calm;
}

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::vector<Metric> LayerMetrics(const LayerTotals& t, bool inline_mode,
                                 double overhead_frac) {
  const double core_ns_per_fix = Div(t.core_replay_ns, t.fixes);
  const double ingest_ns_per_fix = Div(t.ingest_ns, t.fixes);
  // Inline: the ingest span minus the kernel's own replay time (an
  // estimate). Sharded: the kernel runs on the workers, so the producer's
  // ingest span is the service layer's own time.
  const double self_ns_per_fix =
      inline_mode ? ingest_ns_per_fix - core_ns_per_fix : ingest_ns_per_fix;
  const auto tail = [](std::vector<double> v, unsigned percent) {
    return Percentile(v, percent);
  };
  return {
      {"core.ns_per_fix", "ns/fix", core_ns_per_fix},
      {"core.share", "frac", Div(t.core_replay_ns, t.rep_ns)},
      {"core.vector_lane_frac", "frac", Div(t.lanes, t.lanes + t.scalar)},
      {"core.rebuilds_per_kfix", "1/kfix", 1e3 * Div(t.rebuilds, t.fixes)},
      {"core.exact_per_kfix", "1/kfix", 1e3 * Div(t.exact, t.fixes)},
      {"core.bound_decisive_frac", "frac",
       Div(t.bound_decided, t.bound_assessed)},
      {"service.ingest_ns_per_fix", "ns/fix", ingest_ns_per_fix},
      {"service.self_ns_per_fix", "ns/fix", self_ns_per_fix},
      {"service.ingest_call_p99_us", "us", tail(t.samples.ingest_us, 99)},
      {"service.barrier_p95_ms", "ms", tail(t.samples.barrier_ms, 95)},
      {"service.drain_ms", "ms", 1e-6 * Div(t.flush_ns, t.reps)},
      {"service.mean_dispatch_len", "fixes/run",
       Div(t.ingested, t.coalesced_runs)},
      {"service.worker_wakes", "count", t.worker_wakes},
      {"service.backpressure_waits", "count", t.backpressure_waits},
      {"service.peak_queue_depth", "blocks", t.peak_queue_depth},
      {"service.peak_state_bytes", "B", t.peak_state_bytes},
      {"storage.wal.ns_per_keypoint", "ns/kp", Div(t.wal_ns, t.wal_points)},
      {"storage.wal.bytes_per_keypoint", "B/kp",
       Div(t.wal_bytes, t.wal_points)},
      {"storage.wal.syncs_per_barrier", "1/barrier",
       Div(t.wal_syncs, t.barriers)},
      {"storage.wal.share", "frac", Div(t.wal_ns, t.rep_ns)},
      {"storage.compaction.ns_per_keypoint", "ns/kp",
       Div(t.compaction_ns, t.compacted_points)},
      {"storage.compaction.bytes_per_keypoint", "B/kp",
       Div(t.block_bytes, t.compacted_points)},
      {"storage.compaction.blocks_per_run", "blocks/run",
       Div(t.blocks, t.compaction_runs)},
      {"storage.compaction.share", "frac", Div(t.compaction_ns, t.rep_ns)},
      {"storage.query.open_us", "us", 1e-3 * Div(t.open_ns, t.opens)},
      {"storage.query.p99_us", "us", tail(t.samples.query_us, 99)},
      {"storage.query.decoded_block_frac", "frac",
       Div(t.blocks_decoded, t.blocks_total)},
      {"storage.query.returned_per_scanned", "frac",
       Div(t.points_returned, t.points_scanned)},
      {"storage.query.candidates_per_query", "blocks/query",
       Div(t.grid_candidates, t.queries)},
      {"storage.query.share", "frac", Div(t.query_in_rep_ns, t.rep_ns)},
      {"storage.recovery.ns_per_keypoint", "ns/kp",
       Div(t.recover_ns, t.recovered_points)},
      {"storage.recovery.wal_checkpoint_frac", "frac",
       Div(t.checkpoints_from_wal, t.checkpoints_recovered)},
      {"trace.residual_frac", "frac", Div(t.root_self_ns, t.rep_ns)},
      {"trace.overhead_frac", "frac", overhead_frac},
  };
}

/// Self time per span name over `spans`, as a table on stdout.
void PrintSelfTimeTable(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  struct Row {
    uint64_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Row> rows;
  double rep_ms = 0;  // the rep span less the calibration passes inside it
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    Row& r = rows[s.name];
    r.count += 1;
    r.total_ms += ms;
    r.self_ms += static_cast<double>(self[i]) * 1e-6;
    const std::string_view name = s.name;
    if (name == "rep") rep_ms += ms;
    if (name == "calibration" && s.parent != kNoParent &&
        std::string_view(spans[static_cast<std::size_t>(s.parent)].name) ==
            "rep") {
      rep_ms -= ms;
    }
  }
  std::printf("\nself time per layer (last traced rep, raw ms; share of the "
              "rep wall without calibration; spans outside the rep are "
              "post-rep phases)\n");
  std::printf("  %-22s %8s %12s %12s %8s\n", "span", "count", "total_ms",
              "self_ms", "share");
  for (const auto& [name, r] : rows) {
    std::printf("  %-22s %8llu %12.3f %12.3f %8.4f\n", name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_ms,
                r.self_ms, Div(r.self_ms, rep_ms));
  }
}

bool WriteTrace(const std::string& path, const std::string& env,
                const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"env\": " << env << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"start_ns\": " << (s.start_ns - base)
        << ", \"end_ns\": " << (s.end_ns - base)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Self-test of the statistics and self-time helpers.
// ---------------------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  check(NearestRank(1000, 99) == 990, "p99 of 1000 is rank 990");
  check(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  check(SamplesBeyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  check(SamplesBeyond(200, 95) == 10, "200 samples leave 10 beyond p95");
  check(SamplesBeyond(199, 95) == 9, "199 samples leave 9 beyond p95");
  check(NearestRank(1, 50) == 1 && NearestRank(0, 50) == 1,
        "rank is at least 1");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(Percentile(v, 50) == 50.0, "p50 of 1..100 is 50");
  check(Percentile(v, 99) == 99.0, "p99 of 1..100 is 99");
  check(Percentile(v, 100) == 100.0, "p100 is the maximum");
  check(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0, 3.0, 2.0}) == 2.5,
        "median of odd and even samples");

  // Nested: grandchild time is inside the child, not subtracted twice.
  const std::vector<Span> nested = {
      {"root", 0, 100, kNoParent, 0},
      {"child", 10, 60, 0, 0},
      {"grandchild", 20, 40, 1, 0},
  };
  const std::vector<int64_t> ns = SelfTimes(nested);
  check(ns[0] == 50 && ns[1] == 30 && ns[2] == 20, "nested self times");
  // Back-to-back children share an endpoint: no gap, no double count; an
  // overlapping child is counted once; a child past the parent is clipped.
  const std::vector<Span> adjacent = {
      {"root", 0, 100, kNoParent, 0}, {"a", 0, 30, 0, 0},
      {"b", 30, 50, 0, 0},            {"c", 45, 55, 0, 0},
      {"d", 90, 120, 0, 0},
  };
  const std::vector<int64_t> as = SelfTimes(adjacent);
  check(as[0] == 100 - 55 - 10, "back-to-back, overlapping, clipped");
  check(as[1] == 30 && as[4] == 30, "leaf self time is its duration");
  if (failures == 0) std::printf("self-test passed\n");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".bench_build/pipeline/work";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--self-test") {
      args->self_test = true;
    } else if (a == "--workload" && (v = next())) {
      args->workload = v;
    } else if (a == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      args->seconds = std::atof(v);
    } else if (a == "--trace" && (v = next())) {
      args->trace = std::string_view(v) == "1";
    } else if (a == "--trace-out" && (v = next())) {
      args->trace_out = v;
    } else if (a == "--work-dir" && (v = next())) {
      args->work_dir = v;
    } else {
      std::fprintf(stderr, "bench_pipeline: bad argument '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_pipeline: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (SelfTest() != 0) return 1;
  if (kAssertsOn) {
    std::fprintf(stderr,
                 "\n*** WARNING: asserts are ON (built without NDEBUG); "
                 "timings are not representative ***\n\n");
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Workers + the producer never exceed the cores: 3 workers on 4 cores.
  const std::size_t shards =
      spec->shards == 0
          ? 0
          : std::max<std::size_t>(
                1, std::min<std::size_t>(spec->shards, nproc - 1));
  char env[512];
  std::snprintf(
      env, sizeof env,
      "{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"simd_tier\": \"%s\", \"asserts\": %s, \"shards\": %zu, "
      "\"wal_policy\": \"group_commit, fdatasync per 256 KiB and per "
      "segment, no timer\", \"segment_bytes\": %zu, "
      "\"ingest_batch\": %zu, \"barrier_every\": %zu, \"epsilon\": %g",
      spec->name, static_cast<unsigned long long>(args.seed), nproc,
      simd::TierName(simd::ActiveTier()), kAssertsOn ? "true" : "false",
      shards, kSegmentBytes, kIngestBatch, spec->barrier_every, kEpsilon);

  const int64_t g0 = NowNs();
  const Feed feed = BuildFeed(*spec, args.seed);
  const QueryPlan plan = PlanQueries(*spec, feed, args.seed);
  std::printf("workload %s: %zu devices, %zu fixes, generated in %.2f s\n",
              spec->name, feed.ids.size(), feed.records.size(),
              static_cast<double>(NowNs() - g0) * 1e-9);

  RepRunner runner(*spec, feed, plan, shards, nproc);
  const std::string dir =
      args.work_dir + "/rep-" + std::to_string(static_cast<long>(getpid()));
  MemoryTable();  // bench memory, so it goes into the RSS baseline
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  const double base_rss_kb = ProcStatusKb("VmRSS");
  ResetPeakRss();

  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0;
  const auto absorb = [&](const RepResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(f);
  };

  absorb(runner.Run(dir, nullptr, nullptr));

  std::vector<RepResult> timed;  // untraced reps
  std::vector<double> traced_rates, slowdowns;
  uint64_t keypoints = 0, stored_bytes = 0, fixes = 0;
  // Peak memory after a fixed number of reps: allocator fragmentation keeps
  // raising the high-water mark a little with every rep, so a reading taken
  // after however many reps fit in the time budget would track host speed.
  constexpr int kRssReps = 3;
  double peak_growth_mb = 0.0;
  Tracer tracer(std::size_t{1} << 14);
  std::vector<Span> last_trace;
  LayerTotals layer;
  const int64_t m0 = NowNs();
  const auto elapsed = [&] { return static_cast<double>(NowNs() - m0) * 1e-9; };
  // Every reported tail percentile needs at least ten samples beyond it.
  const auto enough_samples = [&](const Samples& s) {
    return args.trace ? SamplesBeyond(s.ingest_us.size(), 99) >= 10 &&
                            SamplesBeyond(s.barrier_ms.size(), 95) >= 10 &&
                            SamplesBeyond(s.query_us.size(), 99) >= 10
                      : !s.ingest_us.empty() && !s.barrier_ms.empty() &&
                            !s.query_us.empty();
  };
  const auto done = [&] {
    if (elapsed() < args.seconds) return false;
    if (args.trace) {
      return static_cast<int>(traced_rates.size()) >= kMinTracedReps &&
             static_cast<int>(timed.size()) >= kMinTracedReps &&
             enough_samples(layer.samples);
    }
    return static_cast<int>(timed.size()) >= kMinReps &&
           enough_samples(PoolCalmHalf(timed).samples);
  };
  for (int rep = 0;; ++rep) {
    if (done() || elapsed() >= kMaxMeasureSeconds || !failures.empty()) break;
    const bool traced = args.trace && rep % 2 == 1;
    if (traced) tracer.Clear();
    RepResult r = runner.Run(dir, traced ? &tracer : nullptr,
                             traced ? &layer : nullptr);
    absorb(r);
    if (rep + 1 == kRssReps) {
      peak_growth_mb = (ProcStatusKb("VmHWM") - base_rss_kb) / 1024.0;
    }
    slowdowns.push_back(r.slowdown);
    keypoints = r.keypoints;
    stored_bytes = r.stored_bytes;
    fixes = r.fixes;
    if (traced) {
      traced_rates.push_back(Div(static_cast<double>(r.fixes), r.wall_s));
      // The kernel's share: every device stream replayed alone.
      const int64_t c0 = NowNs();
      const int64_t replay_ns = ReplayCore(feed, nullptr);
      tracer.Add("core.replay", c0, c0 + replay_ns, kNoParent, 0);
      layer.core_replay_ns +=
          static_cast<double>(replay_ns) / r.producer_slowdown;
      last_trace = tracer.spans();
    } else {
      timed.push_back(std::move(r));
    }
  }
  if (static_cast<int>(slowdowns.size()) < kRssReps) {
    peak_growth_mb = (ProcStatusKb("VmHWM") - base_rss_kb) / 1024.0;
  }
  const double measured_s = elapsed();

  CalmReps calm = PoolCalmHalf(timed);
  if (failures.empty() &&
      !enough_samples(args.trace ? layer.samples : calm.samples)) {
    failures.push_back("too few latency samples for the reported tails");
  }
  if (failed != 0) failures.push_back("failed operations: " +
                                      std::to_string(failed));

  Samples& samples = calm.samples;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"pipeline_fixes_per_s", "1/s", Median(calm.rates)},
        {"ingest_call_p50_us", "us", Percentile(samples.ingest_us, 50)},
        {"barrier_p50_ms", "ms", Percentile(samples.barrier_ms, 50)},
        {"query_p50_us", "us", Percentile(samples.query_us, 50)},
        {"recover_ms", "ms", Median(calm.recover_ms)},
        {"keypoint_ratio", "kp/fix",
         Div(static_cast<double>(keypoints), static_cast<double>(fixes))},
        {"stored_bytes_per_fix", "B/fix",
         Div(static_cast<double>(stored_bytes), static_cast<double>(fixes))},
        {"setup_s", "s", Median(calm.setup_s)},
        {"peak_rss_growth_mb", "MB", peak_growth_mb},
    };
  } else {
    // Both sides unselected: every traced rep against every untraced one.
    std::vector<double> untraced_rates;
    for (const RepResult& r : timed) {
      untraced_rates.push_back(Div(static_cast<double>(r.fixes), r.wall_s));
    }
    const double overhead =
        1.0 - Div(Median(traced_rates), Median(untraced_rates));
    metrics = LayerMetrics(layer, shards == 0, overhead);
    PrintSelfTimeTable(last_trace);
  }

  std::printf("\n%s: %zu untraced + %zu traced reps in %.1f s; reported: "
              "the %zu untraced reps with the least host slowdown; samples: "
              "ingest %zu, barrier %zu, query %zu\n",
              spec->name, timed.size(), traced_rates.size(), measured_s,
              calm.rates.size(), samples.ingest_us.size(),
              samples.barrier_ms.size(), samples.query_us.size());
  const auto print_distribution = [](const char* what,
                                     std::vector<double> v) {
    if (v.empty()) return;
    std::sort(v.begin(), v.end());
    std::printf("  %-24s n %6zu  min %9.4g  p25 %9.4g  p50 %9.4g  p75 %9.4g"
                "  p90 %9.4g  p95 %9.4g  p99 %9.4g  max %9.4g\n",
                what, v.size(), v.front(), Percentile(v, 25),
                Percentile(v, 50), Percentile(v, 75), Percentile(v, 90),
                Percentile(v, 95), Percentile(v, 99), v.back());
  };
  print_distribution("host slowdown", slowdowns);
  print_distribution("rep rate (fixes/s)", calm.rates);
  print_distribution("ingest call (us)", samples.ingest_us);
  print_distribution("barrier (ms)", samples.barrier_ms);
  print_distribution("query (us)", samples.query_us);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "bench_pipeline: CHECK FAILED: %s\n", f.c_str());
  }

  const std::string env_json =
      std::string(env) + ", \"reps\": " + std::to_string(timed.size()) +
      ", \"reported_reps\": " + std::to_string(calm.rates.size()) +
      ", \"traced_reps\": " + std::to_string(traced_rates.size()) +
      ", \"calibration_nominal_ns\": " + JsonNumber(kNominalCalibrationNs) +
      ", \"memory_pass_nominal_ns\": " + JsonNumber(kNominalMemoryPassNs) +
      ", \"median_host_slowdown\": " + JsonNumber(Median(slowdowns)) +
      ", \"reported_max_slowdown\": " + JsonNumber(calm.max_slowdown) +
      ", \"samples\": {\"ingest\": " +
      std::to_string(samples.ingest_us.size()) +
      ", \"barrier\": " + std::to_string(samples.barrier_ms.size()) +
      ", \"query\": " + std::to_string(samples.query_us.size()) + "}}";
  if (args.trace && !args.trace_out.empty() &&
      !WriteTrace(args.trace_out, env_json, last_trace)) {
    std::fprintf(stderr, "bench_pipeline: cannot write %s\n",
                 args.trace_out.c_str());
  }
  std::printf("env %s\n", env_json.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bqs::pipeline

int main(int argc, char** argv) {
  bqs::pipeline::Args args;
  if (!bqs::pipeline::ParseArgs(argc, argv, &args)) return 2;
  if (args.self_test) return bqs::pipeline::SelfTest();
  return bqs::pipeline::Run(args);
}
