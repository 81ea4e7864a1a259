// Compaction bench + machine-readable baseline (BENCH_compaction.json).
//
// Measures the WAL -> columnar-block pipeline end to end:
//
//   compact   points/sec through Compactor::CompactOnce over a freshly
//             written multi-segment WAL, plus the storage density of the
//             published blocks in bytes per key point (the columnar
//             delta codec's figure of merit, deterministic for the
//             seeded workload) and the compression vs the WAL's own
//             record encoding.
//   recover   RecoverStore over the compacted directory pair: the gate
//             is bit-exactness against what the WAL acked — a compactor
//             that benches fast but perturbs data is worthless.
//   query     range-query latency off BlockStore (bbox-pruned blocks,
//             then zones) vs a full scan of every point, and the
//             fraction of blocks decoded per query — the pruning power,
//             also deterministic for the seeded workload — beside the
//             points read and zones pruned per query (stdout only).
//
//   no-op     the median cost of a CompactOnce() with nothing to drain,
//             after the first and after the 32nd small block file one
//             compactor published: what an idle checkpoint barrier pays,
//             and whether it grows with the store.
//
// The run FAILS (exit 1) if recovery is not bit-exact or any block query
// disagrees with the brute-force reference: the same points, in the same
// (block) order. Latency is reported for trend-watching; check_perf gates
// the machine-independent fields (exactness, density, decoded fraction,
// workload identity) and two same-run latency ratios (block query vs full
// scan, no-op run after 32 files vs after 1).
//
// Usage: bench_compaction [scale | --scale S] [--out PATH] [--dir PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "storage/block_format.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"
#include "trajectory/point.h"

namespace bqs {
namespace {

struct Workload {
  /// checkpoints[c] is one Append() call: (device, keys).
  std::vector<std::pair<DeviceId, std::vector<KeyPoint>>> checkpoints;
  std::size_t total_points = 0;
  std::vector<Vec2> centers;  ///< per-device cluster center (query targets)
};

/// Spatially clustered fleet: each device random-walks around its own
/// far-apart center, so block bboxes separate and pruning has something
/// real to prune — the regime the grid index is built for.
Workload MakeWorkload(double scale) {
  Workload w;
  const std::size_t devices = 12;
  const auto checkpoints_per_device =
      static_cast<std::size_t>(150.0 * scale) + 4;
  Rng rng(0xb10c5u);  // fixed seed: the workload is part of the baseline
  std::vector<double> t(devices, 0.0);
  std::vector<Vec2> pos(devices);
  std::vector<uint64_t> index(devices, 0);
  for (DeviceId d = 0; d < devices; ++d) {
    const double angle = 2.0 * M_PI * static_cast<double>(d) / devices;
    w.centers.push_back(
        Vec2{30000.0 * std::cos(angle), 30000.0 * std::sin(angle)});
    pos[d] = w.centers.back();
  }
  for (std::size_t c = 0; c < checkpoints_per_device; ++c) {
    for (DeviceId d = 0; d < devices; ++d) {
      const auto batch = static_cast<std::size_t>(rng.UniformInt(8, 48));
      std::vector<KeyPoint> keys;
      keys.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        t[d] += rng.Uniform(0.5, 8.0);
        pos[d].x += rng.Uniform(-40.0, 40.0);
        pos[d].y += rng.Uniform(-40.0, 40.0);
        index[d] += static_cast<uint64_t>(rng.UniformInt(1, 30));
        KeyPoint key;
        key.index = index[d];
        key.point.t = t[d];
        key.point.pos = pos[d];
        keys.push_back(key);
      }
      w.total_points += keys.size();
      w.checkpoints.emplace_back(d, std::move(keys));
    }
  }
  return w;
}

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

uint64_t ChecksumCheckpoints(const std::vector<wal::WalCheckpoint>& cps) {
  uint64_t h = bench::kFnvOffset;
  for (const wal::WalCheckpoint& cp : cps) {
    h = bench::Fnv1aMix(h, &cp.device, sizeof(cp.device));
    h = bench::Fnv1aMix(h, &cp.seq, sizeof(cp.seq));
    for (const wal::WalPoint& p : cp.points) {
      h = bench::Fnv1aMix(h, &p.index, sizeof(p.index));
      h = bench::Fnv1aMix(h, &p.qt, sizeof(p.qt));
      h = bench::Fnv1aMix(h, &p.qx, sizeof(p.qx));
      h = bench::Fnv1aMix(h, &p.qy, sizeof(p.qy));
    }
  }
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += static_cast<uint64_t>(entry.file_size());
    }
  }
  return total;
}

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_compaction: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(2);
}

/// Every stored point, dequantized, in MANIFEST block order (a block's
/// checkpoints in seq order): the order BlockStore::Query returns its hits
/// in. Exits if a recovered point lies in no block.
std::vector<KeyPoint> PointsInBlockOrder(const Manifest& manifest,
                                         const WalRecovery& recovered) {
  std::vector<KeyPoint> points;
  std::size_t total = 0;
  for (const wal::WalCheckpoint& cp : recovered.checkpoints) {
    total += cp.points.size();
  }
  points.reserve(total);
  for (const ManifestBlockFile& file : manifest.files) {
    for (const ManifestBlockEntry& entry : file.blocks) {
      const blk::BlockMeta& m = entry.meta;
      for (const wal::WalCheckpoint& cp : recovered.checkpoints) {
        if (cp.device != m.device || cp.seq < m.first_seq ||
            cp.seq > m.last_seq) {
          continue;
        }
        for (const wal::WalPoint& p : cp.points) {
          points.push_back(wal::Dequantize(p, manifest.quant));
        }
      }
    }
  }
  if (points.size() != total) {
    Die("brute-force reference",
        Status::Internal("recovered points outside every block"));
  }
  return points;
}

/// Block files the no-op measurement publishes, one compaction run each,
/// and the devices (so blocks) per file: about one barrier's worth of a
/// 48-device fleet.
constexpr int kNoOpFiles = 32;
constexpr DeviceId kNoOpDevices = 48;
/// No-op CompactOnce() calls timed after the first and the last file.
constexpr int kNoOpRuns = 20;

struct NoOpCost {
  double first_us = 0.0;  ///< Median no-op run with 1 block file.
  double last_us = 0.0;   ///< Median no-op run with kNoOpFiles files.
};

/// What a checkpoint barrier pays when it has nothing to compact, and
/// whether that grows with the store. Each round appends one small
/// checkpoint per device, seals the segment (a fresh writer starts the
/// next one) and compacts it into one block file; the median of kNoOpRuns
/// no-op runs of the same compactor is taken after the first file and
/// after the last. A compactor that re-reads the MANIFEST or lists the
/// block directory on every run pays more the more files it has.
NoOpCost MeasureNoOpRuns(const std::string& dir) {
  const std::string wal_dir = dir + "/wal";
  const std::string block_dir = dir + "/blocks";
  CompactionOptions copts;
  copts.wal_dir = wal_dir;
  copts.block_dir = block_dir;
  Compactor compactor(copts);
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  Rng rng(0x0b0bu);
  uint64_t next_seq = 1;
  NoOpCost cost;
  for (int file = 1; file <= kNoOpFiles; ++file) {
    KeyPointWal walog(wal_options);
    if (Status st = walog.Open(next_seq); !st.ok()) Die("no-op wal open", st);
    for (DeviceId d = 0; d < kNoOpDevices; ++d) {
      std::vector<KeyPoint> keys(4);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i].index = static_cast<uint64_t>(file) * 100 + i;
        keys[i].point.t = file * 60.0 + static_cast<double>(i);
        keys[i].point.pos = {rng.Uniform(-5000.0, 5000.0),
                             rng.Uniform(-5000.0, 5000.0)};
      }
      const Result<WalAppendAck> ack = walog.Append(d, keys);
      if (!ack.ok()) Die("no-op wal append", ack.status());
    }
    next_seq = walog.next_seq();
    if (Status st = walog.Close(); !st.ok()) Die("no-op wal close", st);
    // A fresh writer seals the segment above; leave its empty one active.
    KeyPointWal active(wal_options);
    if (Status st = active.Open(next_seq); !st.ok()) Die("no-op wal", st);
    const uint64_t bound = active.current_segment_index();
    if (Status st = compactor.CompactOnce(bound); !st.ok()) {
      Die("no-op compact", st);
    }
    if (file == 1 || file == kNoOpFiles) {
      std::vector<double> us;
      for (int run = 0; run < kNoOpRuns; ++run) {
        const auto begin = std::chrono::steady_clock::now();
        if (Status st = compactor.CompactOnce(bound); !st.ok()) {
          Die("no-op run", st);
        }
        us.push_back(1e6 * Seconds(begin, std::chrono::steady_clock::now()));
      }
      std::sort(us.begin(), us.end());
      const double median = 0.5 * (us[(us.size() - 1) / 2] + us[us.size() / 2]);
      (file == 1 ? cost.first_us : cost.last_us) = median;
    }
    if (Status st = active.Close(); !st.ok()) Die("no-op wal close", st);
  }
  if (compactor.stats().block_files_written !=
      static_cast<uint64_t>(kNoOpFiles)) {
    Die("no-op setup",
        Status::Internal("expected one block file per compaction round"));
  }
  return cost;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  using namespace bqs;

  if (const std::optional<int> code = bench::CheckArgs(
          argc, argv,
          "usage: bench_compaction [scale | --scale S] [--out PATH] "
          "[--dir PATH]",
          {"--out", "--dir"})) {
    return *code;
  }
  const double scale = bench::ScaleFromArgs(argc, argv, 0.35);
  const std::string out_path =
      bench::StringFlag(argc, argv, "--out", "BENCH_compaction.json");
  const std::string base_dir = bench::StringFlag(
      argc, argv, "--dir",
      (std::filesystem::temp_directory_path() / "bqs_bench_compaction")
          .string());
  const std::string wal_dir = base_dir + "/wal";
  const std::string block_dir = base_dir + "/blocks";
  std::filesystem::remove_all(base_dir);

  bench::Banner("Compaction: drain throughput, density, range queries",
                "columnar block store (not a paper figure)", scale);

  const Workload workload = MakeWorkload(scale);
  std::printf("workload: %zu checkpoints, %zu points, %zu devices\n\n",
              workload.checkpoints.size(), workload.total_points,
              workload.centers.size());

  // --- write the WAL (setup, not measured) -------------------------------
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.segment_bytes = std::size_t{64} << 10;
  std::vector<wal::WalCheckpoint> acked;
  acked.reserve(workload.checkpoints.size());
  {
    KeyPointWal walog(wal_options);
    if (Status st = walog.Open(); !st.ok()) Die("wal open", st);
    for (const auto& [device, keys] : workload.checkpoints) {
      const Result<WalAppendAck> ack = walog.Append(device, keys);
      if (!ack.ok()) Die("wal append", ack.status());
      wal::WalCheckpoint cp;
      cp.device = device;
      cp.seq = ack.value().seq;
      cp.points.reserve(keys.size());
      for (const KeyPoint& key : keys) {
        cp.points.push_back(wal::Quantize(key, wal_options.quant));
      }
      acked.push_back(std::move(cp));
    }
    if (Status st = walog.Close(); !st.ok()) Die("wal close", st);
  }
  const uint64_t wal_bytes = DirBytes(wal_dir);

  // --- compact (measured) ------------------------------------------------
  CompactionOptions copts;
  copts.wal_dir = wal_dir;
  copts.block_dir = block_dir;
  Compactor compactor(copts);
  const auto compact_begin = std::chrono::steady_clock::now();
  if (Status st = compactor.CompactOnce(); !st.ok()) Die("compact", st);
  const auto compact_end = std::chrono::steady_clock::now();
  const CompactionStats cstats = compactor.stats();
  const uint64_t block_bytes = DirBytes(block_dir);
  const double compact_s = Seconds(compact_begin, compact_end);
  const double compact_pps =
      compact_s > 0 ? static_cast<double>(cstats.points_compacted) / compact_s
                    : 0.0;
  const double bytes_per_point =
      cstats.points_compacted > 0
          ? static_cast<double>(block_bytes) /
                static_cast<double>(cstats.points_compacted)
          : 0.0;
  const double wal_bytes_per_point =
      workload.total_points > 0
          ? static_cast<double>(wal_bytes) /
                static_cast<double>(workload.total_points)
          : 0.0;
  std::printf("compact: %7.2f M pts/s   %5.2f B/pt (wal was %5.2f B/pt)   "
              "%llu blocks in %llu file(s)\n",
              compact_pps / 1e6, bytes_per_point, wal_bytes_per_point,
              static_cast<unsigned long long>(cstats.blocks_written),
              static_cast<unsigned long long>(cstats.block_files_written));

  // --- recovery exactness (measured, gates) ------------------------------
  const auto recover_begin = std::chrono::steady_clock::now();
  const Result<StoreRecovery> recovered = RecoverStore(wal_dir, block_dir);
  const auto recover_end = std::chrono::steady_clock::now();
  if (!recovered.ok()) Die("recover", recovered.status());
  const double recover_s = Seconds(recover_begin, recover_end);
  const double recover_pps =
      recover_s > 0
          ? static_cast<double>(workload.total_points) / recover_s
          : 0.0;
  const bool recovery_exact =
      recovered.value().wal.checkpoints.size() == acked.size() &&
      ChecksumCheckpoints(recovered.value().wal.checkpoints) ==
          ChecksumCheckpoints(acked);
  const bool recovery_clean = recovered.value().report.clean();
  std::printf("recover: %7.2f M pts/s   exact %s   clean %s\n",
              recover_pps / 1e6, recovery_exact ? "yes" : "NO",
              recovery_clean ? "yes" : "NO");

  // --- range queries (measured, gates on exactness + pruning) ------------
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  if (!opened.ok()) Die("block store open", opened.status());
  const BlockStore& store = opened.value();

  // The brute-force reference: every point, dequantized, in memory, in the
  // order a block query returns them.
  const std::vector<KeyPoint> all_points =
      PointsInBlockOrder(store.manifest(), recovered.value().wal);

  Rng qrng(0x9e3779b9u);
  const auto query_count = static_cast<std::size_t>(64.0 * scale) + 8;
  double block_query_s = 0.0, scan_query_s = 0.0;
  double decoded_fraction_sum = 0.0;
  uint64_t points_read = 0, zones_pruned = 0;
  bool queries_match = true;
  std::size_t total_hits = 0;
  for (std::size_t q = 0; q < query_count; ++q) {
    const Vec2 base =
        workload.centers[q % workload.centers.size()];
    const Vec2 center{base.x + qrng.Uniform(-500.0, 500.0),
                      base.y + qrng.Uniform(-500.0, 500.0)};
    const double radius = qrng.Uniform(100.0, 1200.0);
    const double t_lo = qrng.Uniform(0.0, 300.0);
    const double t_hi = t_lo + qrng.Uniform(50.0, 600.0);

    std::vector<KeyPoint> from_blocks;
    RangeQueryStats qstats;
    const auto bq_begin = std::chrono::steady_clock::now();
    if (Status st = store.Query(center, radius, t_lo, t_hi, &from_blocks,
                                &qstats);
        !st.ok()) {
      Die("block query", st);
    }
    block_query_s += Seconds(bq_begin, std::chrono::steady_clock::now());
    decoded_fraction_sum +=
        qstats.blocks_total > 0
            ? static_cast<double>(qstats.blocks_decoded) /
                  static_cast<double>(qstats.blocks_total)
            : 0.0;
    points_read += qstats.points_scanned;
    zones_pruned += qstats.zones_pruned;

    const auto fs_begin = std::chrono::steady_clock::now();
    std::vector<KeyPoint> expected;
    for (const KeyPoint& k : all_points) {
      if (k.point.t >= t_lo && k.point.t <= t_hi &&
          DistanceSq(k.point.pos, center) <= radius * radius) {
        expected.push_back(k);
      }
    }
    scan_query_s += Seconds(fs_begin, std::chrono::steady_clock::now());
    total_hits += expected.size();
    if (from_blocks != expected) queries_match = false;
  }
  const double avg_decoded_fraction =
      decoded_fraction_sum / static_cast<double>(query_count);
  const double block_query_us =
      1e6 * block_query_s / static_cast<double>(query_count);
  const double scan_query_us =
      1e6 * scan_query_s / static_cast<double>(query_count);
  const auto per_query = [&](uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(query_count);
  };
  std::printf("queries: %zu queries, %zu hits   block %8.1f us/q   "
              "full-scan %8.1f us/q   decoded %5.3f of blocks   "
              "%.1f points read/q   %.1f zones pruned/q   match %s\n",
              query_count, total_hits, block_query_us, scan_query_us,
              avg_decoded_fraction, per_query(points_read),
              per_query(zones_pruned), queries_match ? "yes" : "NO");

  // --- no-op run cost vs store size (measured, gated as a ratio) ----------
  const NoOpCost noop = MeasureNoOpRuns(base_dir + "/noop");
  const double noop_growth =
      noop.first_us > 0 ? noop.last_us / noop.first_us : 0.0;
  std::printf("no-op:   %7.1f us/run with 1 block file, %7.1f us/run with "
              "%d (%.2fx)\n",
              noop.first_us, noop.last_us, kNoOpFiles, noop_growth);

  bench::JsonReport json;
  json.BeginObject();
  json.Key("schema"), json.Value("bqs-bench-compaction-v1");
  json.Key("scale"), json.Value(scale);
  json.Key("points"), json.Value(static_cast<uint64_t>(workload.total_points));
  json.Key("checkpoints"),
      json.Value(static_cast<uint64_t>(workload.checkpoints.size()));
  json.Key("compact_points_per_sec"), json.Value(compact_pps);
  json.Key("recover_points_per_sec"), json.Value(recover_pps);
  json.Key("blocks_written"), json.Value(cstats.blocks_written);
  json.Key("block_files_written"), json.Value(cstats.block_files_written);
  json.Key("wal_bytes"), json.Value(wal_bytes);
  json.Key("block_bytes"), json.Value(block_bytes);
  json.Key("bytes_per_point"), json.Value(bytes_per_point);
  json.Key("wal_bytes_per_point"), json.Value(wal_bytes_per_point);
  json.Key("recovery_exact"), json.Value(recovery_exact);
  json.Key("recovery_clean"), json.Value(recovery_clean);
  json.Key("queries"), json.Value(static_cast<uint64_t>(query_count));
  json.Key("query_hits"), json.Value(static_cast<uint64_t>(total_hits));
  json.Key("queries_match"), json.Value(queries_match);
  json.Key("block_query_us"), json.Value(block_query_us);
  json.Key("full_scan_query_us"), json.Value(scan_query_us);
  json.Key("avg_decoded_block_fraction"), json.Value(avg_decoded_fraction);
  json.Key("noop_block_files"), json.Value(static_cast<uint64_t>(kNoOpFiles));
  json.Key("noop_run_us_first_file"), json.Value(noop.first_us);
  json.Key("noop_run_us_last_file"), json.Value(noop.last_us);
  json.EndObject();
  json.WriteFile(out_path);
  std::printf("\nwrote %s\n", out_path.c_str());

  std::filesystem::remove_all(base_dir);
  if (!recovery_exact || !recovery_clean || !queries_match) {
    std::fprintf(stderr,
                 "bench_compaction: FAILED — recovery or query results "
                 "diverged from the acked reference\n");
    return 1;
  }
  return 0;
}
