// Key-point WAL bench + machine-readable baseline (BENCH_wal.json).
//
// Measures the durability subsystem end to end, per WalDurability policy:
//
//   append   points/sec and MB/s through KeyPointWal::Append on a
//            deterministic multi-device checkpoint workload (the same
//            batch shape FleetEngine's checkpoint path produces), plus
//            the storage density in bytes per key point (record bytes /
//            points; the delta+zigzag+varint codec's figure of merit).
//   recover  WalReader::Recover over the directory just written:
//            points/sec and MB/s of replay, and — the part that gates —
//            whether every acked checkpoint came back bit-exact with a
//            clean per-reason loss report.
//
// The run FAILS (exit 1, so CI fails) if any policy's recovery is not
// bit-exact-and-clean: a WAL that benches fast but drops acked data is
// not a WAL. Throughput is reported for trend-watching but gated only by
// check_perf's density check (bytes_per_point is deterministic — same
// workload, same codec — so cross-machine comparison is exact); fsync
// rates are a property of the CI runner's disk, not of this code.
//
// Usage: bench_wal [scale | --scale S] [--out PATH] [--dir PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "storage/keypoint_wal.h"
#include "trajectory/point.h"

namespace bqs {
namespace {

struct PolicyCase {
  WalDurability durability;
  const char* name;
};

constexpr PolicyCase kPolicies[] = {
    {WalDurability::kNone, "none"},
    {WalDurability::kFlushEveryBatch, "flush_every_batch"},
    {WalDurability::kFsyncEveryBatch, "fsync_every_batch"},
    {WalDurability::kGroupCommit, "group_commit"},
};

struct Workload {
  /// checkpoints[c] is one Append() call: (device, keys).
  std::vector<std::pair<DeviceId, std::vector<KeyPoint>>> checkpoints;
  std::size_t total_points = 0;
};

/// The checkpoint stream FleetEngine's wal_checkpoint_points threshold
/// produces: interleaved devices, batches of a few dozen key points whose
/// coordinates random-walk (so deltas are small and the varint codec is
/// exercised at its design point, not at the degenerate all-zeros one).
Workload MakeWorkload(double scale) {
  Workload w;
  const std::size_t devices = 16;
  const auto checkpoints_per_device =
      static_cast<std::size_t>(200.0 * scale) + 4;
  Rng rng(0x57414cu);  // fixed seed: the workload is part of the baseline
  std::vector<double> t(devices, 0.0);
  std::vector<Vec2> pos(devices, Vec2{0.0, 0.0});
  std::vector<uint64_t> index(devices, 0);
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

uint64_t MixWalPoint(uint64_t h, const wal::WalPoint& p) {
  h = bench::Fnv1aMix(h, &p.index, sizeof(p.index));
  h = bench::Fnv1aMix(h, &p.qt, sizeof(p.qt));
  h = bench::Fnv1aMix(h, &p.qx, sizeof(p.qx));
  h = bench::Fnv1aMix(h, &p.qy, sizeof(p.qy));
  return h;
}

/// Order-sensitive fingerprint of a checkpoint sequence in quantized
/// (on-disk) form — what "bit-exact recovery" compares.
uint64_t ChecksumCheckpoints(const std::vector<wal::WalCheckpoint>& cps) {
  uint64_t h = bench::kFnvOffset;
  for (const wal::WalCheckpoint& cp : cps) {
    h = bench::Fnv1aMix(h, &cp.device, sizeof(cp.device));
    h = bench::Fnv1aMix(h, &cp.seq, sizeof(cp.seq));
    for (const wal::WalPoint& p : cp.points) h = MixWalPoint(h, p);
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

struct PolicyResult {
  std::string name;
  double append_points_per_sec = 0.0;
  double append_mb_per_sec = 0.0;
  double bytes_per_point = 0.0;
  double recover_points_per_sec = 0.0;
  double recover_mb_per_sec = 0.0;
  uint64_t checkpoints = 0;
  uint64_t points = 0;
  uint64_t segments = 0;
  uint64_t file_bytes = 0;
  bool recovered_exact = false;
  bool recovery_clean = false;
};

PolicyResult RunPolicy(const PolicyCase& policy, const Workload& workload,
                       const std::string& base_dir) {
  PolicyResult result;
  result.name = policy.name;
  const std::string dir = base_dir + "/" + policy.name;
  std::filesystem::remove_all(dir);

  KeyPointWalOptions options;
  options.dir = dir;
  options.durability = policy.durability;
  options.segment_bytes = std::size_t{64} << 10;  // several rotations per run

  // What the writer acks, re-quantized the way Append() stores it: the
  // reference the recovered stream must reproduce bit for bit.
  std::vector<wal::WalCheckpoint> acked;
  acked.reserve(workload.checkpoints.size());

  KeyPointWal walog(options);
  if (Status st = walog.Open(); !st.ok()) {
    std::fprintf(stderr, "bench_wal: open %s: %s\n", dir.c_str(),
                 st.ToString().c_str());
    std::exit(2);
  }
  const auto append_begin = std::chrono::steady_clock::now();
  for (const auto& [device, keys] : workload.checkpoints) {
    const Result<WalAppendAck> ack = walog.Append(device, keys);
    if (!ack.ok()) {
      std::fprintf(stderr, "bench_wal: append (%s): %s\n", policy.name,
                   ack.status().ToString().c_str());
      std::exit(2);
    }
    wal::WalCheckpoint cp;
    cp.device = device;
    cp.seq = ack.value().seq;
    cp.points.reserve(keys.size());
    for (const KeyPoint& key : keys) {
      cp.points.push_back(wal::Quantize(key, options.quant));
    }
    acked.push_back(std::move(cp));
  }
  if (Status st = walog.Close(); !st.ok()) {
    std::fprintf(stderr, "bench_wal: close (%s): %s\n", policy.name,
                 st.ToString().c_str());
    std::exit(2);
  }
  const auto append_end = std::chrono::steady_clock::now();

  const KeyPointWalStats stats = walog.stats();
  result.checkpoints = stats.checkpoints_appended;
  result.points = stats.points_appended;
  result.segments = stats.segments_opened;
  result.file_bytes = DirBytes(dir);
  const double append_s = Seconds(append_begin, append_end);
  result.append_points_per_sec =
      append_s > 0 ? static_cast<double>(result.points) / append_s : 0.0;
  result.append_mb_per_sec =
      append_s > 0
          ? static_cast<double>(result.file_bytes) / (1e6 * append_s)
          : 0.0;
  result.bytes_per_point =
      result.points > 0
          ? static_cast<double>(result.file_bytes) /
                static_cast<double>(result.points)
          : 0.0;

  const auto recover_begin = std::chrono::steady_clock::now();
  const Result<WalRecovery> recovered = WalReader::Recover(dir);
  const auto recover_end = std::chrono::steady_clock::now();
  if (!recovered.ok()) {
    std::fprintf(stderr, "bench_wal: recover (%s): %s\n", policy.name,
                 recovered.status().ToString().c_str());
    std::exit(2);
  }
  const double recover_s = Seconds(recover_begin, recover_end);
  result.recover_points_per_sec =
      recover_s > 0 ? static_cast<double>(result.points) / recover_s : 0.0;
  result.recover_mb_per_sec =
      recover_s > 0
          ? static_cast<double>(result.file_bytes) / (1e6 * recover_s)
          : 0.0;
  result.recovery_clean = recovered.value().report.clean();
  result.recovered_exact =
      recovered.value().checkpoints.size() == acked.size() &&
      ChecksumCheckpoints(recovered.value().checkpoints) ==
          ChecksumCheckpoints(acked);

  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  using namespace bqs;

  if (const std::optional<int> code = bench::CheckArgs(
          argc, argv,
          "usage: bench_wal [scale | --scale S] [--out PATH] [--dir PATH]",
          {"--out", "--dir"})) {
    return *code;
  }
  const double scale = bench::ScaleFromArgs(argc, argv, 0.35);
  const std::string out_path =
      bench::StringFlag(argc, argv, "--out", "BENCH_wal.json");
  const std::string base_dir = bench::StringFlag(
      argc, argv, "--dir",
      (std::filesystem::temp_directory_path() / "bqs_bench_wal").string());

  bench::Banner("Key-point WAL: append throughput, density, recovery",
                "durability subsystem (not a paper figure)", scale);

  const Workload workload = MakeWorkload(scale);
  std::printf("workload: %zu checkpoints, %zu points\n\n",
              workload.checkpoints.size(), workload.total_points);
  std::printf("%-18s %12s %10s %9s %12s %10s  %s\n", "policy", "append",
              "MB/s", "B/point", "recover", "MB/s", "exact");

  std::vector<PolicyResult> results;
  bool all_exact = true;
  for (const PolicyCase& policy : kPolicies) {
    PolicyResult r = RunPolicy(policy, workload, base_dir);
    std::printf("%-18s %9.2f M/s %10.1f %9.2f %9.2f M/s %10.1f  %s\n",
                r.name.c_str(), r.append_points_per_sec / 1e6,
                r.append_mb_per_sec, r.bytes_per_point,
                r.recover_points_per_sec / 1e6, r.recover_mb_per_sec,
                r.recovered_exact && r.recovery_clean ? "yes" : "NO");
    all_exact = all_exact && r.recovered_exact && r.recovery_clean;
    results.push_back(std::move(r));
  }

  bench::JsonReport json;
  json.BeginObject();
  json.Key("schema"), json.Value("bqs-bench-wal-v1");
  json.Key("scale"), json.Value(scale);
  json.Key("all_recovered_exact"), json.Value(all_exact);
  json.Key("policies"), json.BeginArray();
  for (const PolicyResult& r : results) {
    json.BeginObject();
    json.Key("name"), json.Value(r.name);
    json.Key("append_points_per_sec"), json.Value(r.append_points_per_sec);
    json.Key("append_mb_per_sec"), json.Value(r.append_mb_per_sec);
    json.Key("bytes_per_point"), json.Value(r.bytes_per_point);
    json.Key("recover_points_per_sec"), json.Value(r.recover_points_per_sec);
    json.Key("recover_mb_per_sec"), json.Value(r.recover_mb_per_sec);
    json.Key("checkpoints"), json.Value(r.checkpoints);
    json.Key("points"), json.Value(r.points);
    json.Key("segments"), json.Value(r.segments);
    json.Key("file_bytes"), json.Value(r.file_bytes);
    json.Key("recovered_exact"), json.Value(r.recovered_exact);
    json.Key("recovery_clean"), json.Value(r.recovery_clean);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.WriteFile(out_path);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_wal: FAILED — a policy's recovery was not "
                 "bit-exact-and-clean\n");
    return 1;
  }
  return 0;
}
