// Differential fuzzer for the FleetEngine ingest pipeline.
//
// Two byte-selected modes:
//
//  - differential (default): for any interleaving of device records, any
//    shard count, any batch chunking, and any mix of IngestBatch /
//    single-record Ingest / Flush / Stats calls, each device's emitted
//    key points must be identical to running that device's records alone
//    through CompressAll with an identically-configured compressor.
//    Lossless configuration only (kBlock, no budget/idle/faults) so the
//    oracle stays exact.
//
//  - overload: a kShed* policy plus byte-driven fault injection
//    (kRingFull / kArenaExhausted / kMidBatchEvict), optional memory
//    budget with an eps-coarsening ladder and optional idle timeout.
//    Output legitimately diverges from the sequential reference here, so
//    the oracle is the accounting contract instead: after FinishAll,
//    records_ingested + records_shed + records_dropped must equal the
//    records fed, records_shed must equal the sum of its per-reason
//    counters, and nothing may crash, hang or trip a sanitizer.
//    (kWorkerStall is deliberately not armed: it parks workers on
//    wall-clock gates, which a fuzzer loop must not wait on.)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "eval/algorithms.h"
#include "fuzz_input.h"
#include "common/fault_injector.h"
#include "service/fleet_engine.h"
#include "trajectory/compressor.h"
#include "trajectory/point.h"

namespace {

using bqs_fuzz::FuzzInput;

constexpr std::size_t kMaxRecords = 768;
constexpr int kMaxDevices = 6;

/// Collects per-device key points. Shard workers for distinct devices may
/// emit concurrently, so the map is mutex-protected; per-device order is
/// the engine's guarantee and is preserved by appending.
class CollectingSink final : public bqs::FleetSink {
 public:
  void OnKeyPoint(bqs::DeviceId device, const bqs::KeyPoint& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_[device].push_back(key);
  }

  std::map<bqs::DeviceId, std::vector<bqs::KeyPoint>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(keys_);
  }

 private:
  std::mutex mu_;
  std::map<bqs::DeviceId, std::vector<bqs::KeyPoint>> keys_;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);

  // Overload mode on ~1 input in 4: the exact differential oracle stays
  // the primary target, the accounting oracle rides along.
  const bool overload_mode = in.IntIn(0, 3) == 0;

  bqs::FleetEngineOptions options;
  options.algorithm.id =
      in.Bool() ? bqs::AlgorithmId::kFbqs : bqs::AlgorithmId::kBqs;
  options.algorithm.epsilon = in.Range(0.5, 32.0);
  options.num_shards = static_cast<std::size_t>(in.IntIn(0, 4));
  options.block_capacity = static_cast<std::size_t>(in.IntIn(16, 64));
  options.max_pending_blocks = static_cast<std::size_t>(in.IntIn(1, 8));
  options.max_pooled_compressors = static_cast<std::size_t>(in.IntIn(0, 4));
  // Differential mode: budget/idle eviction close sessions mid-stream,
  // which legitimately changes output vs one sequential pass; keep them
  // off so the oracle stays exact. Overload mode turns them on below.
  options.memory_budget_bytes = 0;
  options.idle_timeout_seconds = 0.0;

  bqs::FaultInjector injector(in.U32());
  if (overload_mode) {
    options.overload.policy = in.Bool()
                                  ? bqs::OverloadPolicy::kShedNewest
                                  : bqs::OverloadPolicy::kShedByDevice;
    // Zero budget = shed immediately on a full ring; no wall-clock waits
    // in the fuzz loop.
    options.overload.latency_budget_ms = 0.0;
    options.overload.shed_seed = in.U32();
    options.overload.device_rate_per_second = in.Range(0.0, 8.0);
    if (in.Bool()) {
      options.memory_budget_bytes =
          static_cast<std::size_t>(in.IntIn(1024, 16384));
      if (in.Bool()) options.overload.eps_ladder = {2.0, 4.0};
    }
    if (in.Bool()) options.idle_timeout_seconds = in.Range(0.5, 8.0);
    if (in.Bool()) {
      injector.Arm(bqs::FaultSite::kRingFull, in.Range(0.0, 1.0),
                   static_cast<uint64_t>(in.IntIn(0, 64)));
    }
    if (in.Bool()) {
      injector.Arm(bqs::FaultSite::kArenaExhausted, in.Range(0.0, 1.0),
                   static_cast<uint64_t>(in.IntIn(0, 64)));
    }
    if (in.Bool()) {
      injector.Arm(bqs::FaultSite::kMidBatchEvict, in.Range(0.0, 1.0),
                   static_cast<uint64_t>(in.IntIn(0, 16)));
    }
    options.fault_injector = &injector;
  }

  // Interleaved feed: per-device bounded random walks with per-device
  // monotonic time (the engine requires per-device stream order only).
  const int device_count = in.IntIn(1, kMaxDevices);
  std::vector<bqs::TrackPoint> walker(
      static_cast<std::size_t>(device_count));
  std::vector<bqs::FleetRecord> feed;
  const double step_limit = options.algorithm.epsilon * 4.0;
  while (!in.empty() && feed.size() < kMaxRecords) {
    const std::size_t device =
        static_cast<std::size_t>(in.IntIn(0, device_count - 1));
    bqs::TrackPoint& pt = walker[device];
    pt.pos.x += in.Step(step_limit);
    pt.pos.y += in.Step(step_limit);
    pt.t += in.Range(0.0, 2.0);
    feed.push_back(bqs::FleetRecord{static_cast<bqs::DeviceId>(device), pt});
  }

  CollectingSink sink;
  bqs::FleetStats stats;
  {
    bqs::FleetEngine engine(options, sink);
    std::size_t cursor = 0;
    while (cursor < feed.size()) {
      switch (in.IntIn(0, 7)) {
        case 0: {  // single-record path
          engine.Ingest(feed[cursor].device, feed[cursor].point);
          ++cursor;
          break;
        }
        case 1:
          engine.Flush();
          break;
        case 2:
          (void)engine.Stats();
          break;
        default: {  // batch of byte-chosen size
          const std::size_t batch = static_cast<std::size_t>(
              in.IntIn(1, static_cast<int>(options.block_capacity) * 2));
          const std::size_t end =
              cursor + batch < feed.size() ? cursor + batch : feed.size();
          engine.IngestBatch(std::span<const bqs::FleetRecord>(
              feed.data() + cursor, end - cursor));
          cursor = end;
          break;
        }
      }
    }
    engine.FinishAll();
    stats = engine.Stats();
  }
  const auto emitted = sink.take();

  if (overload_mode) {
    // Accounting oracle: every record fed is ingested, shed or dropped —
    // no silent loss, no double count — and the shed total decomposes
    // exactly into its per-reason counters.
    const uint64_t fed = static_cast<uint64_t>(feed.size());
    const uint64_t accounted =
        stats.records_ingested + stats.records_shed + stats.records_dropped;
    const uint64_t by_reason = stats.shed_ring_full + stats.shed_latency +
                               stats.shed_rate_limited + stats.shed_arena;
    if (accounted != fed || by_reason != stats.records_shed) {
      std::fprintf(stderr,
                   "fleet accounting mismatch: fed=%llu ingested=%llu "
                   "shed=%llu dropped=%llu by_reason=%llu\n",
                   static_cast<unsigned long long>(fed),
                   static_cast<unsigned long long>(stats.records_ingested),
                   static_cast<unsigned long long>(stats.records_shed),
                   static_cast<unsigned long long>(stats.records_dropped),
                   static_cast<unsigned long long>(by_reason));
      std::abort();
    }
    return 0;  // output legitimately diverges; no differential check
  }

  // Sequential reference: each device's records alone through CompressAll.
  for (int device = 0; device < device_count; ++device) {
    std::vector<bqs::TrackPoint> stream;
    for (const bqs::FleetRecord& record : feed) {
      if (record.device == static_cast<bqs::DeviceId>(device)) {
        stream.push_back(record.point);
      }
    }
    std::vector<bqs::KeyPoint> expected;
    if (!stream.empty()) {
      auto compressor = bqs::MakeStreamCompressor(options.algorithm);
      expected = bqs::CompressAll(*compressor, stream).keys;
    }
    const auto it = emitted.find(static_cast<bqs::DeviceId>(device));
    const std::vector<bqs::KeyPoint> empty;
    const std::vector<bqs::KeyPoint>& actual =
        it == emitted.end() ? empty : it->second;
    if (!(actual == expected)) {
      std::fprintf(stderr,
                   "fleet mismatch: device=%d shards=%zu records=%zu "
                   "stream=%zu actual_keys=%zu expected_keys=%zu\n",
                   device, options.num_shards, feed.size(), stream.size(),
                   actual.size(), expected.size());
      std::abort();
    }
  }
  return 0;
}
