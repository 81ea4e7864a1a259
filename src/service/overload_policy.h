// Overload semantics for the fleet ingest pipeline: what FleetEngine does
// when a shard falls behind instead of unconditionally blocking the caller.
//
// One switch decides it, OverloadOptions::latency_budget_ms. The default,
// +infinity, is the original pipeline: IngestBatch blocks on a full shard
// ring until the worker catches up — correct, lossless, and unbounded in
// latency. A deployment serving live trackers usually prefers the opposite
// trade: with a finite budget, ingest waits at most that long and then sheds
// load deterministically with full accounting (FleetStats::records_shed and
// the per-reason counters) rather than silently or randomly.
//
// A block that is still not queued when the budget runs out sheds in one of
// two ways:
//
//  - device_rate_per_second > 0: the sealed block is first compacted
//    through per-device token buckets (refilled on record *stream time*, so
//    decisions are reproducible from the feed alone): devices over the rate
//    lose their over-rate suffix, devices under it keep their records, and
//    the surviving prefix is re-queued as the shard's next filling block
//    instead of being lost. A Zipf-hot device therefore degrades itself
//    before it can starve cold devices — the fairness story of the overload
//    bench.
//  - Otherwise, or when no device is over its rate (the worker is simply
//    too slow), the block is dropped whole (its records are the newest
//    routed to that shard) and its storage reused.
//
// Fractional token grants use seeded stochastic rounding (splitmix64 of a
// fixed seed, the device and a per-shard event counter) so no device is
// systematically biased by rate values that are not whole records per
// block, while every decision stays reproducible from the feed.
//
// Eps-coarsening degradation rides the same options struct: under memory
// pressure a shard steps live sessions through `eps_ladder` multipliers
// (closing the current compressed segment under the old bound, then
// continuing the stream on a compressor minted at the widened epsilon)
// before it resorts to evicting sessions outright; sessions step back down
// when usage drops below half the shard budget. Every emitted point still
// honors the bound of the compressor that produced it, which the engine
// reports through FleetSink::OnErrorBoundChanged.
#ifndef BQS_SERVICE_OVERLOAD_POLICY_H_
#define BQS_SERVICE_OVERLOAD_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/math_utils.h"

namespace bqs {

struct OverloadOptions {
  /// Per-IngestBatch latency budget, milliseconds: every seal the batch
  /// triggers shares one deadline taken at batch entry, and a block still
  /// not queued at the deadline sheds. +infinity (the default) blocks until
  /// the worker frees space — lossless, and the only setting that keeps the
  /// byte-identity guarantee under overload. 0 sheds at once on a full
  /// ring. A non-finite value blocks, a negative one is taken as 0 and one
  /// over a day as a day.
  /// Sharded mode only: inline mode has no ring to fill. Flush/Finish/Stats
  /// seals always block — draining never loses data.
  double latency_budget_ms = std::numeric_limits<double>::infinity();

  /// Per-device admission rate, in records per second of *stream time*
  /// (the t field of the records themselves, so decisions replay
  /// identically regardless of wall-clock speed). When > 0, a block the
  /// budget would shed is first compacted through per-device token buckets;
  /// 0 sheds such a block whole. A device's bucket holds max(2 * rate, 1)
  /// records: one second of burst on top of steady state.
  double device_rate_per_second = 0.0;

  /// Eps-coarsening ladder: epsilon multipliers applied in order as memory
  /// pressure mounts (e.g. {2.0, 4.0} = degrade 1x -> 2x -> 4x). Empty
  /// disables degradation (budget pressure evicts, as before). Requires
  /// memory_budget_bytes > 0 to ever engage. Degraded sessions produce
  /// output that differs from the sequential reference — byte-identity is
  /// guaranteed only for configurations that never degrade. A degraded
  /// session steps one rung back down (at a block boundary, when it next
  /// receives records) once its shard's usage drops below half the shard
  /// budget.
  std::vector<double> eps_ladder;
};

/// One device's admission bucket (device_rate_per_second > 0). Refill is
/// driven by the device's own record stream time, so the bucket is a
/// deterministic function of the feed: wall-clock speed, scheduling and
/// shard count never change a grant.
struct DeviceTokenBucket {
  double tokens = 0.0;  ///< Current allowance, records.
  double last_t = 0.0;  ///< Stream time of the last refill.
  bool primed = false;  ///< First sighting starts with a full burst.

  /// Advances stream time to `t` and returns how many of `want` records
  /// the device may keep. `salt` seeds the stochastic rounding of the
  /// fractional remainder.
  uint32_t Grant(double t, uint32_t want, double rate, double burst,
                 uint64_t salt) {
    if (!primed) {
      tokens = burst;
      last_t = t;
      primed = true;
    } else if (t > last_t) {
      tokens += (t - last_t) * rate;
      if (tokens > burst) tokens = burst;
      last_t = t;
    }
    double grant = tokens < static_cast<double>(want)
                       ? tokens
                       : static_cast<double>(want);
    if (grant <= 0.0) return 0;
    uint32_t whole = static_cast<uint32_t>(grant);
    const double frac = grant - static_cast<double>(whole);
    // Stochastic rounding: keep the fractional record with probability
    // `frac`, decided by the seeded mix — unbiased over many grants,
    // reproducible from the seed.
    if (frac > 0.0 && whole < want) {
      const double coin = static_cast<double>(SplitMix64(salt) >> 11) *
                          (1.0 / 9007199254740992.0);  // [0,1) from 53 bits
      if (coin < frac) ++whole;
    }
    tokens -= static_cast<double>(whole);
    return whole;
  }
};

}  // namespace bqs

#endif  // BQS_SERVICE_OVERLOAD_POLICY_H_
