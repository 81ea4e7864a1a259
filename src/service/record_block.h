// Pooled routing blocks: the unit of work a FleetEngine producer hands a
// shard worker.
//
// The PR 3 pipeline staged every IngestBatch into fresh std::vector<
// FleetRecord> commands (one allocation — typically a fresh mmap — per
// shard per batch) and the worker then re-copied each device run into a
// scratch vector before dispatching. A RecordBlock removes both costs:
//
//  - The router performs the single unavoidable copy for a cross-thread
//    handoff, writing each record's TrackPoint directly into the block and
//    coalescing consecutive same-device records into a DeviceRun as it
//    goes. The worker dispatches each run's contiguous points straight
//    into StreamCompressor::PushBatch — no second copy, no per-record
//    replay.
//  - Blocks recycle through a BlockArena: the worker returns a processed
//    block over a lock-free SPSC ring and the producer reuses it, heap
//    capacity (and warm pages) intact. Steady-state ingest allocates
//    nothing.
//
// Threading contract (mirrors the engine): one producer thread calls
// Acquire/metrics, one consumer thread calls Release. A block is owned by
// exactly one side at a time — producer while filling, consumer after it
// was enqueued — with the ingest ring providing the happens-before edge.
// The side split is encoded for Thread Safety Analysis: Acquire and the
// counters REQUIRE `producer_role`, Release REQUIRES `consumer_role`.
#ifndef BQS_SERVICE_RECORD_BLOCK_H_
#define BQS_SERVICE_RECORD_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "service/spsc_ring.h"
#include "trajectory/point.h"

namespace bqs {

/// A maximal stretch of consecutive same-device records, coalesced by the
/// router so the worker dispatches it with one PushBatch instead of
/// `count` single pushes.
struct DeviceRun {
  DeviceId device = 0;
  uint32_t count = 0;
};

/// One pooled chunk of routed records: the points of all runs back to
/// back, plus the run directory that says which device owns which stretch.
struct RecordBlock {
  std::vector<TrackPoint> points;
  std::vector<DeviceRun> runs;

  std::size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }

  /// Drops contents, keeps capacity (that is the point of pooling).
  void Clear() {
    points.clear();
    runs.clear();
  }

  /// Appends one record, extending the trailing run when the device
  /// matches (run coalescing happens here, once, on the router pass).
  void Append(DeviceId device, const TrackPoint& pt) {
    if (runs.empty() || runs.back().device != device) {
      runs.push_back(DeviceRun{device, 0});
    }
    ++runs.back().count;
    points.push_back(pt);
  }
};

/// One device's accumulation group inside a routing window: the grouped
/// dispatch stage (inline router, or a worker regrouping a block) gathers
/// all of a device's runs here so the compressor sees one PushBatch per
/// window instead of one per burst. Pooled slot-indexed; capacity reused.
struct RouteGroup {
  DeviceId device = 0;
  std::vector<TrackPoint> points;
};

/// Block pool for one shard. The producer Acquire()s blocks to fill; the
/// shard worker Release()s them after dispatch. Returns travel over an
/// SPSC ring sized so that every block the arena ever hands out fits back
/// (outstanding blocks <= ring depth + one filling + one in process), so
/// Release never blocks and neither side ever takes a lock.
class BlockArena {
 public:
  BlockArena(std::size_t block_capacity, std::size_t max_outstanding)
      : block_capacity_(block_capacity < 1 ? 1 : block_capacity),
        recycle_(max_outstanding + 2) {}

  std::size_t block_capacity() const { return block_capacity_; }

  /// Producer: a cleared block ready to fill — recycled when one is
  /// available, freshly allocated otherwise.
  RecordBlock* Acquire() REQUIRES(producer_role) {
    // The arena's producer is, by construction, the recycle ring's
    // consumer (blocks travel worker -> producer): holding producer_role
    // IS holding recycle_.consumer_role. The alias is asserted, not
    // derived — this is the one trust point of the reversed-ring design.
    AssumeRole(recycle_.consumer_role);
    RecordBlock* block = nullptr;
    if (recycle_.TryPop(block)) {
      ++recycled_;
      return block;
    }
    ++allocated_;
    owned_.push_back(std::make_unique<RecordBlock>());
    RecordBlock* fresh = owned_.back().get();
    fresh->points.reserve(block_capacity_);
    return fresh;
  }

  /// Consumer: returns a processed block to the pool. Clears it here, on
  /// release, so a stale handle held past this point reads as empty rather
  /// than replaying old records — the cheap poisoning the recycle tests
  /// lock in.
  void Release(RecordBlock* block) REQUIRES(consumer_role) {
    // Mirror of the Acquire alias: the arena's consumer is the recycle
    // ring's producer.
    AssumeRole(recycle_.producer_role);
    block->Clear();
    // By the sizing argument above TryPush cannot fail; if a miscounted
    // caller ever overflows the ring anyway, the block simply retires
    // (still owned by owned_, never reused) instead of corrupting state.
    (void)recycle_.TryPush(block);
  }

  /// Blocks ever allocated fresh (producer-side counter).
  uint64_t allocated() const REQUIRES(producer_role) { return allocated_; }
  /// Acquire() calls served from the recycle ring (producer-side counter).
  uint64_t recycled() const REQUIRES(producer_role) { return recycled_; }

  /// Capability of the single thread that fills blocks (Acquire/counters).
  ThreadRole producer_role;
  /// Capability of the single thread that processes and returns blocks.
  ThreadRole consumer_role;

 private:
  const std::size_t block_capacity_;
  /// All blocks ever created, in creation order; gives every block exactly
  /// one owner for destruction regardless of where its raw pointer sits.
  /// Producer-side only (Acquire appends, Release never touches it).
  std::vector<std::unique_ptr<RecordBlock>> owned_ GUARDED_BY(producer_role);
  SpscRing<RecordBlock*> recycle_;
  uint64_t allocated_ GUARDED_BY(producer_role) = 0;
  uint64_t recycled_ GUARDED_BY(producer_role) = 0;
};

}  // namespace bqs

#endif  // BQS_SERVICE_RECORD_BLOCK_H_
