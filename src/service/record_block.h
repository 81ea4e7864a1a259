// Pooled routing blocks: the unit of work a FleetEngine producer hands a
// shard worker (or, in inline mode, runs on the caller's thread).
//
// A RecordBlock is one routing window that is already grouped by device.
// The router appends each run of same-device records to that device's
// RouteGroup as it fills the block, so the block holds one contiguous span
// per device, in the order the devices first appeared in the window. The
// dispatching thread hands each span straight to StreamCompressor::
// PushBatch: one copy per fix (the router's), no regroup, no per-record
// replay.
//
// Which group a device owns is the producer's DeviceSlotMap (one per
// shard, a new window per block); Append takes it as a parameter so the
// block itself stays a plain container the consumer can read and clear.
//
// Blocks recycle through a BlockArena: the worker returns a processed
// block over a lock-free SPSC ring and the producer reuses it. Clear keeps
// the groups' heap capacity, so steady-state ingest allocates nothing, but
// only up to a budget of points per block (kRetainedBlocks windows' worth):
// a slot keeps the largest capacity any device ever grew in it, and a hot
// device that opens at a different slot each window would otherwise grow
// every slot toward a full window.
//
// Threading contract (mirrors the engine): one producer thread calls
// Acquire/metrics, one consumer thread calls Release. A block is owned by
// exactly one side at a time — producer while filling, consumer after it
// was enqueued — with the ingest ring providing the happens-before edge.
// The side split is encoded for Thread Safety Analysis: Acquire and the
// counters REQUIRE `producer_role`, Release REQUIRES `consumer_role`.
#ifndef BQS_SERVICE_RECORD_BLOCK_H_
#define BQS_SERVICE_RECORD_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "service/device_slot_map.h"
#include "service/spsc_ring.h"
#include "trajectory/point.h"

namespace bqs {

/// One device's span in a routing window: every point the device sent in
/// the window, in arrival order.
struct RouteGroup {
  DeviceId device = 0;
  std::vector<TrackPoint> points;
};

/// One pooled routing window, grouped by device. groups() lists the live
/// groups in first-seen order; slots past them keep their capacity for the
/// next window.
class RecordBlock {
 public:
  /// Heap a recycled block keeps, in windows of block_capacity points.
  /// Each group grows to a power of two above the largest span any device
  /// had in its slot, so a steady feed needs more than one window: the
  /// bench pipeline's 48-device feed in 4096-record windows freed no group
  /// at 4, and 1,669 groups over 7,061 recycles at 2.
  static constexpr std::size_t kRetainedBlocks = 4;

  /// `retain_points`: the most point capacity Clear keeps across groups.
  explicit RecordBlock(std::size_t retain_points)
      : retain_points_(retain_points) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<const RouteGroup> groups() const {
    return {groups_.data(), live_};
  }

  /// Appends `records` (one device's run, in order) to that device's group,
  /// opening the group on the device's first run in this window. `slots`
  /// is the window's device -> group map.
  void Append(DeviceSlotMap& slots, std::span<const FleetRecord> records)
      REQUIRES(slots.owner_role) {
    const DeviceId device = records.front().device;
    uint32_t slot = slots.Lookup(device);
    if (slot == DeviceSlotMap::kAbsent) {
      slot = static_cast<uint32_t>(live_++);
      if (groups_.size() < live_) groups_.emplace_back();
      groups_[slot].device = device;
      slots.Bind(device, slot);
    }
    std::vector<TrackPoint>& points = groups_[slot].points;
    for (const FleetRecord& record : records) points.push_back(record.point);
    size_ += records.size();
  }

  /// Keeps the first keep[i] points of live group i (the oldest, so
  /// per-device order holds), drops groups left empty, and rebinds the
  /// survivors, in order, in a new window of `slots`. Returns the number
  /// of points dropped.
  std::size_t Truncate(DeviceSlotMap& slots, std::span<const uint32_t> keep)
      REQUIRES(slots.owner_role) {
    slots.NewWindow();
    std::size_t live = 0;
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < live_; ++i) {
      std::vector<TrackPoint>& points = groups_[i].points;
      const std::size_t kept = std::min<std::size_t>(keep[i], points.size());
      dropped += points.size() - kept;
      points.resize(kept);
      if (kept == 0) continue;
      if (i != live) std::swap(groups_[live], groups_[i]);
      slots.Bind(groups_[live].device, static_cast<uint32_t>(live));
      ++live;
    }
    live_ = live;
    size_ -= dropped;
    return dropped;
  }

  /// Drops contents and keeps the groups' capacity (that is the point of
  /// pooling) up to retain_points in all: walking the slots in order, a
  /// group whose capacity would take the total past it frees its heap.
  void Clear() {
    std::size_t retained = 0;
    for (RouteGroup& group : groups_) {
      group.points.clear();
      const std::size_t capacity = group.points.capacity();
      if (retained + capacity > retain_points_) {
        std::vector<TrackPoint>().swap(group.points);
      } else {
        retained += capacity;
      }
    }
    live_ = 0;
    size_ = 0;
  }

 private:
  std::size_t retain_points_;
  std::vector<RouteGroup> groups_;
  std::size_t live_ = 0;  ///< Groups in use this window.
  std::size_t size_ = 0;  ///< Points across the live groups.
};

/// Block pool for one shard. The producer Acquire()s blocks to fill; the
/// shard worker Release()s them after dispatch. Returns travel over an
/// SPSC ring sized so that every block the arena ever hands out fits back
/// (outstanding blocks <= ring depth + one filling + one in process), so
/// Release never blocks and neither side ever takes a lock.
class BlockArena {
 public:
  /// `block_capacity`: the points a block holds when it seals; each block
  /// keeps RecordBlock::kRetainedBlocks times that across recycling.
  BlockArena(std::size_t max_outstanding, std::size_t block_capacity)
      : recycle_(max_outstanding + 2),
        retain_points_(RecordBlock::kRetainedBlocks * block_capacity) {}

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
    owned_.push_back(std::make_unique<RecordBlock>(retain_points_));
    return owned_.back().get();
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
  /// All blocks ever created, in creation order; gives every block exactly
  /// one owner for destruction regardless of where its raw pointer sits.
  /// Producer-side only (Acquire appends, Release never touches it).
  std::vector<std::unique_ptr<RecordBlock>> owned_ GUARDED_BY(producer_role);
  SpscRing<RecordBlock*> recycle_;
  std::size_t retain_points_;
  uint64_t allocated_ GUARDED_BY(producer_role) = 0;
  uint64_t recycled_ GUARDED_BY(producer_role) = 0;
};

}  // namespace bqs

#endif  // BQS_SERVICE_RECORD_BLOCK_H_
