// Epoch-versioned open-addressing map from DeviceId to a small slot index
// — the router's device->group lookup.
//
// The router binds each device to its group in the shard's filling block
// (RecordBlock::Append). Each block is one window, and windows turn over
// every few thousand records, so a conventional map
// would pay either a full clear() per window or per-entry deletes; this
// table instead stamps every binding with the window epoch and bumps the
// epoch to invalidate all bindings in O(1) (NewWindow). Entries themselves
// persist across windows (device ids are stable), so a returning device
// costs one probe + one stamp, not an insert.
//
// Deliberately minimal: no deletes (entries only accumulate, one per
// device ever seen — a fraction of the session table's footprint), linear
// probing over a power-of-two table, resize at ~70% load. The home slot
// comes from the high half of the splitmix64 finalizer: the engine picks a
// device's shard from the same hash modulo the shard count, so with a
// power-of-two count every device in one shard's map shares the low bits,
// and low-bit homes would crowd into a fraction of the table. Single-threaded by
// design: it lives on the producer (routing) thread — an ownership
// encoded for Thread Safety Analysis as the `owner_role` capability every
// accessor REQUIRES.
#ifndef BQS_SERVICE_DEVICE_SLOT_MAP_H_
#define BQS_SERVICE_DEVICE_SLOT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/math_utils.h"
#include "common/thread_annotations.h"
#include "trajectory/point.h"

namespace bqs {

class DeviceSlotMap {
 public:
  /// Lookup result when the device has no binding in the current window.
  static constexpr uint32_t kAbsent = 0xffffffffu;

  explicit DeviceSlotMap(std::size_t initial_capacity = 64)
      : entries_(RoundUpPow2(initial_capacity < 16 ? 16 : initial_capacity)) {}

  /// The slot bound to `device` in the current window, or kAbsent (either
  /// never seen, or bound in an earlier — now stale — window).
  uint32_t Lookup(DeviceId device) const REQUIRES(owner_role) {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = Home(device) & mask;
    while (entries_[i].epoch != 0) {
      if (entries_[i].device == device) {
        return entries_[i].epoch == epoch_ ? entries_[i].slot : kAbsent;
      }
      i = (i + 1) & mask;
    }
    return kAbsent;
  }

  /// Binds `device` to `slot` for the current window (insert or restamp).
  void Bind(DeviceId device, uint32_t slot) REQUIRES(owner_role) {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = Home(device) & mask;
    while (entries_[i].epoch != 0) {
      if (entries_[i].device == device) {
        entries_[i].slot = slot;
        entries_[i].epoch = epoch_;
        return;
      }
      i = (i + 1) & mask;
    }
    entries_[i] = Entry{device, slot, epoch_};
    ++count_;
    if (count_ * 10 >= entries_.size() * 7) Grow();
  }

  /// Invalidates every binding in O(1). Entries persist for reuse.
  void NewWindow() REQUIRES(owner_role) { ++epoch_; }

  /// Distinct devices ever bound (table occupancy, not live bindings).
  std::size_t devices_seen() const REQUIRES(owner_role) { return count_; }
  std::size_t table_capacity() const REQUIRES(owner_role) {
    return entries_.size();
  }

  /// Capability of the single thread that owns this table (the engine's
  /// producer thread, which fills the blocks).
  ThreadRole owner_role;

 private:
  struct Entry {
    DeviceId device = 0;
    uint32_t slot = 0;
    /// 0 = empty slot (epoch_ starts at 1, so no live entry carries 0).
    uint64_t epoch = 0;
  };

  /// Probe start before masking: the hash's high half (see file comment).
  static std::size_t Home(DeviceId device) {
    return static_cast<std::size_t>(SplitMix64(device) >> 32);
  }

  static std::size_t RoundUpPow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  void Grow() REQUIRES(owner_role) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.size() * 2, Entry{});
    const std::size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.epoch == 0) continue;
      std::size_t i = Home(e.device) & mask;
      while (entries_[i].epoch != 0) i = (i + 1) & mask;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_ GUARDED_BY(owner_role);
  std::size_t count_ GUARDED_BY(owner_role) = 0;
  uint64_t epoch_ GUARDED_BY(owner_role) = 1;
};

}  // namespace bqs

#endif  // BQS_SERVICE_DEVICE_SLOT_MAP_H_
