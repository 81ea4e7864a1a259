// Bounded single-producer/single-consumer ring buffer — the shard ingest
// queue behind FleetEngine.
//
// The PR 3 ingest queue was a std::deque<Command> under a mutex with a
// condition_variable signalled on every enqueue. Once the PR 4 kernel made
// compressing a point cheaper than a contended lock, that handoff became
// the fleet bottleneck: at shards=1 the engine ingested *slower* than the
// sequential reference. This ring replaces it:
//
//  - Fixed slot array, head/tail as atomics. The fast paths (push with
//    space, pop with items available) touch no mutex and allocate nothing.
//  - Edge-triggered condvar wakes: the consumer advertises that it is
//    about to sleep (`consumer_asleep_`), and the producer only takes the
//    mutex to notify when that flag is set — a stream of enqueues into an
//    awake consumer costs zero notifications instead of one per item.
//    Backpressure mirrors it on the producer side.
//  - The sleep/wake handshake is the classic Dekker pattern: the sleeper
//    stores its flag then re-reads the opposing cursor inside the wait
//    predicate; the waker publishes its cursor then reads the flag. Both
//    flag and cursor accesses on that path are seq_cst, so one of the two
//    sides always observes the other; the notify itself happens under the
//    mutex, closing the remaining predicate-to-block window.
//
// Threading contract: exactly one producer thread may call Push/TryPush
// and exactly one consumer thread may call Pop/TryPop. The contract is
// encoded for Clang Thread Safety Analysis: Push-side entry points REQUIRE
// the `producer_role` capability and Pop-side entry points the
// `consumer_role`; the owning threads assert their role once (AssumeRole)
// and the analysis rejects any call path that crosses sides. Stop() may be
// called from any thread (FleetEngine calls it from the destructor).
// size() is an approximation when read from other threads.
#ifndef BQS_SERVICE_SPSC_RING_H_
#define BQS_SERVICE_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace bqs {

template <typename T>
class SpscRing {
 public:
  /// Capacity is clamped to >= 1 and is exact (not rounded to a power of
  /// two): the ring indexes with a modulo, trading a division per access
  /// for predictable memory use at the caller's chosen depth.
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity), slots_(capacity_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Approximate occupancy. Exact when called by the producer between its
  /// own pushes (the consumer can only shrink it concurrently).
  std::size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Producer: enqueue, blocking while the ring is full (backpressure).
  /// Returns false — with `item` dropped — only if the ring was stopped.
  bool Push(T item) REQUIRES(producer_role) {
    return PushUntil(std::move(item),
                     std::chrono::steady_clock::time_point::max());
  }

  /// Producer: enqueue, blocking until space frees, `deadline` passes, or
  /// the ring is stopped — the bounded-latency variant of Push() behind
  /// the fleet engine's latency budget. Returns false — with `item`
  /// dropped — on timeout or stop. A wait that times out still counts as
  /// a producer_wait.
  bool PushUntil(T item, std::chrono::steady_clock::time_point deadline)
      REQUIRES(producer_role) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= capacity_) {
      producer_waits_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(mu_);
      producer_asleep_.store(true, std::memory_order_seq_cst);
      const auto has_room = [&] {
        return stop_.load(std::memory_order_relaxed) ||
               tail - head_.load(std::memory_order_seq_cst) < capacity_;
      };
      // Push's "no deadline" waits plainly: wait_until converts the
      // deadline between clocks, and time_point::max() overflows there.
      if (deadline == std::chrono::steady_clock::time_point::max()) {
        cv_producer_.wait(lock.native(), has_room);
      } else {
        cv_producer_.wait_until(lock.native(), deadline, has_room);
      }
      producer_asleep_.store(false, std::memory_order_relaxed);
      if (tail - head_.load(std::memory_order_acquire) >= capacity_) {
        return false;  // deadline passed (or stopped) while still full
      }
    }
    if (stop_.load(std::memory_order_relaxed)) return false;
    Publish(tail, std::move(item));
    return true;
  }

  /// Producer: non-blocking enqueue. False when full or stopped.
  bool TryPush(T item) REQUIRES(producer_role) {
    if (stop_.load(std::memory_order_relaxed)) return false;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= capacity_) {
      return false;
    }
    Publish(tail, std::move(item));
    return true;
  }

  /// Consumer: dequeue, blocking while the ring is empty. After Stop() the
  /// remaining items still drain in order; returns false once stopped AND
  /// empty (the worker-thread exit condition).
  bool Pop(T& out) REQUIRES(consumer_role) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) {
      consumer_waits_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(mu_);
      consumer_asleep_.store(true, std::memory_order_seq_cst);
      cv_consumer_.wait(lock.native(), [&] {
        return stop_.load(std::memory_order_relaxed) ||
               head != tail_.load(std::memory_order_seq_cst);
      });
      consumer_asleep_.store(false, std::memory_order_relaxed);
      if (head == tail_.load(std::memory_order_acquire)) {
        return false;  // stopped and drained
      }
    }
    Take(head, out);
    return true;
  }

  /// Consumer: non-blocking dequeue. False when empty.
  bool TryPop(T& out) REQUIRES(consumer_role) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    Take(head, out);
    return true;
  }

  /// Wakes both sides. A blocked Push returns false (its item is dropped);
  /// Pop keeps returning queued items until the ring is drained.
  void Stop() {
    MutexLock lock(mu_);
    stop_.store(true, std::memory_order_seq_cst);
    cv_consumer_.notify_all();
    cv_producer_.notify_all();
  }

  /// Times the consumer found the ring empty and entered the slow path
  /// (i.e. worker sleeps). Edge-triggered wakes make this the number of
  /// producer->consumer notifications that actually mattered.
  uint64_t consumer_waits() const {
    return consumer_waits_.load(std::memory_order_relaxed);
  }

  /// Times the producer found the ring full and blocked (backpressure).
  uint64_t producer_waits() const {
    return producer_waits_.load(std::memory_order_relaxed);
  }

  /// Capability held by the single thread allowed to Push/TryPush. Held by
  /// protocol (being that thread), asserted via AssumeRole at the owner's
  /// trust point, never locked.
  ThreadRole producer_role;
  /// Capability held by the single thread allowed to Pop/TryPop.
  ThreadRole consumer_role;

 private:
  /// Producer tail of every push: fills slot `tail`, publishes it, and
  /// wakes the consumer if it advertised sleep (the waker half of the
  /// Dekker handshake: publish the cursor, then read the flag).
  void Publish(uint64_t tail, T&& item) REQUIRES(producer_role) {
    slots_[static_cast<std::size_t>(tail % capacity_)] = std::move(item);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    if (consumer_asleep_.load(std::memory_order_seq_cst)) {
      MutexLock lock(mu_);
      cv_consumer_.notify_one();
    }
  }

  /// Consumer tail of every pop: moves slot `head` out, frees it, and wakes
  /// a producer blocked on backpressure the same way.
  void Take(uint64_t head, T& out) REQUIRES(consumer_role) {
    out = std::move(slots_[static_cast<std::size_t>(head % capacity_)]);
    head_.store(head + 1, std::memory_order_seq_cst);
    if (producer_asleep_.load(std::memory_order_seq_cst)) {
      MutexLock lock(mu_);
      cv_producer_.notify_one();
    }
  }

  const std::size_t capacity_;
  /// Slot i is written by the producer before the tail_ release-store and
  /// read by the consumer after the matching acquire-load; that per-slot
  /// handoff is the SPSC invariant itself, finer-grained than a capability
  /// can express, so slots_ carries no GUARDED_BY.
  std::vector<T> slots_;
  std::atomic<uint64_t> head_{0};  ///< Next slot to pop (consumer-owned).
  std::atomic<uint64_t> tail_{0};  ///< Next slot to fill (producer-owned).
  std::atomic<bool> stop_{false};
  std::atomic<bool> consumer_asleep_{false};
  std::atomic<bool> producer_asleep_{false};
  std::atomic<uint64_t> consumer_waits_{0};
  std::atomic<uint64_t> producer_waits_{0};
  /// Serializes only the sleep/wake handshake; every shared field is an
  /// atomic, so nothing is GUARDED_BY it.
  Mutex mu_;
  std::condition_variable cv_consumer_;
  std::condition_variable cv_producer_;
};

}  // namespace bqs

#endif  // BQS_SERVICE_SPSC_RING_H_
