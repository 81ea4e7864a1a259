// Deterministic fault injection for the fleet service layer and the
// key-point WAL.
//
// Overload and failure paths (full rings, stalled workers, mid-batch
// evictions, torn writes, failed fsyncs) are nearly impossible to hit on
// cue from the outside: they depend on scheduling, machine speed, queue
// depths and the kernel's page cache. A FaultInjector makes them
// reproducible: tests arm a site with a firing probability and the engine
// consults ShouldFire() at that site's hook. Every decision is a pure
// function of (seed, site, per-site call index) — splitmix64 over an
// atomic counter — so a given seed replays the exact same fault schedule
// on every run, machine and thread interleaving (provided the per-site
// call sequence itself is deterministic, which the engine's
// single-producer / per-shard-worker structure — and the WAL's internal
// append lock — guarantees for a fixed feed and shard count).
//
// The file lived in src/service until the WAL landed; it is in common now
// because storage sits below service in the layer DAG and both consume
// the same deterministic schedule (a crash-point sweep that arms
// kCrashAfterWrite and an overload test that arms kRingFull must replay
// from the same (seed, site, call index) triple).
//
// The hooks are compiled into FleetEngine and KeyPointWal unconditionally
// — a null-check per shedding seal/dispatch/write, nothing more — but the
// type is a test harness, not a production feature: the repo lint's
// fault-injection-containment rule keeps any other src/ code from
// reaching for it.
//
// Thread contract: Arm() before the engine runs (or between drained
// phases); ShouldFire() is called concurrently from producer and worker
// threads and is lock-free. The worker-stall site is special: when it
// fires, the worker parks in WaitStallReleased() until the test calls
// ReleaseStalls() — release before Flush()/destruction or the drain will
// (by design) never finish.
#ifndef BQS_COMMON_FAULT_INJECTOR_H_
#define BQS_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>

#include "common/math_utils.h"
#include "common/thread_annotations.h"

namespace bqs {

/// Engine hook points a test can force.
enum class FaultSite : uint8_t {
  /// A shedding seal (finite latency budget) sees a (synthetically) full
  /// shard ring. A blocking seal never consults it.
  kRingFull,
  kWorkerStall,     ///< Worker parks before processing its next command.
  kMidBatchEvict,   ///< Session force-evicted right after a dispatched run.

  // --- key-point WAL sites (storage/keypoint_wal.cc) ---------------------
  /// A record write stops short after param(site) bytes (param taken
  /// modulo the record size), leaving a torn record on disk. The writer
  /// reports an IoError and goes dead, exactly like a crashed process.
  kWriteShortAtByte,
  /// The durability sync (fsync/fdatasync) reports failure. Fsync-gate
  /// semantics: the writer goes dead — after a failed fsync nothing about
  /// the file's durable state can be trusted, so pretending to continue
  /// would forge the ack contract.
  kFsyncFail,
  /// Process "crashes" right after an append batch's write (its
  /// durability policy ran, its acks are not yet out): the writer's
  /// user-space buffer (bytes not yet written to the OS under kNone
  /// batching) is discarded and the writer goes dead without flushing.
  kCrashAfterWrite,

  // --- compaction sites (storage/compaction.cc) --------------------------
  /// The compactor "crashes" at state-machine transition param(site): the
  /// in-flight compaction aborts mid-step, leaving whatever temp files /
  /// half-published state exists on disk for recovery to sort out. The
  /// crash-point sweep arms this with param = 0, 1, 2, ... to kill the
  /// pipeline at every transition in turn.
  kCompactionCrashAt,
  /// The atomic rename (block or manifest publication) reports failure.
  /// Retried immediately, up to kCompactionAttempts tries per step; a
  /// rename that keeps failing fails the compaction run (the WAL keeps its
  /// checkpoints), never the WAL ingest path.
  kRenameFail,
  /// A write/fsync reports ENOSPC (disk full). In the WAL this trips the
  /// fsync gate (fail-stop); in the compactor it is retried and then
  /// degrades to WAL-only mode (degrade-and-continue).
  kEnospc,
};
inline constexpr std::size_t kFaultSiteCount = 9;

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `site`: each ShouldFire(site) fires with `probability` (clamped
  /// to [0,1]), at most `max_fires` times total. Call before the engine
  /// consults the site (armed state is read without synchronization on
  /// the hot path). `param` is a site-specific knob the firing hook reads
  /// back through param(site) — kWriteShortAtByte uses it as the byte
  /// offset at which the torn write stops, which is what lets a crash-
  /// point sweep enumerate every offset deterministically.
  void Arm(FaultSite site, double probability,
           uint64_t max_fires = UINT64_MAX, uint64_t param = 0) {
    State& s = state_[Index(site)];
    s.probability = probability < 0.0 ? 0.0
                    : probability > 1.0 ? 1.0
                                        : probability;
    s.max_fires = max_fires;
    s.param = param;
  }

  /// The site's Arm() parameter (0 when never armed).
  uint64_t param(FaultSite site) const { return state_[Index(site)].param; }

  /// The engine's hook: true when the armed site fires for this call.
  /// Deterministic: decision i for a site depends only on (seed, site, i).
  bool ShouldFire(FaultSite site) {
    State& s = state_[Index(site)];
    if (s.probability <= 0.0) return false;
    const uint64_t n = s.calls.fetch_add(1, std::memory_order_relaxed);
    const uint64_t h =
        SplitMix64(seed_ ^ (0x9e3779b97f4a7c15ULL * (Index(site) + 1)) ^ n);
    const double coin =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    if (coin >= s.probability) return false;
    // Reserve a firing slot; over-subscribed reservations past max_fires
    // simply decline (fired_ keeps counting attempts, fires() reports the
    // capped value).
    const uint64_t f = s.fired.fetch_add(1, std::memory_order_relaxed);
    return f < s.max_fires;
  }

  /// Worker-side gate for kWorkerStall: parks until ReleaseStalls(). The
  /// released flag is an atomic read by the wait predicate (the same
  /// pattern as the engine's idle protocol) with the store made under the
  /// mutex, closing the predicate-to-block window.
  void WaitStallReleased() {
    MutexLock lock(stall_mu_);
    stall_cv_.wait(lock.native(), [&] {
      return stalls_released_.load(std::memory_order_relaxed);
    });
  }

  /// Unparks every stalled worker, permanently (a released injector never
  /// stalls again; re-arm with a fresh injector instead).
  void ReleaseStalls() {
    {
      MutexLock lock(stall_mu_);
      stalls_released_.store(true, std::memory_order_seq_cst);
    }
    stall_cv_.notify_all();
  }

  /// True once ReleaseStalls() has run.
  bool stalls_released() const {
    return stalls_released_.load(std::memory_order_relaxed);
  }

  /// Times the site actually fired (capped by max_fires).
  uint64_t fires(FaultSite site) const {
    const State& s = state_[Index(site)];
    const uint64_t f = s.fired.load(std::memory_order_relaxed);
    return f < s.max_fires ? f : s.max_fires;
  }

  /// Times the engine consulted the site.
  uint64_t calls(FaultSite site) const {
    return state_[Index(site)].calls.load(std::memory_order_relaxed);
  }

  uint64_t seed() const { return seed_; }

 private:
  struct State {
    double probability = 0.0;
    uint64_t max_fires = 0;
    uint64_t param = 0;
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> fired{0};
  };

  static std::size_t Index(FaultSite site) {
    return static_cast<std::size_t>(site);
  }

  const uint64_t seed_;
  State state_[kFaultSiteCount];

  Mutex stall_mu_;
  std::condition_variable stall_cv_;
  std::atomic<bool> stalls_released_{false};
};

}  // namespace bqs

#endif  // BQS_COMMON_FAULT_INJECTOR_H_
