// The fleet ingest layer: a session manager that multiplexes many
// concurrent device streams over the single-stream StreamCompressor family.
//
// The paper's compressors are per-device state machines; a deployment
// serving a fleet receives one interleaved feed of (device, point) records.
// FleetEngine owns that multiplexing: records are routed to a per-device
// session (device -> shard by hash), each session runs its own compressor
// minted from a shared CompressorFactory, and newly-final key points are
// forwarded to a FleetSink with per-device ordering guaranteed.
//
// Ingest pipeline — one router and one block path for every mode:
//
//   IngestBatch(records)
//        │  router: one pass over maximal same-device runs; per run it
//        │  picks the shard (hash of the device) and the device's group
//        │  (the shard's DeviceSlotMap), then copies the run's points into
//        │  that group of the shard's filling RecordBlock
//        ▼
//   RecordBlock (arena-recycled): one window, already grouped by device,
//        │  first-seen order; the single copy of the pipeline
//        │  sharded: bounded SPSC ring per shard, edge-triggered condvar
//        │  wakes, backpressure when max_pending_blocks behind
//        ▼
//   Execute(block): for each device group, one PushBatch straight from
//   block memory into the compressor's SoA fast path — no regroup, no
//   per-record replay, no steady-state allocation. The compressor appends
//   its key points to the session's WAL staging buffer (or a reused
//   scratch vector without a WAL), and the new tail goes to the FleetSink
//   in order.
//
// A block seals when it holds block_capacity records; a run longer than
// the room left splits there and continues in the next block.
//
// Inline mode (the single-shard shortcut): num_shards <= 1 is the same
// path without threads or the ring. The one shard's block runs on the
// caller's thread when it seals and at the end of every IngestBatch, and
// FinishDevice/FinishAll run the same commands a worker would. A
// one-worker pipeline cannot beat the caller doing the work itself — it
// only adds a handoff and a cache round trip — so one shard IS the inline
// case. That is the embedded/single-core deployment shape; everything
// else about the engine (sessions, budgets, stats, sinks) behaves
// identically. Worker threads start at num_shards >= 2.
//
// Sharding: the session table is split across N worker threads. Each shard
// owns its sessions outright (no shared compressor state), so throughput
// scales with cores while the per-device output stays byte-identical to
// running that device's stream alone through CompressAll — the invariant
// the differential tests enforce for every shard count, inline mode
// included. Determinism caveat: idle/budget-driven session closure depends
// on which devices share a shard, so the invariant is stated for the
// default unbounded configuration (no memory budget, no idle timeout) and
// any explicit Finish calls. When the process may use more CPUs than the
// engine has workers, each worker starts on its own CPU, counted from the
// one after the CPU that built the engine, and then gets the process's
// whole CPU set back: a starting place, not a pin.
//
// Batching caveat (sharded mode): records accumulate in a partial block
// until it fills, so compression of the newest records may be deferred
// until the next block boundary, Flush(), Finish*(), or Stats() — all of
// which seal and drain. Inline mode never defers past the IngestBatch
// call that delivered the records. Output order and content are
// unaffected either way (the chunking-independence tests cover this).
//
// Threading contract: the public API (IngestBatch, Finish*, Flush, Stats)
// is single-producer — call it from one thread, or serialize externally.
// FleetSink methods are invoked from shard worker threads (from the caller
// thread in inline mode): calls for one device are ordered, calls for
// different devices may be concurrent.
//
// The contract is encoded for Clang Thread Safety Analysis (compiled with
// -Werror=thread-safety in CI). Each Shard carries two ThreadRole
// capabilities:
//
//  - `producer_role`: the single API-caller thread. Guards the routing
//    state (partial block, device slot map, enqueue counters) and is
//    required by the ring push / arena acquire side.
//  - `worker_role`: the shard's dispatching thread. Guards the session
//    table, LRU and counters.
//
// The idle protocol is the interesting part: WaitIdle() is annotated
// ASSERT_CAPABILITY(shard.worker_role), so the caller thread *gains* the
// worker capability by draining the shard — exactly the protocol the
// comments used to state ("worker-owned, read by Stats() only under the
// idle+lock protocol"), now checked at compile time. The remaining trust
// points (worker loop entry, inline mode's everything-on-one-thread
// shortcut, the single-producer API contract itself) are the AssumeProducer
// / AssumeWorker assertions in fleet_engine.cc.
#ifndef BQS_SERVICE_FLEET_ENGINE_H_
#define BQS_SERVICE_FLEET_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/decision_stats.h"
#include "eval/algorithms.h"
#include "service/device_slot_map.h"
#include "service/overload_policy.h"
#include "service/record_block.h"
#include "service/spsc_ring.h"
#include "storage/keypoint_wal.h"
#include "trajectory/compressor.h"
#include "trajectory/point.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)
class Compactor;      // storage/compaction.h

/// Why a device session was closed.
enum class SessionEndReason {
  kFinished,  ///< Explicit FinishDevice()/FinishAll().
  kEvicted,   ///< Memory-budget pressure; the device may reappear later.
  kIdle,      ///< Idle longer than FleetEngineOptions::idle_timeout_seconds.
};

/// Downstream consumer of the fleet's compressed output.
class FleetSink {
 public:
  virtual ~FleetSink() = default;

  /// A newly-final key point of `device`'s compressed stream. Per-device
  /// calls arrive in stream order; distinct devices may call concurrently
  /// from different shard threads. Must not re-enter the FleetEngine.
  virtual void OnKeyPoint(DeviceId device, const KeyPoint& key) = 0;

  /// `device`'s session closed; its closing key point(s) were already
  /// delivered via OnKeyPoint. A later record for the device transparently
  /// opens a fresh session (i.e. starts a new compressed segment).
  virtual void OnSessionEnd(DeviceId device, SessionEndReason reason) {
    (void)device;
    (void)reason;
  }

  /// The error bound `device`'s live session honors changed: the engine
  /// degraded the session one eps-coarsening rung under memory pressure,
  /// or recovered it when pressure cleared. Key points emitted before this
  /// call honor the previous bound, later ones honor `error_bound`; the
  /// session itself stays open (no OnSessionEnd). Threading as OnKeyPoint.
  virtual void OnErrorBoundChanged(DeviceId device, double error_bound) {
    (void)device;
    (void)error_bound;
  }
};

struct FleetEngineOptions {
  /// Algorithm every session runs (must be a streaming one; records for an
  /// offline algorithm are dropped and counted in FleetStats).
  AlgorithmConfig algorithm;

  /// Worker threads / session-table shards. 0 and 1 are both inline mode
  /// (the single-shard shortcut): no threads or queues, records are routed
  /// and compressed synchronously on the caller thread, reported as one
  /// logical shard by num_shards(). Worker threads start at 2.
  std::size_t num_shards = 1;

  /// Approximate budget for growable compressor state across the whole
  /// engine, in bytes: live sessions, each charged StateBytes() plus a
  /// fixed kSessionBaseBytes. 0 = unbounded. A shard over its share steps
  /// sessions up overload.eps_ladder (when set), then finalizes least-
  /// recently-active sessions (SessionEndReason::kEvicted) until back under
  /// budget.
  /// Setting a budget switches session accounting from lazy (computed at
  /// Stats() time, zero per-run cost) to eager (updated after every run).
  ///
  /// Not counted: the routing blocks. A recycled block keeps up to
  /// RecordBlock::kRetainedBlocks x block_capacity points of capacity
  /// (40 B each: 4 x 4096 x 40 B = 640 KiB at the defaults), and a sharded
  /// shard holds up to max_pending_blocks + 2 blocks — about 41 MiB per
  /// shard at the defaults; inline mode holds one block.
  std::size_t memory_budget_bytes = 0;

  /// Sessions whose last record is older than this many seconds of stream
  /// time (relative to the newest record their shard has seen) are
  /// finalized with SessionEndReason::kIdle at block boundaries. 0 = never.
  double idle_timeout_seconds = 0.0;

  /// Records per routing block: the router's grouping window in every
  /// mode, and in sharded mode the granularity of producer-to-worker
  /// handoff. A device gets one compressor dispatch per block it appears
  /// in; a run longer than the room left splits at the cap. A recycled
  /// block keeps at most RecordBlock::kRetainedBlocks x this many points
  /// of group capacity (40 B each, sizeof(TrackPoint)), outside
  /// memory_budget_bytes. Clamped to [16, 2^20].
  std::size_t block_capacity = 4096;

  /// Per-shard ingest ring depth, in blocks; IngestBatch blocks
  /// (backpressure) when the target shard is this many sealed blocks
  /// behind. Clamped to >= 1. Unused in inline mode.
  std::size_t max_pending_blocks = 64;

  /// Overload semantics: per-IngestBatch latency budget, per-device
  /// token-bucket fairness and the eps-coarsening ladder. The defaults (an
  /// infinite budget, no ladder) preserve the original lossless blocking
  /// behavior — and with it the byte-identity guarantee. Shedding applies
  /// to sharded mode only (inline mode has no queue to overflow); the eps
  /// ladder engages in any mode once memory_budget_bytes is set.
  OverloadOptions overload;

  /// Deterministic fault injection for tests; nullptr in production (the
  /// hooks then cost one pointer check). Must outlive the engine. See
  /// common/fault_injector.h; the repo lint confines use to tests.
  FaultInjector* fault_injector = nullptr;

  /// Optional durability sink: an opened KeyPointWal the engine checkpoints
  /// emitted key points into (nullptr = no WAL; must outlive the engine).
  /// Each session stages its emitted points and appends them as one WAL
  /// checkpoint when the staged count reaches wal_checkpoint_points, when
  /// the session closes (finish/idle/evict), and when an eps-ladder reseat
  /// closes its compressed segment — so every lifecycle edge that finalizes
  /// output also makes it durable. The WAL is crash insurance, not the data
  /// path: an append failure (e.g. the WAL's fsync gate tripped) is counted
  /// in FleetStats::wal_append_failures and ingest continues; the sink
  /// still receives everything.
  KeyPointWal* wal = nullptr;

  /// Staged key points per session that trigger a WAL checkpoint between
  /// lifecycle edges. Smaller = tighter crash-loss window, more WAL
  /// records. Clamped to >= 1.
  std::size_t wal_checkpoint_points = 256;

  /// Optional compaction driver (requires `wal`; must outlive the engine).
  /// After every CheckpointWal() barrier the engine runs one compaction
  /// over the WAL's sealed segments (the active segment is never touched).
  /// A degraded compactor — persistent ENOSPC — is skipped entirely: the
  /// engine falls back to WAL-only durability, keeps ingesting, and
  /// reports storage_healthy = false. Never on the ingest path.
  Compactor* compactor = nullptr;
};

/// Aggregate engine counters. Snapshot via FleetEngine::Stats(), which
/// seals partial blocks and drains in-flight work first.
struct FleetStats {
  uint64_t records_ingested = 0;   ///< Records accepted into a session.
  uint64_t records_dropped = 0;    ///< Records with no streaming algorithm.
  uint64_t key_points_emitted = 0; ///< OnKeyPoint calls made.
  uint64_t sessions_opened = 0;
  uint64_t sessions_finished = 0;  ///< Explicit finishes.
  uint64_t sessions_evicted = 0;   ///< Budget evictions.
  uint64_t sessions_idled = 0;     ///< Idle-timeout finalizations.
  std::size_t live_sessions = 0;

  // --- ingest pipeline counters (worker_wakes, backpressure_waits and
  // peak_queue_depth stay zero in inline mode, which has no ring) ---------
  /// Single-device dispatches into the PushBatch fast path: one per
  /// (block, device) pair. records_ingested / coalesced_runs is the mean
  /// dispatch length — the number that says how much grouping bought.
  uint64_t coalesced_runs = 0;
  /// Sealed blocks run: handed to a worker, or run on the caller thread in
  /// inline mode (where the arena recycles one block).
  uint64_t blocks_dispatched = 0;
  uint64_t blocks_allocated = 0;   ///< Fresh block allocations (arena).
  uint64_t blocks_recycled = 0;    ///< Blocks reused from the arena.
  /// Times a shard worker found its ring empty and slept; edge-triggered
  /// wakes make this the count of condvar notifications that mattered.
  uint64_t worker_wakes = 0;
  /// Times IngestBatch blocked on a full shard ring (backpressure).
  uint64_t backpressure_waits = 0;
  /// Largest number of sealed blocks observed waiting in any single shard
  /// ring at enqueue time.
  std::size_t peak_queue_depth = 0;

  // --- overload / degradation (all zero under the default infinite
  // latency budget with no eps ladder and no fault injector) --------------
  uint64_t records_shed = 0;       ///< Records dropped at budget expiry.
  uint64_t shed_batches = 0;       ///< IngestBatch calls that shed >= 1 record.
  uint64_t shed_ring_full = 0;     ///< ...ring full under a zero budget.
  uint64_t shed_latency = 0;       ///< ...ring still full at budget expiry.
  uint64_t shed_rate_limited = 0;  ///< ...device over its token-bucket rate.
  uint64_t sessions_degraded = 0;  ///< Eps-ladder step-ups (cumulative).
  uint64_t sessions_recovered = 0; ///< Eps-ladder step-downs (cumulative).
  std::size_t degraded_sessions = 0; ///< Live sessions above base eps now.
  /// Widest error bound any session ever honored (== configured epsilon
  /// unless the eps ladder engaged); the fleet-wide guarantee.
  double max_error_bound = 0.0;
  uint64_t faults_injected = 0;    ///< FaultInjector firings the engine obeyed.
  /// Largest single-device run handed to one compressor dispatch — the
  /// per-device backlog watermark (a hot device shows up here first).
  std::size_t max_device_backlog = 0;
  /// Oldest live session's age in stream-time seconds, relative to the
  /// newest record its shard has seen, as observed at drain points.
  double max_session_age_seconds = 0.0;

  // --- WAL checkpointing (all zero without FleetEngineOptions::wal) ------
  uint64_t wal_checkpoints = 0;       ///< Acked WAL appends.
  uint64_t wal_points = 0;            ///< Key points inside acked appends.
  /// Appends the WAL refused (dead writer, I/O error). The affected points
  /// were delivered to the sink but are NOT durable in the log. Split by
  /// reason below: exactly one append trips the fsync gate (_io), every
  /// later refusal is the already-dead writer (_writer_dead).
  uint64_t wal_append_failures = 0;
  uint64_t wal_failures_io = 0;          ///< The append that hit the error.
  uint64_t wal_failures_writer_dead = 0; ///< Refused by a dead writer.

  // --- compaction (all zero without FleetEngineOptions::compactor) -------
  uint64_t compaction_runs = 0;      ///< CompactOnce calls that succeeded.
  uint64_t compaction_failures = 0;  ///< ...that failed (or found the
                                     ///< compactor already degraded).

  /// False as soon as the durability substrate is impaired: the WAL's
  /// fsync gate tripped, or the compactor degraded on persistent ENOSPC.
  /// Ingest and the sink keep working either way — this flag is how a
  /// monitor learns new data stopped being (fully) durable. True when no
  /// WAL is configured (nothing was promised, nothing is impaired).
  bool storage_healthy = true;

  /// Accounted footprint of live sessions (StateBytes + base charge).
  std::size_t state_bytes = 0;
  /// Sum over shards of each shard's own peak of state_bytes.
  /// Per-shard peaks need not co-occur, so this is an upper bound on the
  /// true simultaneous fleet peak, not the peak itself. Without a memory
  /// budget the accounting is lazy, so this tracks peaks as observed at
  /// Stats() calls and session events rather than after every run.
  std::size_t peak_state_bytes = 0;
  /// Sum of per-session DecisionStats (closed + live sessions); meaningful
  /// for the BQS family, all-zero otherwise.
  DecisionStats decisions;
};

/// Sums `s` into `into` (counters add; peaks take the max). The engine uses
/// it to fold per-session DecisionStats into the fleet aggregate.
void AccumulateDecisionStats(DecisionStats& into, const DecisionStats& s);

class FleetEngine {
 public:
  /// Fixed accounting charge per live session (map slot, compressor object,
  /// bookkeeping) on top of StreamCompressor::StateBytes().
  static constexpr std::size_t kSessionBaseBytes = 256;

  FleetEngine(const FleetEngineOptions& options, FleetSink& sink);
  /// Seals partial blocks and stops after draining queued work. Sessions
  /// still live are dropped without their closing key points — call
  /// FinishAll() first for a clean shutdown.
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Routes an interleaved batch into per-shard blocks, grouped by device
  /// (inline mode runs its block before returning). Per-device order is
  /// preserved. Blocks only on shard backpressure.
  void IngestBatch(std::span<const FleetRecord> records);

  /// Single-record convenience. Accumulates into the target shard's
  /// partial block like any other record.
  void Ingest(DeviceId device, const TrackPoint& pt);

  /// Finalizes `device`'s session (closing key points, then
  /// OnSessionEnd(kFinished)); asynchronous when sharded, immediate in
  /// inline mode. Pending records for the device are compressed first.
  /// No-op if the device has no live session by the time the command is
  /// processed.
  void FinishDevice(DeviceId device);

  /// Finalizes every live session and blocks until all output is emitted.
  void FinishAll();

  /// Seals partial blocks and blocks until every queued block has been
  /// processed (no finalization).
  void Flush();

  /// Seals partial blocks, drains in-flight work, then returns aggregate
  /// counters.
  ///
  /// Accounting modes (the lazy-vs-eager contract the stats tests pin):
  /// without a memory budget, live-session footprint is computed *lazily*
  /// — here, after the drain — so state_bytes is exact at return but
  /// peak_state_bytes only advances at Stats() calls and session events.
  /// With a budget the engine accounts *eagerly* after every run and the
  /// peak is run-accurate. Either way the snapshot reflects every record
  /// from ingests that happened-before this call (the drain guarantees
  /// visibility, Flush() likewise), and all cumulative counters —
  /// records_*, blocks_*, *_waits, shed/degrade counts, peaks — are
  /// monotone non-decreasing across snapshots.
  FleetStats Stats();

  /// Drains in-flight work, then appends every live session's staged key
  /// points to the WAL as one checkpoint per session, all in one
  /// KeyPointWal::AppendBatch() — the fleet-wide durability barrier
  /// (periodic snapshots, pre-shutdown flush), which pays the WAL's
  /// durability policy once. After it returns, every key point emitted by
  /// records that happened-before this call is either in the WAL (per its
  /// durability policy) or counted in wal_append_failures. No-op without a
  /// configured WAL.
  void CheckpointWal();

  const FleetEngineOptions& options() const { return options_; }
  /// Logical shard count: 1 in inline mode, num_shards otherwise.
  std::size_t num_shards() const { return shards_.size(); }
  bool inline_mode() const { return inline_; }

  /// Shard owning `device` (splitmix64 of the id, mod shard count).
  std::size_t ShardOf(DeviceId device) const;

 private:
  /// One slot of a shard's ingest ring: either a sealed routing block or a
  /// finalization command, in submission order.
  struct ShardCommand {
    enum class Kind : uint8_t { kBlock, kFinishDevice, kFinishAll };
    Kind kind = Kind::kBlock;
    DeviceId device = 0;           ///< kFinishDevice target.
    RecordBlock* block = nullptr;  ///< kBlock payload (arena-owned).
  };

  /// One live device stream.
  struct Session {
    std::unique_ptr<StreamCompressor> compressor;
    uint64_t last_active = 0;        ///< Shard activity clock at last record.
    double last_t = 0.0;             ///< Stream time of the last record.
    std::size_t accounted_bytes = 0; ///< Current charge (eager mode only).
    /// Eps-coarsening rung: 0 = base epsilon, k = eps_ladder[k-1] scale.
    uint32_t eps_level = 0;
    /// Key points emitted since the last WAL checkpoint (WAL mode only).
    /// Dropped, not checkpointed, if the engine is destroyed with the
    /// session live — same contract as the sink's closing key points.
    std::vector<KeyPoint> staged;
  };

  /// One shard: the producer-side routing state, the SPSC handoff, and the
  /// worker-owned session table.
  ///
  /// Ownership and visibility rules, in lieu of a queue mutex — each rule
  /// now a capability the analysis enforces:
  ///  - producer_role-guarded fields are touched only by the single API
  ///    caller thread (the engine's single-producer contract).
  ///  - worker_role-guarded fields are touched by the worker thread while
  ///    it runs commands — or by the caller thread after WaitIdle() proved
  ///    `completed == enqueued` (the seq_cst counter read gives the
  ///    happens-before edge; the next ring Push publishes any caller
  ///    writes back to the worker). WaitIdle's ASSERT_CAPABILITY is that
  ///    protocol, stated to the compiler. In inline mode there is no
  ///    worker and the caller holds both roles.
  struct Shard {
    Shard(std::size_t ring_depth, std::size_t block_capacity)
        : ring(ring_depth), arena(ring_depth, block_capacity) {}

    /// Capability of the single API-caller (routing) thread.
    ThreadRole producer_role;
    /// Capability of the dispatching thread: the shard worker, or the
    /// caller after WaitIdle / in inline mode.
    ThreadRole worker_role;

    // --- producer-side ------------------------------------------------------
    /// Partial block still accepting records.
    RecordBlock* filling GUARDED_BY(producer_role) = nullptr;
    /// Device -> group of `filling`; a new window per block.
    DeviceSlotMap slots;
    /// Commands successfully pushed.
    uint64_t enqueued GUARDED_BY(producer_role) = 0;
    uint64_t blocks_dispatched GUARDED_BY(producer_role) = 0;
    /// Max ring occupancy seen at enqueue.
    std::size_t peak_depth GUARDED_BY(producer_role) = 0;

    // --- overload (producer-side: shed decisions happen at seal time) ------
    /// Per-device admission buckets (device_rate_per_second > 0), refilled
    /// on record stream time so grants replay deterministically from the
    /// feed.
    std::unordered_map<DeviceId, DeviceTokenBucket> buckets
        GUARDED_BY(producer_role);
    /// Compaction scratch: each group's granted record count.
    std::vector<uint32_t> grants GUARDED_BY(producer_role);
    /// Monotone salt for seeded stochastic token rounding.
    uint64_t shed_events GUARDED_BY(producer_role) = 0;
    /// Shed accounting, mirrored into FleetStats at Stats() time.
    struct ShedCounters {
      uint64_t records = 0;       ///< Total records shed by this shard.
      uint64_t ring_full = 0;     ///< ...on a full ring under a zero budget.
      uint64_t latency = 0;       ///< ...after the latency budget expired.
      uint64_t rate_limited = 0;  ///< ...over the device token rate.
      uint64_t faults = 0;        ///< kRingFull firings obeyed.
    };
    ShedCounters shed GUARDED_BY(producer_role);

    // --- handoff ------------------------------------------------------------
    SpscRing<ShardCommand> ring;
    BlockArena arena;  ///< Producer acquires, worker releases.

    // --- idle protocol ------------------------------------------------------
    std::atomic<uint64_t> completed{0};  ///< Commands fully processed.
    std::atomic<bool> caller_waiting{false};
    Mutex idle_mu;
    std::condition_variable cv_idle;
    std::thread worker;

    // --- worker-owned (see visibility rules above) --------------------------
    std::unordered_map<DeviceId, Session> sessions GUARDED_BY(worker_role);
    /// Eviction index: last_active -> device (last_active values are
    /// unique, the activity clock is monotone). Maintained only under a
    /// memory budget; gives O(log S) LRU eviction instead of an O(S) scan.
    std::map<uint64_t, DeviceId> lru GUARDED_BY(worker_role);
    /// Where compressors append key points when no WAL is set (with one,
    /// they append straight into Session::staged); reused across calls.
    std::vector<KeyPoint> emit_scratch GUARDED_BY(worker_role);
    /// Bulk-close staging.
    std::vector<DeviceId> device_scratch GUARDED_BY(worker_role);
    /// FinishAll's checkpoint batch: the staged tails of the sessions it
    /// closes (moved out of them), their WAL entries and acks; reused.
    std::vector<std::pair<DeviceId, std::vector<KeyPoint>>> finish_tails
        GUARDED_BY(worker_role);
    std::vector<WalBatchEntry> finish_batch GUARDED_BY(worker_role);
    std::vector<Result<WalAppendAck>> finish_acks GUARDED_BY(worker_role);
    uint64_t activity_clock GUARDED_BY(worker_role) = 0;
    /// Newest record time seen.
    double max_stream_t GUARDED_BY(worker_role) = 0.0;
    bool has_stream_t GUARDED_BY(worker_role) = false;
    /// Live-session total (eager) or last Stats() snapshot (lazy).
    std::size_t state_bytes GUARDED_BY(worker_role) = 0;
    /// Closed-session aggregates.
    FleetStats counters GUARDED_BY(worker_role);
  };

  /// Trust point: the calling thread is the engine's single producer (the
  /// public-API contract), so it holds the shard's routing-side
  /// capabilities. Zero-cost; exists for the analysis.
  static void AssumeProducer(Shard& shard)
      ASSERT_CAPABILITY(shard.producer_role)
      ASSERT_CAPABILITY(shard.ring.producer_role)
      ASSERT_CAPABILITY(shard.arena.producer_role)
      ASSERT_CAPABILITY(shard.slots.owner_role) {
    (void)shard;
  }

  /// Trust point: the calling thread is the shard's dispatching thread —
  /// the worker loop, or the caller in inline mode (where there is no
  /// worker at all). The third way to hold worker_role, draining the shard
  /// first, is earned through WaitIdle(), not assumed.
  static void AssumeWorker(Shard& shard)
      ASSERT_CAPABILITY(shard.worker_role)
      ASSERT_CAPABILITY(shard.ring.consumer_role)
      ASSERT_CAPABILITY(shard.arena.consumer_role) {
    (void)shard;
  }

  /// Hands `cmd` to the shard's worker over the ring, or in inline mode
  /// runs it right here on the caller's thread.
  void Enqueue(Shard& shard, ShardCommand cmd)
      REQUIRES(shard.producer_role, shard.ring.producer_role);
  void Seal(Shard& shard)
      REQUIRES(shard.producer_role, shard.ring.producer_role);
  /// Seal on the IngestBatch path under a finite latency budget (sharded
  /// mode only): the only seal that may shed. A ring still full at
  /// `deadline` (TryPush when `has_deadline` is false, a zero budget)
  /// sheds instead of blocking. Flush/Finish/Stats use Seal() directly —
  /// draining never loses data.
  void SealForIngest(Shard& shard,
                     std::chrono::steady_clock::time_point deadline,
                     bool has_deadline)
      REQUIRES(shard.producer_role, shard.ring.producer_role,
               shard.slots.owner_role);
  /// Compacts shard.filling through the per-device token buckets
  /// (over-rate suffixes shed, survivors kept in place to re-queue with the
  /// next seal). Returns true when any record was shed.
  bool CompactByDevice(Shard& shard)
      REQUIRES(shard.producer_role, shard.slots.owner_role);
  void SealAll();
  /// Blocks until the shard has processed every enqueued command. The
  /// ASSERT_CAPABILITY is the idle protocol: a drained shard's worker is
  /// parked on an empty ring, so the caller thread owns the worker-side
  /// state until its next Enqueue.
  void WaitIdle(Shard& shard) ASSERT_CAPABILITY(shard.worker_role);
  void WorkerLoop(Shard& shard);
  /// Runs one command: the worker loop's body, and inline mode's whole
  /// dispatch.
  void Execute(Shard& shard, const ShardCommand& cmd)
      REQUIRES(shard.worker_role, shard.arena.consumer_role);
  void ProcessBlock(Shard& shard, const RecordBlock& block)
      REQUIRES(shard.worker_role);
  void DispatchRun(Shard& shard, DeviceId device,
                   std::span<const TrackPoint> points)
      REQUIRES(shard.worker_role);
  Session& SessionFor(Shard& shard, DeviceId device)
      REQUIRES(shard.worker_role);
  /// Post-run session bookkeeping: activity clock / LRU / stream time /
  /// eager accounting, each only when the configured feature needs it.
  void AfterRun(Shard& shard, Session& session, DeviceId device,
                double last_t) REQUIRES(shard.worker_role);
  void NoteStreamTime(Shard& shard, double t) REQUIRES(shard.worker_role);
  /// The vector a compressor call on `session` appends its key points to:
  /// the session's WAL staging buffer, or (no WAL) the shard's emptied
  /// scratch. Valid for one compressor call: the session table may rehash
  /// between calls.
  std::vector<KeyPoint>& EmitBuffer(Shard& shard, Session& session)
      REQUIRES(shard.worker_role);
  /// Hands `keys[from..]`, what the last compressor call appended, to the
  /// FleetSink in order and counts them.
  void ForwardKeyPoints(Shard& shard, DeviceId device,
                        const std::vector<KeyPoint>& keys, std::size_t from)
      REQUIRES(shard.worker_role);
  /// Ends `device`'s session. Its staged key points become one WAL
  /// checkpoint right away, or, with `tails`, move there for the caller to
  /// append in one batch.
  void CloseSession(
      Shard& shard, DeviceId device, SessionEndReason reason,
      std::vector<std::pair<DeviceId, std::vector<KeyPoint>>>* tails =
          nullptr) REQUIRES(shard.worker_role);
  /// FinishAll on one shard: closes every session, then appends all of
  /// their staged tails to the WAL as one batch (one write, and one sync
  /// under a per-batch policy), in session order.
  void FinishShard(Shard& shard) REQUIRES(shard.worker_role);
  /// Appends `session`'s staged key points to the WAL as one checkpoint
  /// (no-op when empty or WAL-less). Failures count, never propagate —
  /// the WAL is insurance, not the data path.
  void CheckpointSession(Shard& shard, DeviceId device, Session& session)
      REQUIRES(shard.worker_role);
  /// Counts one checkpoint of `points` key points' WAL outcome into the
  /// shard's counters. `writer_dead` says whether an earlier append
  /// already found the writer dead; an I/O failure sets it.
  void CountWalAck(Shard& shard, std::size_t points,
                   const Result<WalAppendAck>& ack, bool* writer_dead)
      REQUIRES(shard.worker_role);
  void EnforceBudget(Shard& shard) REQUIRES(shard.worker_role);
  void CloseIdleSessions(Shard& shard) REQUIRES(shard.worker_role);
  /// Moves `device`'s live session to eps-ladder rung `level`: closes the
  /// open compressed segment under the current bound, then continues the
  /// same stream on a compressor minted at the rung's scaled epsilon (the
  /// old compressor — and its heap — is destroyed). Counts a degrade or a
  /// recovery depending on direction and reports the new bound through
  /// FleetSink::OnErrorBoundChanged.
  void ReseatSession(Shard& shard, DeviceId device, Session& session,
                     uint32_t level) REQUIRES(shard.worker_role);
  /// kMidBatchEvict fault hook: force-closes `device`'s session with
  /// SessionEndReason::kEvicted when the armed injector fires.
  void MaybeInjectEvict(Shard& shard, DeviceId device)
      REQUIRES(shard.worker_role);

  FleetEngineOptions options_;
  FleetSink& sink_;
  CompressorFactory factory_;
  bool inline_ = false;
  bool eager_accounting_ = false;    ///< True iff a memory budget is set.
  /// Finite latency budget, sharded mode only: IngestBatch seals may shed.
  bool shedding_ = false;
  std::size_t per_shard_budget_ = 0; ///< 0 = unbounded.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Records refused because the configured algorithm is offline-only.
  /// Producer-thread only, like the rest of the ingest path.
  uint64_t records_dropped_ = 0;
  /// IngestBatch calls that shed >= 1 record; batch_shed_ is the per-call
  /// flag the shed paths set. Producer-thread only.
  uint64_t shed_batches_ = 0;
  bool batch_shed_ = false;
  /// CheckpointWal's batch (empty between barriers) and its acks, reused.
  /// Caller thread only.
  std::vector<WalBatchEntry> wal_batch_;
  std::vector<Result<WalAppendAck>> wal_acks_;
  /// Compaction outcomes (driven from CheckpointWal on the caller thread).
  uint64_t compaction_runs_ = 0;
  uint64_t compaction_failures_ = 0;
};

}  // namespace bqs

#endif  // BQS_SERVICE_FLEET_ENGINE_H_
