// Crash-consistent compaction: drains sealed WAL segments into columnar
// key-point block files and publishes them through the atomic MANIFEST —
// plus the two consumers of the result, recovery and range queries.
//
// The state machine (one CompactOnce() run):
//
//     [cleanup]   quarantine stale *.tmp and unreferenced blk-*.bqb
//        |        (leftovers of a previous crash; deleting them is safe
//        v         because nothing unpublished is ever the only copy)
//     [scan]      read MANIFEST watermark; replay sealed WAL segments;
//        |        keep checkpoints with seq > watermark
//        v
//     [write blk] encode per-device column runs -> blk-N.bqb.tmp, fsync
//        |
//        v
//     [publish blk]  rename -> blk-N.bqb, fsync dir
//        |
//        v
//     [write manifest]  MANIFEST.tmp (new watermark + new file), fsync
//        |
//        v
//     [publish manifest]  rename -> MANIFEST, fsync dir   <-- commit point
//        |
//        v
//     [delete WAL]  unlink consumed segments, one by one, fsync dir
//
// Crash anywhere above the commit point: the old MANIFEST still rules,
// the WAL still holds everything, and the next run's cleanup removes the
// debris. Crash anywhere after it: the new MANIFEST rules and surviving
// consumed segments are below the watermark, so recovery's union
// (blocks ∪ WAL-above-watermark) is exact either way — no duplicates, no
// losses. The compaction_crash_sweep_test kills a run at every transition
// (FaultSite::kCompactionCrashAt, param = transition index) and at every
// MANIFEST byte-truncation offset and asserts exactly that.
//
// Every I/O step runs under the deterministic retry/backoff policy
// (common/backoff.h). Transient failures retry; persistent ENOSPC
// (classified by manifest.h's IsEnospc) flips the compactor into degraded
// mode: CompactOnce becomes a fast no-op error, the WAL keeps ingesting,
// and FleetEngine surfaces storage_healthy=false — degrade-and-continue,
// never fail ingest. ResetDegraded() re-arms once space is back.
//
// Threading: CompactOnce/stats are serialized by an internal mutex; the
// engine drives compaction from its checkpoint barrier, one run at a
// time. RecoverStore and BlockStore touch no writer state.
#ifndef BQS_STORAGE_COMPACTION_H_
#define BQS_STORAGE_COMPACTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "geometry/vec2.h"
#include "storage/grid_index.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"
#include "trajectory/point.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)

struct CompactionOptions {
  /// The WAL directory to drain (KeyPointWalOptions::dir).
  std::string wal_dir;
  /// Where block files + MANIFEST live; created by the first run. May be
  /// the WAL directory itself (the name families never collide).
  std::string block_dir;

  /// Split a device's run into blocks of at most this many points (whole
  /// checkpoints — one oversized checkpoint makes one oversized block).
  /// Smaller blocks prune better; larger ones delta-code denser.
  std::size_t max_points_per_block = 4096;

  /// Retry discipline for every I/O step, seeded so schedules replay.
  BackoffPolicy backoff;
  uint64_t backoff_seed = 0xb4c0ffULL;
  BackoffSleepFn sleep = nullptr;  ///< Null: retry without sleeping.
  void* sleep_ctx = nullptr;

  /// Deterministic fault injection for tests; nullptr in production.
  /// Sites consulted: kCompactionCrashAt (param = transition index),
  /// kRenameFail, kEnospc. Must outlive the compactor.
  FaultInjector* fault_injector = nullptr;
};

struct CompactionStats {
  uint64_t runs_started = 0;
  uint64_t runs_completed = 0;
  uint64_t runs_failed = 0;   ///< I/O failure after retries (not crashes).
  uint64_t runs_crashed = 0;  ///< Aborted by an injected crash point.
  uint64_t segments_consumed = 0;  ///< Sealed segments read by a run.
  uint64_t segments_deleted = 0;
  uint64_t checkpoints_compacted = 0;
  uint64_t points_compacted = 0;
  uint64_t checkpoints_already_compacted = 0;  ///< Below-watermark, skipped.
  uint64_t block_files_written = 0;
  uint64_t blocks_written = 0;
  uint64_t block_bytes_written = 0;
  uint64_t orphan_tmp_removed = 0;
  uint64_t orphan_blocks_removed = 0;
  uint64_t io_retries = 0;      ///< Backoff attempts beyond the first.
  uint64_t enospc_events = 0;   ///< Steps that exhausted retries on ENOSPC.
  StatusCode last_error_code = StatusCode::kOk;
  std::string last_error;
};

class Compactor {
 public:
  explicit Compactor(const CompactionOptions& options);

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// One full state-machine run over sealed segments with index strictly
  /// below `max_segment_exclusive` (pass the writer's
  /// current_segment_index() to leave the active segment alone;
  /// UINT64_MAX compacts everything, for a closed WAL). A run with
  /// nothing new to do is a successful no-op. In degraded mode returns
  /// the degradation error without touching disk. A block that would
  /// exceed blk::kMaxBlockPayload fails the run with InvalidArgument
  /// before anything is published (the WAL keeps its checkpoints).
  Status CompactOnce(uint64_t max_segment_exclusive = UINT64_MAX);

  /// True after persistent ENOSPC: the compactor refuses further runs so
  /// ingest (the WAL) keeps the disk budget. See ResetDegraded().
  bool degraded() const;

  /// Clears degraded mode — call after space has been reclaimed.
  void ResetDegraded();

  CompactionStats stats() const;
  const CompactionOptions& options() const { return options_; }

 private:
  Status CompactOnceLocked(uint64_t max_segment_exclusive) REQUIRES(mu_);

  const CompactionOptions options_;
  mutable Mutex mu_;
  bool degraded_ GUARDED_BY(mu_) = false;
  CompactionStats stats_ GUARDED_BY(mu_);
};

// --- recovery -------------------------------------------------------------

/// Accounting for the block/manifest side of a store recovery (the WAL
/// side keeps its own WalRecoveryReport).
struct StoreRecoveryReport {
  bool manifest_found = false;    ///< A MANIFEST file existed.
  bool manifest_corrupt = false;  ///< ...but failed to decode: fell back
                                  ///< to scanning block files directly.
  uint64_t block_files_read = 0;
  uint64_t block_files_unreadable = 0;  ///< Referenced but missing/bad.
  uint64_t blocks_decoded = 0;
  uint64_t blocks_corrupt = 0;
  uint64_t checkpoints_from_blocks = 0;
  uint64_t checkpoints_from_wal = 0;
  /// WAL checkpoints already covered by blocks (below the watermark, or
  /// seq-matched in the manifest-less fallback). Expected after a crash
  /// between manifest publication and segment deletion — not a loss.
  uint64_t duplicates_dropped = 0;
  uint64_t orphan_tmp_files = 0;     ///< Stale *.tmp seen (left in place).
  uint64_t unreferenced_blocks = 0;  ///< Published but not in the manifest.

  /// True iff every byte of storage state was accounted for cleanly.
  bool clean() const {
    return !manifest_corrupt && block_files_unreadable == 0 &&
           blocks_corrupt == 0;
  }
};

/// Everything RecoverStore() gives back. `wal.checkpoints` holds the full
/// reconstructed acked prefix — block contents ∪ surviving WAL tail,
/// seq-sorted, duplicate-free — with `wal.quant`/`wal.next_seq` set from
/// the union, so TrajectoryStore::RestoreFromWal consumes it unchanged.
/// `wal.report` covers only the WAL segments actually replayed.
struct StoreRecovery {
  WalRecovery wal;
  StoreRecoveryReport report;
};

/// Reconstructs the exact acked prefix from MANIFEST + blocks + surviving
/// WAL, no matter where a compaction or ingest process died. IoError only
/// for environmental failures; corruption is reported, never fatal.
Result<StoreRecovery> RecoverStore(const std::string& wal_dir,
                                   const std::string& block_dir);

// --- range queries off compressed blocks ----------------------------------

struct RangeQueryStats {
  uint64_t blocks_total = 0;      ///< Live blocks in the store.
  uint64_t grid_candidates = 0;   ///< Survived the grid-index sweep.
  uint64_t blocks_pruned = 0;     ///< Rejected by exact bbox/time test.
  uint64_t blocks_decoded = 0;    ///< Actually read + decoded.
  uint64_t points_scanned = 0;    ///< Points inside decoded blocks.
  uint64_t points_returned = 0;
};

/// Read-only view over a published block directory: answers
/// spatio-temporal range queries off the compressed blocks, decoding only
/// the ones whose bounding box can intersect the query.
///
/// Pruning is two-staged: a GridIndex over block-bbox centers (queried
/// with the radius inflated by the largest block half-diagonal, so it can
/// never miss an intersecting block) narrows to candidates, then the
/// exact circle-vs-bbox + time-span test decides what to decode. Returned
/// key points are dequantized; each is within quantum/2 per axis of what
/// the compressor emitted, so results inherit the combined
/// eps + quantum/2 error bound end to end.
class BlockStore {
 public:
  /// Reads the MANIFEST and builds the pruning index. NotFound when no
  /// manifest exists, Corruption when it fails to decode.
  static Result<BlockStore> Open(const std::string& block_dir);

  /// Appends key points within `radius` of `center` (Euclidean) whose
  /// timestamp lies in [t_min, t_max]. Decodes only matching blocks.
  Status Query(Vec2 center, double radius, double t_min, double t_max,
               std::vector<KeyPoint>* out,
               RangeQueryStats* stats = nullptr) const;

  const Manifest& manifest() const { return manifest_; }
  std::size_t block_count() const { return blocks_.size(); }
  uint64_t last_applied_seq() const { return manifest_.last_applied_seq; }

 private:
  struct BlockRef {
    std::size_t file_slot = 0;  ///< Index into manifest_.files.
    uint64_t offset = 0;
    uint64_t bytes = 0;  ///< Frame extent: up to the next block's offset.
    blk::BlockMeta meta;
  };

  BlockStore(std::string dir, Manifest manifest, double cell_size);

  std::string dir_;
  Manifest manifest_;
  std::vector<BlockRef> blocks_;
  GridIndex grid_;       ///< id = index into blocks_, pos = bbox center.
  double inflate_ = 0.0; ///< Largest block half-diagonal, metres.
};

}  // namespace bqs

#endif  // BQS_STORAGE_COMPACTION_H_
