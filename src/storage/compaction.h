// Crash-consistent compaction: drains sealed WAL segments into columnar
// key-point block files and publishes them through the atomic MANIFEST —
// plus the two consumers of the result, recovery and range queries.
//
// The state machine (one CompactOnce() run):
//
//     [cleanup]   create the block dir, read the MANIFEST; quarantine
//        |        stale *.tmp and unreferenced blk-*.bqb (leftovers of a
//        |        previous crash; deleting them is safe because nothing
//        |        unpublished is ever the only copy)
//        v
//     [scan]      list and replay sealed WAL segments; keep checkpoints
//        |        with seq > the MANIFEST's watermark
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
// Cleanup runs on a compactor's first run and after any run that failed
// or crashed, and is skipped otherwise: the compactor keeps the MANIFEST
// it last read or published in memory. That is safe because the compactor
// is the MANIFEST's only writer (one compactor per block directory), so
// after a successful run its copy is what is on disk, and a run that
// succeeds leaves no *.tmp or unreferenced block behind — every orphan a
// live compactor could find comes from a run that failed, and that run
// re-arms cleanup. The scan still lists the WAL directory on every run,
// so no sealed segment on disk is missed. A run with nothing to drain
// thus costs one WAL directory listing, whatever the store's size.
//
// Every I/O step is tried up to kCompactionAttempts times, back to back
// with no delay: the steps are idempotent, and an attempt count (never a
// clock) bounds the loop, so a fault schedule replays exactly. Transient
// failures retry; persistent ENOSPC (classified by file_io.h's IsEnospc)
// flips the compactor into degraded mode: CompactOnce becomes a fast no-op
// error, the WAL keeps ingesting, and FleetEngine surfaces
// storage_healthy=false — degrade-and-continue, never fail ingest.
// ResetDegraded() re-arms once space is back.
//
// Threading: CompactOnce/stats are serialized by an internal mutex; the
// engine drives compaction from its checkpoint barrier, one run at a
// time. RecoverStore and BlockStore touch no writer state.
#ifndef BQS_STORAGE_COMPACTION_H_
#define BQS_STORAGE_COMPACTION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "geometry/vec2.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"
#include "trajectory/point.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)

/// Tries per compaction I/O step, including the first; a step still
/// failing after the last one fails the run.
inline constexpr uint32_t kCompactionAttempts = 4;

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
  uint64_t io_retries = 0;      ///< Step attempts beyond the first.
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
  /// The MANIFEST this compactor last read or published. Trusted, and the
  /// cleanup step skipped, only while manifest_current_: from the end of
  /// a successful run until a run fails or crashes.
  Manifest manifest_ GUARDED_BY(mu_);
  bool manifest_current_ GUARDED_BY(mu_) = false;
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
  /// Checkpoints dropped as copies of one already recovered: WAL
  /// checkpoints covered by blocks (below the watermark, or seq-matched in
  /// the manifest-less fallback), and block checkpoints whose seq an
  /// earlier block file already supplied (a block file copied under another
  /// name). The first is expected after a crash between manifest
  /// publication and segment deletion — neither is a loss.
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
/// the union, in the same shape a plain WAL replay returns.
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
  uint64_t grid_candidates = 0;   ///< Blocks whose time span overlaps the
                                  ///< window (the name predates per-block
                                  ///< pruning; no grid is left).
  uint64_t blocks_pruned = 0;     ///< Candidates the circle-vs-bbox test
                                  ///< rejects: pruned + decoded ==
                                  ///< grid_candidates.
  uint64_t blocks_decoded = 0;    ///< Surviving blocks whose zones were
                                  ///< walked.
  uint64_t zones_pruned = 0;      ///< Zones of those blocks that the same
                                  ///< two tests rejected.
  uint64_t points_scanned = 0;    ///< Points of the zones that passed:
                                  ///< every point examined.
  uint64_t points_returned = 0;
};

/// Read-only view over a published block directory: answers
/// spatio-temporal range queries off the compressed blocks, scanning only
/// the runs of points whose time span and bounding box can intersect the
/// query.
///
/// Open() reads every referenced block file once and verifies each block
/// the way recovery does (frame CRC, the paranoid payload decode, and the
/// manifest-metadata cross-check), then keeps the dequantized key points
/// in memory as columns t, x, y and index (32 B per stored key point),
/// plus one time span and bbox per zone: a run of kZonePoints consecutive
/// points of one block, the last zone of a block possibly shorter (3 B
/// per point more at 16). O(store bytes) to open. Queries touch only
/// memory: no file I/O, no CRC, no allocation per block. A block that
/// fails to load does not fail Open(); its error (IoError for an
/// unreadable file, Corruption for a short or damaged block) is returned
/// by every query that cannot prune it, while queries that prune it still
/// answer.
///
/// A query is one pass over the blocks' dequantized bounds in block-id
/// (manifest) order: the time-span overlap test, then the exact
/// circle-vs-bbox test, decide which blocks to walk. Within a surviving
/// block the same two tests decide which zones to scan, so time-sorted
/// and unsorted blocks (FleetRecord promises stream order, not time
/// order) prune alike, and only the points of passing zones are read.
/// Results come in block order, each block's points in stored order.
/// Returned key points are dequantized, with zero velocity; each is
/// within quantum/2 per axis (so within coord_quantum·√2/2 in the plane)
/// of what the compressor emitted, and results inherit the combined
/// eps + coord_quantum·√2/2 error bound end to end.
class BlockStore {
 public:
  /// Points per zone, the unit a query prunes inside a block. Of 8, 16
  /// and 32, 16 gave the fastest queries on random-walk stores.
  static constexpr std::size_t kZonePoints = 16;

  /// Reads the MANIFEST and every block it references. NotFound when no
  /// manifest exists, Corruption when it fails to decode; damaged blocks
  /// are reported per query instead.
  static Result<BlockStore> Open(const std::string& block_dir);

  /// Appends key points within `radius` of `center` (Euclidean) whose
  /// timestamp lies in [t_min, t_max]. Scans only matching zones.
  /// InvalidArgument for a non-finite argument or a negative radius.
  Status Query(Vec2 center, double radius, double t_min, double t_max,
               std::vector<KeyPoint>* out,
               RangeQueryStats* stats = nullptr) const;

  const Manifest& manifest() const { return manifest_; }
  std::size_t block_count() const { return blocks_.size(); }
  uint64_t last_applied_seq() const { return manifest_.last_applied_seq; }

 private:
  /// A block's or a zone's time span and bbox, in seconds and metres. A
  /// block's comes from its metadata, a zone's from its dequantized
  /// points, so each holds every point it covers exactly.
  struct Bounds {
    double t0, t1, x0, x1, y0, y1;
  };
  struct BlockRef {
    std::size_t begin = 0;  ///< The block's key points: [begin, end).
    std::size_t end = 0;
    std::size_t zone_begin = 0;  ///< Its first zone; one per kZonePoints.
    Status status;  ///< Why the block could not be loaded; OK when it was.
  };
  /// Every loaded block's key points, in order, in fixed-size chunks:
  /// point i is entry i % kChunkPoints of chunk i / kChunkPoints, and only
  /// the last chunk has unused room. A chunk stays below malloc's mmap
  /// threshold, so reopening a store reuses the chunks the last one freed.
  /// One array of the whole store would be mmapped instead, and freeing it
  /// raises glibc's dynamic mmap and trim thresholds, after which the heap
  /// keeps that much freed memory resident.
  static constexpr std::size_t kChunkPoints = 2048;
  struct Chunk {
    double t[kChunkPoints];
    double x[kChunkPoints];
    double y[kChunkPoints];
    uint64_t index[kChunkPoints];
  };
  static_assert(sizeof(Chunk) < 128 * 1024,
                "a chunk must stay below glibc's default mmap threshold");

  explicit BlockStore(Manifest manifest) : manifest_(std::move(manifest)) {}

  Manifest manifest_;
  std::vector<Bounds> bounds_;  ///< Parallel to blocks_; the block filter.
  std::vector<BlockRef> blocks_;
  std::vector<Bounds> zones_;  ///< Every loaded block's zones, in order.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t point_count_ = 0;
};

}  // namespace bqs

#endif  // BQS_STORAGE_COMPACTION_H_
