// Durable key-point write-ahead log: the storage layer's crash-safety
// primitive for fleet ingest.
//
// The compressors throw away most of the input by design; the key points
// they *keep* are the only copy of the trajectory. A process crash between
// "compressor emitted the point" and "the compactor drained it into a
// BlockStore file" (storage/compaction.h) loses paper-precious data.
// KeyPointWal closes that window: sessions append checkpoints (batches of
// emitted key points) to an append-only segmented log, and after a crash
// WalReader::Recover() replays every checkpoint that was acked — or says
// exactly what was lost, and why.
//
// Ack contract. One append call is one batch: AppendBatch() takes any
// number of checkpoints, Append() and AppendCheckpoint() are batches of
// one. Each checkpoint is its own record with its own sequence number, so
// the bytes on disk do not depend on how checkpoints were batched. The
// durability policy runs once per batch, after all of its records are
// encoded, and an acked checkpoint is durable *to the level the configured
// WalDurability promises*:
//
//   kNone             in the writer's user-space buffer only, flushed once
//                     64 KiB accumulate; a process crash can lose it
//                     (cheapest; for tests and bulk jobs)
//   kFlushEveryBatch  the batch is handed to the OS before any of it is
//                     acked, in one write(2) plus one per segment rotation
//                     inside it; survives a process crash, not a machine
//                     crash
//   kFsyncEveryBatch  the batch is fdatasync'd before any of it is acked;
//                     survives power loss (the full contract)
//   kGroupCommit      the batch is handed to the OS before it is acked,
//                     and fdatasync'd once 256 KiB of unsynced records
//                     accumulate or group_commit_interval_ms elapse (checked
//                     once per batch, after its write) — amortized
//                     durability with a bounded exposure window
//
// A batch acks whole or not at all: a write or sync failure anywhere in it
// fails every checkpoint in it, even those whose bytes a segment rotation
// already wrote (recovery may return them; it never returns less than was
// acked).
//
// Fsync-gate semantics: any write or sync failure — real or injected —
// kills the writer permanently (dead() goes true, every later Append
// returns IoError). After a failed fsync the durable state of the file is
// unknowable (the kernel may have dropped the dirty pages), so continuing
// to ack would forge the contract above. The process-level analogue of
// "crash and recover" is: open a new KeyPointWal after running recovery.
//
// Segment names, directory listing, whole-file reads, the write loop and
// the directory fsync are the shared file layer (storage/file_io.h).
//
// Recovery semantics (WalReader): segments replay in index order, records
// in offset order. Per segment:
//   * unreadable/garbled segment header -> the whole segment is skipped
//     (segments_bad_header; an empty file is clean, not an error);
//   * a record whose CRC fails in the *last* segment -> torn tail: the log
//     is truncated at that record (torn_tail) — the classic crashed-mid-
//     write shape, nothing after it can be trusted;
//   * a record whose CRC fails in a *closed* segment -> isolated media
//     corruption: that record is skipped (bad_crc) and replay continues at
//     the next length-prefixed boundary;
//   * a length prefix that is implausible (> kMaxRecordPayload) or runs
//     past the segment -> framing is gone; the rest of the segment is
//     dropped (torn_tail);
//   * fewer than 8 bytes left at the segment end -> partial record header
//     (short_header);
//   * a CRC-valid record whose payload fails varint decode -> bad_varint,
//     skipped (the framing is still trustworthy).
// Every byte of every segment ends up either inside a recovered record or
// counted in bytes_dropped — the crash-point sweep test asserts that
// identity at every possible truncation offset. Recover() never crashes
// on arbitrary bytes (the fuzz_wal_recovery harness's invariant).
//
// Threading: Append/Sync/Close are safe to call from any thread (shard
// workers checkpoint concurrently); an internal mutex serializes them.
// Recovery is single-threaded and static — it touches no writer state.
#ifndef BQS_STORAGE_KEYPOINT_WAL_H_
#define BQS_STORAGE_KEYPOINT_WAL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/file_io.h"
#include "storage/wal_format.h"
#include "trajectory/point.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)

/// How much durability an acked checkpoint has; the policy runs once per
/// append call (one batch). See the file comment.
enum class WalDurability : uint8_t {
  kNone,            ///< Buffered in user space; flushed at 64 KiB.
  kFlushEveryBatch, ///< write(2) per batch; survives process crash.
  kFsyncEveryBatch, ///< fdatasync per batch; survives power loss.
  kGroupCommit,     ///< write(2) per batch; fdatasync at 256 KiB/time.
};

struct KeyPointWalOptions {
  /// Directory holding the segment files; created (recursively) by Open().
  std::string dir;

  WalDurability durability = WalDurability::kFlushEveryBatch;

  /// Quantization stamped into every segment header. Changing it between
  /// runs over the same directory is unsupported (recovery dequantizes
  /// with the newest header's quanta); start a fresh directory instead.
  wal::WalQuantization quant;

  /// Rotate to a new segment once the current one reaches this size. A
  /// single oversized record still goes out whole (rotation happens on
  /// the boundary before it).
  std::size_t segment_bytes = std::size_t{4} << 20;

  /// kGroupCommit: fdatasync once 256 KiB of unsynced records accumulate,
  /// or once this much wall time has passed since the last sync (negative:
  /// by bytes only).
  double group_commit_interval_ms = 50.0;

  /// Deterministic fault injection for tests; nullptr in production. Sites
  /// consulted: kWriteShortAtByte (per flush), kFsyncFail (per sync),
  /// kCrashAfterWrite (per batch, after its policy ran). Must outlive the
  /// writer.
  FaultInjector* fault_injector = nullptr;
};

/// Writer-side counters, snapshotted via KeyPointWal::stats().
struct KeyPointWalStats {
  uint64_t checkpoints_appended = 0;  ///< Acked checkpoints.
  uint64_t points_appended = 0;       ///< Key points inside acked ones.
  uint64_t bytes_appended = 0;        ///< Record bytes encoded (not headers).
  uint64_t segments_opened = 0;
  uint64_t flushes = 0;               ///< write(2) batches handed to the OS.
  uint64_t syncs = 0;                 ///< Successful fdatasync calls.
  uint64_t faults_injected = 0;       ///< Injector firings the writer obeyed.
  /// What killed the writer, when dead: the fsync-gate cause, recorded at
  /// the moment of death so a monitor sees *why* without scraping append
  /// errors. kOk/empty while healthy.
  StatusCode last_error_code = StatusCode::kOk;
  std::string last_error;

  /// True while the fsync gate has not tripped (the snapshot-side view of
  /// KeyPointWal::dead(), so one stats() call answers "is it fine and if
  /// not, why not").
  bool healthy() const { return last_error_code == StatusCode::kOk; }
};

/// What an acked checkpoint promises, in replayable terms: the sequence
/// the record carries and where the segment stream ends once the record is
/// fully encoded. The crash-point sweep uses end_offset to know, for every
/// byte-level truncation, exactly which acked prefix must survive.
struct WalAppendAck {
  uint64_t seq = 0;
  uint64_t segment_index = 0;    ///< 1-based segment file number.
  uint64_t end_offset = 0;       ///< Segment byte size after this record.
};

/// One checkpoint of an AppendBatch() call: `keys` for `device`.
struct WalBatchEntry {
  DeviceId device = 0;
  std::span<const KeyPoint> keys;
};

class KeyPointWal {
 public:
  explicit KeyPointWal(const KeyPointWalOptions& options);
  /// Best-effort Close(); errors are swallowed (call Close() to see them).
  ~KeyPointWal();

  KeyPointWal(const KeyPointWal&) = delete;
  KeyPointWal& operator=(const KeyPointWal&) = delete;

  /// Creates the directory if needed and opens a fresh segment numbered
  /// past any existing one (existing segments are never appended to —
  /// their tails may be torn, and recovery owns them). `first_seq` seeds
  /// the sequence counter; pass WalRecovery::next_seq when resuming a
  /// directory after recovery.
  Status Open(uint64_t first_seq = 1);

  /// Quantizes and appends every entry of `batch` as its own checkpoint
  /// record, in order, with consecutive sequence numbers: the bytes, seqs
  /// and rotation points of one single-entry call per entry. The
  /// durability policy then runs once for the whole batch. `acks` is
  /// cleared and gets one result per entry: the ack once the batch is
  /// durable per the configured WalDurability (the ack contract above), or
  /// the IoError that failed the batch, for every entry of a failed batch.
  /// An empty entry, or one whose record payload would exceed
  /// wal::kMaxRecordPayload, gets InvalidArgument: nothing of it is
  /// written, it takes no sequence number, and the rest of the batch goes
  /// on with the writer still alive.
  void AppendBatch(std::span<const WalBatchEntry> batch,
                   std::vector<Result<WalAppendAck>>* acks);

  /// Quantizes and appends one checkpoint for `device`: a batch of one.
  Result<WalAppendAck> Append(DeviceId device, std::span<const KeyPoint> keys);

  /// Appends an already-quantized checkpoint as a batch of one (seq is
  /// still writer-assigned; checkpoint.seq is ignored). The hook the
  /// round-trip fuzzer and the format tests drive directly.
  Result<WalAppendAck> AppendCheckpoint(const wal::WalCheckpoint& checkpoint);

  /// Flushes the user-space buffer and fdatasyncs, regardless of policy.
  Status Sync();

  /// Flushes, then syncs under kFsyncEveryBatch/kGroupCommit (matching the
  /// policy's promise; call Sync() first for more), then closes the file.
  /// Idempotent; a dead writer closes its descriptor and returns OK (the
  /// error was already reported by the append that died).
  Status Close();

  /// True once a write or sync failed (real or injected): the fsync gate.
  bool dead() const;
  /// Sequence the next acked checkpoint will carry.
  uint64_t next_seq() const;
  /// 1-based index of the segment currently being appended to (0 before
  /// Open()). The compactor's bound: passing this to CompactOnce() drains
  /// every *sealed* segment and leaves the active one alone.
  uint64_t current_segment_index() const;
  KeyPointWalStats stats() const;
  const KeyPointWalOptions& options() const { return options_; }

 private:
  /// OK while the writer can append: open and not dead.
  Status WritableLocked() const REQUIRES(mu_);
  /// Encodes one record into the buffer, rotating first when it would
  /// overflow the segment, and counts it in pending_. InvalidArgument with
  /// nothing changed for an empty or oversized record; any other error
  /// comes from a rotation and has killed the writer.
  Status StageLocked(DeviceId device, std::span<const wal::WalPoint> points,
                     WalAppendAck* ack) REQUIRES(mu_);
  /// Runs the durability policy and the kCrashAfterWrite site once for
  /// every record staged since the last commit. OK acks them all (pending_
  /// moves into stats_); an error has killed the writer.
  Status CommitLocked() REQUIRES(mu_);
  Status OpenSegmentLocked() REQUIRES(mu_);
  Status RotateLocked() REQUIRES(mu_);
  /// Hands the user-space buffer to the OS (kWriteShortAtByte hook).
  Status FlushLocked() REQUIRES(mu_);
  /// fdatasync (kFsyncFail hook). Precondition: buffer already flushed.
  Status SyncLocked() REQUIRES(mu_);
  void MarkDeadLocked(const Status& cause) REQUIRES(mu_);

  const KeyPointWalOptions options_;

  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  bool open_ GUARDED_BY(mu_) = false;
  bool dead_ GUARDED_BY(mu_) = false;
  uint64_t segment_index_ GUARDED_BY(mu_) = 0;
  /// Bytes of the current segment already written to the OS.
  uint64_t segment_written_ GUARDED_BY(mu_) = 0;
  /// Encoded-but-unwritten bytes (kNone batching; transient otherwise).
  std::string buffer_ GUARDED_BY(mu_);
  /// Bytes written since the last successful fdatasync.
  uint64_t unsynced_bytes_ GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point last_sync_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  KeyPointWalStats stats_ GUARDED_BY(mu_);
  /// Records staged but not yet committed (acked) in the current batch.
  struct Pending {
    uint64_t checkpoints = 0;
    uint64_t points = 0;
    uint64_t bytes = 0;
  };
  Pending pending_ GUARDED_BY(mu_);
  std::string payload_scratch_ GUARDED_BY(mu_);  ///< Record payload, reused.
  std::string scratch_ GUARDED_BY(mu_);  ///< Framed record, reused.
  /// Quantized-point staging for AppendBatch(), reused.
  std::vector<wal::WalPoint> points_scratch_ GUARDED_BY(mu_);
};

/// Per-reason accounting of what recovery replayed and what it could not.
/// The invariant the crash tests gate on: every byte of every scanned
/// segment is either inside a record counted in records_recovered or
/// counted in bytes_dropped — loss is never silent.
struct WalRecoveryReport {
  uint64_t segments_scanned = 0;
  /// Segments whose header was missing or garbled; their entire contents
  /// (all bytes past offset 0) go to bytes_dropped. Empty files are clean.
  uint64_t segments_bad_header = 0;
  uint64_t records_recovered = 0;
  /// Tail-truncation events: a CRC-failed record in the last segment, or
  /// lost framing (implausible/overrunning length) in any segment. Counts
  /// events, not records — the torn region's record count is unknowable.
  uint64_t torn_tail = 0;
  /// CRC-failed records skipped individually in closed segments.
  uint64_t bad_crc = 0;
  /// CRC-valid records whose payload failed to decode; skipped.
  uint64_t bad_varint = 0;
  /// Partial (< 8 byte) record header at the end of a segment's data.
  uint64_t short_header = 0;
  /// Bytes not attributable to any recovered record.
  uint64_t bytes_dropped = 0;

  /// Countable records lost (excludes records inside torn regions).
  uint64_t records_skipped() const { return bad_crc + bad_varint; }
  /// Loss events of any kind.
  uint64_t loss_events() const {
    return segments_bad_header + torn_tail + bad_crc + bad_varint +
           short_header;
  }
  /// True iff the log replayed with no loss of any kind.
  bool clean() const { return loss_events() == 0 && bytes_dropped == 0; }
};

/// Everything Recover() gives back.
struct WalRecovery {
  std::vector<wal::WalCheckpoint> checkpoints;  ///< In replay order.
  WalRecoveryReport report;
  /// Quantization from the newest valid segment header (defaults if none).
  wal::WalQuantization quant;
  /// Safe seed for KeyPointWal::Open() on the same directory: one past the
  /// highest sequence seen (recovered records and segment headers both).
  uint64_t next_seq = 1;
};

/// One "wal-NNNNNN.log" file found in a WAL directory.
using WalSegmentFile = NumberedFile;

/// Segment files under `dir`, sorted by index: ListNumberedFiles() over
/// the "wal-" family (storage/file_io.h). Foreign names are ignored
/// silently; two dirty-directory shapes are quarantined *deterministically*
/// and reported through `ignored` (when non-null):
///   * stale "*.tmp" files — debris of a crashed atomic publication;
///   * duplicate segment indices ("wal-1.log" vs "wal-000001.log" both
///     parse to 1): the canonical name wins, else the lexicographically
///     smallest path; the rest are ignored — replaying both would double
///     every record in them.
/// NotFound when the directory does not exist.
Result<std::vector<WalSegmentFile>> ListWalSegments(
    const std::string& dir, std::vector<std::string>* ignored = nullptr);

class WalReader {
 public:
  /// Replays one whole segment image (header included). `is_last` selects
  /// torn-tail truncation (last segment) vs isolated-corruption skipping
  /// (closed segments) on CRC failure. Appends recovered checkpoints to
  /// `out` and accumulates into `report`. Total: consumes arbitrary bytes
  /// without crashing — the fuzzer drives this exact entry point.
  static void RecoverSegment(std::span<const uint8_t> segment, bool is_last,
                             std::vector<wal::WalCheckpoint>* out,
                             WalRecoveryReport* report);

  /// Replays the segments under `dir` with index below
  /// `max_segment_exclusive` (all of them by default), in index order, and
  /// appends each one replayed to `replayed` when non-null. Only the
  /// directory's final segment gets torn-tail truncation, whatever the
  /// bound, so the compactor's bounded replay reads exactly what recovery
  /// reads. NotFound when `dir` does not exist; IoError only for other
  /// environmental failures (unreadable directory or file); corruption is
  /// never an error — it is what the report is for.
  static Result<WalRecovery> Recover(
      const std::string& dir, uint64_t max_segment_exclusive = UINT64_MAX,
      std::vector<WalSegmentFile>* replayed = nullptr);
};

}  // namespace bqs

#endif  // BQS_STORAGE_KEYPOINT_WAL_H_
