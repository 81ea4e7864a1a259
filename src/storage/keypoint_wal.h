// Durable key-point write-ahead log: the storage layer's crash-safety
// primitive for fleet ingest.
//
// The compressors throw away most of the input by design; the key points
// they *keep* are the only copy of the trajectory. A process crash between
// "compressor emitted the point" and "TrajectoryStore persisted it" loses
// paper-precious data. KeyPointWal closes that window: sessions append
// checkpoints (batches of emitted key points) to an append-only segmented
// log, and after a crash WalReader::Recover() replays every checkpoint
// that was acked — or says exactly what was lost, and why.
//
// Ack contract. Append() returning OK means the checkpoint is durable *to
// the level the configured WalDurability promises*:
//
//   kNone             in the writer's user-space buffer only; a process
//                     crash can lose it (cheapest; for tests and bulk jobs)
//   kFlushEveryBatch  handed to the OS (write(2)); survives a process
//                     crash, not a machine crash
//   kFsyncEveryBatch  fdatasync'd; survives power loss (the full contract)
//   kGroupCommit      handed to the OS immediately, fdatasync'd when
//                     group_commit_bytes accumulate or
//                     group_commit_interval_ms elapse — amortized
//                     durability with a bounded exposure window
//
// Fsync-gate semantics: any write or sync failure — real or injected —
// kills the writer permanently (dead() goes true, every later Append
// returns IoError). After a failed fsync the durable state of the file is
// unknowable (the kernel may have dropped the dirty pages), so continuing
// to ack would forge the contract above. The process-level analogue of
// "crash and recover" is: open a new KeyPointWal after running recovery.
//
// Recovery semantics (WalReader): segments replay in filename order,
// records in offset order. Per segment:
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
#include "storage/wal_format.h"
#include "trajectory/point.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)

/// How much durability an OK Append() promises. See the file comment.
enum class WalDurability : uint8_t {
  kNone,            ///< Buffered in user space; flushed at buffer_bytes.
  kFlushEveryBatch, ///< write(2) per append; survives process crash.
  kFsyncEveryBatch, ///< fdatasync per append; survives power loss.
  kGroupCommit,     ///< write(2) per append; fdatasync by bytes/time.
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

  /// kNone only: user-space buffer size that triggers a flush.
  std::size_t buffer_bytes = std::size_t{64} << 10;

  /// kGroupCommit: fdatasync once this many unsynced bytes accumulate...
  std::size_t group_commit_bytes = std::size_t{256} << 10;
  /// ...or this much wall time has passed since the last sync.
  double group_commit_interval_ms = 50.0;

  /// Deterministic fault injection for tests; nullptr in production. Sites
  /// consulted: kWriteShortAtByte (per flush), kFsyncFail (per sync),
  /// kCrashAfterWrite (per append). Must outlive the writer.
  FaultInjector* fault_injector = nullptr;
};

/// Writer-side counters, snapshotted via KeyPointWal::stats().
struct KeyPointWalStats {
  uint64_t checkpoints_appended = 0;  ///< Acked Append() calls.
  uint64_t points_appended = 0;       ///< Key points inside acked appends.
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

/// What an acked Append() promises, in replayable terms: the sequence the
/// record carries and where the segment stream ends once the record is
/// fully encoded. The crash-point sweep uses end_offset to know, for every
/// byte-level truncation, exactly which acked prefix must survive.
struct WalAppendAck {
  uint64_t seq = 0;
  uint64_t segment_index = 0;    ///< 1-based segment file number.
  uint64_t end_offset = 0;       ///< Segment byte size after this record.
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

  /// Quantizes and appends one checkpoint for `device`, assigning the next
  /// sequence number. OK means durable per the configured WalDurability
  /// (the ack contract above). InvalidArgument, with nothing written and
  /// the writer still alive, for an empty checkpoint or one whose record
  /// payload would exceed wal::kMaxRecordPayload.
  Result<WalAppendAck> Append(DeviceId device, std::span<const KeyPoint> keys);

  /// Appends an already-quantized checkpoint (seq is still writer-assigned;
  /// checkpoint.seq is ignored). The hook the round-trip fuzzer and the
  /// format tests drive directly.
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
  /// Sequence the next acked Append() will carry.
  uint64_t next_seq() const;
  /// 1-based index of the segment currently being appended to (0 before
  /// Open()). The compactor's bound: passing this to CompactOnce() drains
  /// every *sealed* segment and leaves the active one alone.
  uint64_t current_segment_index() const;
  KeyPointWalStats stats() const;
  const KeyPointWalOptions& options() const { return options_; }

 private:
  Status AppendLocked(DeviceId device, std::span<const wal::WalPoint> points,
                      WalAppendAck* ack) REQUIRES(mu_);
  Status OpenSegmentLocked() REQUIRES(mu_);
  Status RotateLocked() REQUIRES(mu_);
  /// Hands the user-space buffer to the OS (kWriteShortAtByte hook).
  Status FlushLocked() REQUIRES(mu_);
  /// fdatasync (kFsyncFail hook). Precondition: buffer already flushed.
  Status SyncLocked() REQUIRES(mu_);
  Status WriteFully(const char* data, std::size_t size) REQUIRES(mu_);
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
  std::string payload_scratch_ GUARDED_BY(mu_);  ///< Record payload, reused.
  std::string scratch_ GUARDED_BY(mu_);  ///< Framed record, reused.
  /// Quantized-point staging for Append(), reused.
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
struct WalSegmentFile {
  uint64_t index = 0;
  std::string path;
};

/// Segment files under `dir`, sorted by index. Foreign names are ignored
/// silently; two dirty-directory shapes are quarantined *deterministically*
/// and reported through `ignored` (when non-null):
///   * stale "*.tmp" files — debris of a crashed atomic publication;
///   * duplicate segment indices ("wal-1.log" vs "wal-000001.log" both
///     parse to 1): the lexicographically smallest path wins, the rest are
///     ignored — replaying both would double every record in them.
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

  /// Replays every segment under `dir` in filename order. IoError only for
  /// environmental failures (unreadable directory or file); corruption is
  /// never an error — it is what the report is for.
  static Result<WalRecovery> Recover(const std::string& dir);
};

}  // namespace bqs

#endif  // BQS_STORAGE_KEYPOINT_WAL_H_
