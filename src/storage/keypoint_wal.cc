#include "storage/keypoint_wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/fault_injector.h"
#include "storage/codec.h"
#include "storage/file_io.h"

namespace bqs {

namespace {

/// kNone: user-space buffer size that triggers a flush.
constexpr std::size_t kBufferBytes = std::size_t{64} << 10;

/// kGroupCommit: unsynced record bytes that trigger an fdatasync.
constexpr std::size_t kGroupCommitBytes = std::size_t{256} << 10;

}  // namespace

// --- writer ---------------------------------------------------------------

KeyPointWal::KeyPointWal(const KeyPointWalOptions& options)
    : options_(options) {}

KeyPointWal::~KeyPointWal() { (void)Close(); }

Status KeyPointWal::Open(uint64_t first_seq) {
  MutexLock lock(mu_);
  if (open_) return Status::Internal("wal already open");
  if (dead_) return Status::IoError("key-point wal is dead");
  if (options_.dir.empty()) {
    return Status::InvalidArgument("wal dir is empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("create " + options_.dir + ": " + ec.message());
  }
  // Existing segments are recovery's property: their tails may be torn, so
  // this writer starts a fresh segment numbered past all of them.
  uint64_t max_index = 0;
  Result<std::vector<WalSegmentFile>> existing = ListWalSegments(options_.dir);
  if (!existing.ok()) return existing.status();
  for (const WalSegmentFile& file : existing.value()) {
    max_index = std::max(max_index, file.index);
  }
  segment_index_ = max_index;  // OpenSegmentLocked() pre-increments
  next_seq_ = first_seq == 0 ? 1 : first_seq;
  last_sync_ = std::chrono::steady_clock::now();
  BQS_RETURN_NOT_OK(OpenSegmentLocked());
  open_ = true;
  return Status::OK();
}

void KeyPointWal::AppendBatch(std::span<const WalBatchEntry> batch,
                              std::vector<Result<WalAppendAck>>* acks) {
  acks->clear();
  MutexLock lock(mu_);
  Status st = WritableLocked();
  for (std::size_t i = 0; i < batch.size() && st.ok(); ++i) {
    points_scratch_.clear();
    points_scratch_.reserve(batch[i].keys.size());
    for (const KeyPoint& key : batch[i].keys) {
      points_scratch_.push_back(wal::Quantize(key, options_.quant));
    }
    WalAppendAck ack;
    const Status staged = StageLocked(batch[i].device, points_scratch_, &ack);
    if (staged.ok()) {
      acks->push_back(ack);
    } else if (staged.code() == StatusCode::kInvalidArgument) {
      acks->push_back(staged);  // this entry only; the writer is alive
    } else {
      st = staged;
    }
  }
  if (st.ok() && pending_.checkpoints > 0) st = CommitLocked();
  if (!st.ok()) {
    pending_ = Pending{};  // a dead writer acks nothing more
    acks->assign(batch.size(), st);
  }
}

Result<WalAppendAck> KeyPointWal::Append(DeviceId device,
                                         std::span<const KeyPoint> keys) {
  const WalBatchEntry entry{device, keys};
  std::vector<Result<WalAppendAck>> acks;
  AppendBatch({&entry, 1}, &acks);
  return std::move(acks.front());
}

Result<WalAppendAck> KeyPointWal::AppendCheckpoint(
    const wal::WalCheckpoint& checkpoint) {
  MutexLock lock(mu_);
  BQS_RETURN_NOT_OK(WritableLocked());
  WalAppendAck ack;
  BQS_RETURN_NOT_OK(StageLocked(checkpoint.device, checkpoint.points, &ack));
  BQS_RETURN_NOT_OK(CommitLocked());
  return ack;
}

Status KeyPointWal::WritableLocked() const {
  if (dead_) return Status::IoError("key-point wal is dead (fsync gate)");
  if (!open_) return Status::Internal("wal not open");
  return Status::OK();
}

Status KeyPointWal::StageLocked(DeviceId device,
                                std::span<const wal::WalPoint> points,
                                WalAppendAck* ack) {
  if (points.empty()) {
    return Status::InvalidArgument("empty wal checkpoint");
  }
  payload_scratch_.clear();
  wal::EncodeRecordPayload(device, next_seq_, points, &payload_scratch_);
  scratch_.clear();
  if (!codec::AppendFrame(payload_scratch_, wal::kMaxRecordPayload,
                          &scratch_)) {
    // An input error, not an I/O one: nothing was written and the writer
    // stays alive. Acking it would be worse — recovery would take the
    // oversized length for framing loss and drop the record.
    return Status::InvalidArgument(
        "wal checkpoint of " + std::to_string(points.size()) +
        " points encodes past the record payload limit");
  }

  // Rotate on the boundary *before* a record that would overflow the
  // segment — a record is never split across segments, so an oversized one
  // simply makes its segment oversized.
  const uint64_t logical = segment_written_ + buffer_.size();
  if (logical + scratch_.size() > options_.segment_bytes &&
      logical > wal::kSegmentHeaderBytes) {
    BQS_RETURN_NOT_OK(RotateLocked());
  }
  buffer_.append(scratch_);

  ack->seq = next_seq_++;
  ack->segment_index = segment_index_;
  ack->end_offset = segment_written_ + buffer_.size();
  ++pending_.checkpoints;
  pending_.points += points.size();
  pending_.bytes += scratch_.size();
  return Status::OK();
}

Status KeyPointWal::CommitLocked() {
  const Pending batch = std::exchange(pending_, Pending{});
  switch (options_.durability) {
    case WalDurability::kNone:
      if (buffer_.size() >= kBufferBytes) {
        BQS_RETURN_NOT_OK(FlushLocked());
      }
      break;
    case WalDurability::kFlushEveryBatch:
      BQS_RETURN_NOT_OK(FlushLocked());
      break;
    case WalDurability::kFsyncEveryBatch:
      BQS_RETURN_NOT_OK(FlushLocked());
      BQS_RETURN_NOT_OK(SyncLocked());
      break;
    case WalDurability::kGroupCommit: {
      BQS_RETURN_NOT_OK(FlushLocked());
      bool due = unsynced_bytes_ >= kGroupCommitBytes;
      if (!due && options_.group_commit_interval_ms >= 0.0) {
        const auto elapsed =
            std::chrono::steady_clock::now() - last_sync_;
        due = std::chrono::duration<double, std::milli>(elapsed).count() >=
              options_.group_commit_interval_ms;
      }
      if (due) BQS_RETURN_NOT_OK(SyncLocked());
      break;
    }
  }

  if (FaultInjector* const injector = options_.fault_injector) {
    if (injector->ShouldFire(FaultSite::kCrashAfterWrite)) {
      // The batch went out per policy; the "process" dies right here:
      // user-space bytes not yet written vanish, nothing more is flushed
      // or synced, and the batch is not acked (a real crash loses the
      // acks in flight the same way).
      ++stats_.faults_injected;
      buffer_.clear();
      const Status st = Status::IoError("injected crash after write");
      MarkDeadLocked(st);
      return st;
    }
  }

  stats_.checkpoints_appended += batch.checkpoints;
  stats_.points_appended += batch.points;
  stats_.bytes_appended += batch.bytes;
  return Status::OK();
}

Status KeyPointWal::OpenSegmentLocked() {
  ++segment_index_;
  const std::string path =
      options_.dir + "/" + NumberedFileName(kWalSegmentFiles, segment_index_);
  // O_EXCL: Open() numbered this segment past every existing one, so a
  // collision means two writers own the directory — refuse, don't clobber.
  const int fd =
      ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  fd_ = fd;
  segment_written_ = 0;
  ++stats_.segments_opened;
  // The header rides the normal buffered path so the policy's write and
  // fault behavior applies to it like to any record bytes.
  codec::EncodeFileHeader(wal::kWalMagic, {options_.quant, next_seq_, 0},
                          &buffer_);
  if (options_.durability != WalDurability::kNone) {
    BQS_RETURN_NOT_OK(FlushLocked());
  }
  if (options_.durability == WalDurability::kFsyncEveryBatch ||
      options_.durability == WalDurability::kGroupCommit) {
    // Make the new directory entry itself durable: a crash that keeps the
    // inode but loses the name loses the data with it. Best-effort — the
    // data-path fsyncs are what gate the acks.
    (void)FsyncDir(options_.dir);
  }
  return Status::OK();
}

Status KeyPointWal::RotateLocked() {
  BQS_RETURN_NOT_OK(FlushLocked());
  if (options_.durability == WalDurability::kFsyncEveryBatch ||
      options_.durability == WalDurability::kGroupCommit) {
    // The segment is closed for good: its contents must be at the policy's
    // full durability before the writer moves on and never looks back.
    BQS_RETURN_NOT_OK(SyncLocked());
  }
  if (fd_ >= 0) {
    (void)::close(fd_);  // data already flushed/synced per policy
    fd_ = -1;
  }
  return OpenSegmentLocked();
}

Status KeyPointWal::FlushLocked() {
  if (buffer_.empty()) return Status::OK();
  if (FaultInjector* const injector = options_.fault_injector) {
    if (injector->ShouldFire(FaultSite::kWriteShortAtByte)) {
      // Torn write: the first `cut` pending bytes reach the OS, the rest
      // never will. Modulo pending+1 so a sweep's param can land anywhere
      // from "nothing written" to "all but the ack".
      ++stats_.faults_injected;
      const std::size_t cut = static_cast<std::size_t>(
          injector->param(FaultSite::kWriteShortAtByte) %
          (buffer_.size() + 1));
      const Status st = WriteFully(fd_, {buffer_.data(), cut}, "write");
      if (st.ok()) {
        segment_written_ += cut;
        unsynced_bytes_ += cut;
      }
      buffer_.clear();
      const Status dead_st = Status::IoError("injected short write after " +
                                             std::to_string(cut) + " bytes");
      MarkDeadLocked(dead_st);
      return dead_st;
    }
  }
  const Status st = WriteFully(fd_, buffer_, "write");
  if (!st.ok()) {
    MarkDeadLocked(st);
    return st;
  }
  segment_written_ += buffer_.size();
  unsynced_bytes_ += buffer_.size();
  buffer_.clear();
  ++stats_.flushes;
  return Status::OK();
}

Status KeyPointWal::SyncLocked() {
  if (FaultInjector* const injector = options_.fault_injector) {
    if (injector->ShouldFire(FaultSite::kFsyncFail)) {
      ++stats_.faults_injected;
      const Status st = Status::IoError("injected fsync failure");
      MarkDeadLocked(st);
      return st;
    }
  }
  if (fd_ >= 0 && ::fdatasync(fd_) != 0) {
    const Status st = ErrnoStatus("fdatasync");
    MarkDeadLocked(st);
    return st;
  }
  unsynced_bytes_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  ++stats_.syncs;
  return Status::OK();
}

void KeyPointWal::MarkDeadLocked(const Status& cause) {
  // The fsync gate: after a failed (or injected-failed) write or sync the
  // durable state is unknowable, so the writer never acks again. The
  // descriptor is closed without sync — trusting it further would be the
  // exact mistake the gate exists to prevent.
  dead_ = true;
  stats_.last_error_code =
      cause.ok() ? StatusCode::kIoError : cause.code();
  stats_.last_error = cause.message();
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

Status KeyPointWal::Sync() {
  MutexLock lock(mu_);
  if (dead_) return Status::IoError("key-point wal is dead (fsync gate)");
  if (!open_) return Status::Internal("wal not open");
  BQS_RETURN_NOT_OK(FlushLocked());
  return SyncLocked();
}

Status KeyPointWal::Close() {
  MutexLock lock(mu_);
  if (!open_) return Status::OK();
  open_ = false;
  if (dead_) return Status::OK();  // error already reported at the append
  Status st = FlushLocked();
  if (st.ok() && (options_.durability == WalDurability::kFsyncEveryBatch ||
                  options_.durability == WalDurability::kGroupCommit)) {
    st = SyncLocked();
  }
  if (fd_ >= 0) {
    if (::close(fd_) != 0 && st.ok()) st = ErrnoStatus("close");
    fd_ = -1;
  }
  return st;
}

bool KeyPointWal::dead() const {
  MutexLock lock(mu_);
  return dead_;
}

uint64_t KeyPointWal::next_seq() const {
  MutexLock lock(mu_);
  return next_seq_;
}

uint64_t KeyPointWal::current_segment_index() const {
  MutexLock lock(mu_);
  return segment_index_;
}

KeyPointWalStats KeyPointWal::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

// --- recovery -------------------------------------------------------------

Result<std::vector<WalSegmentFile>> ListWalSegments(
    const std::string& dir, std::vector<std::string>* ignored) {
  Result<NumberedListing> listed = ListNumberedFiles(dir, kWalSegmentFiles);
  if (!listed.ok()) return listed.status();
  NumberedListing& listing = listed.value();
  if (ignored != nullptr) {
    ignored->insert(ignored->end(), listing.temps.begin(),
                    listing.temps.end());
    for (WalSegmentFile& duplicate : listing.duplicates) {
      ignored->push_back(std::move(duplicate.path));
    }
  }
  return std::move(listing.files);
}

void WalReader::RecoverSegment(std::span<const uint8_t> segment, bool is_last,
                               std::vector<wal::WalCheckpoint>* out,
                               WalRecoveryReport* report) {
  ++report->segments_scanned;
  if (segment.empty()) return;  // crash before the header: clean, no data
  codec::FileHeader header;
  if (!codec::DecodeFileHeader(segment, wal::kWalMagic, &header)) {
    // Nothing after an untrusted header can be framed: drop the segment.
    ++report->segments_bad_header;
    report->bytes_dropped += segment.size();
    return;
  }
  std::size_t offset = codec::kFileHeaderBytes;
  while (offset < segment.size()) {
    const std::size_t rem = segment.size() - offset;
    const codec::Frame frame =
        codec::ParseFrame(segment.subspan(offset), wal::kMaxRecordPayload);
    switch (frame.status) {
      case codec::FrameStatus::kOk:
        break;
      case codec::FrameStatus::kShortHeader:
        ++report->short_header;  // partial record header: a torn final write
        report->bytes_dropped += rem;
        return;
      case codec::FrameStatus::kBadLength:
        // Implausible or overrunning length: framing is lost and there is
        // no way to resynchronize, in any segment. Everything from here on
        // is a torn (or trashed) tail.
        ++report->torn_tail;
        report->bytes_dropped += rem;
        return;
      case codec::FrameStatus::kBadCrc:
        if (is_last) {
          // The crashed-mid-write shape: truncate at the first bad CRC.
          // (An isolated flip earlier in the live segment truncates too —
          // torn and flipped are indistinguishable without a seal record.)
          ++report->torn_tail;
          report->bytes_dropped += rem;
          return;
        }
        // Closed segment: the writer sealed it whole, so a bad CRC here is
        // isolated media corruption. Skip the record, keep replaying.
        ++report->bad_crc;
        report->bytes_dropped += frame.size;
        offset += frame.size;
        continue;
    }
    wal::WalCheckpoint checkpoint;
    if (!wal::DecodeRecordPayload(frame.payload, &checkpoint)) {
      // CRC-valid but undecodable: an encoder bug or a crafted record.
      // The framing is still trustworthy, so only this record is lost.
      ++report->bad_varint;
      report->bytes_dropped += frame.size;
      offset += frame.size;
      continue;
    }
    out->push_back(std::move(checkpoint));
    ++report->records_recovered;
    offset += frame.size;
  }
}

Result<WalRecovery> WalReader::Recover(const std::string& dir,
                                      uint64_t max_segment_exclusive,
                                      std::vector<WalSegmentFile>* replayed) {
  Result<std::vector<WalSegmentFile>> segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  const std::vector<WalSegmentFile>& files = segments.value();
  WalRecovery recovery;
  std::string bytes;
  for (const WalSegmentFile& file : files) {
    if (file.index >= max_segment_exclusive) break;  // files are sorted
    const Status read = ReadFileBytes(file.path, &bytes);
    // A segment listed a moment ago and gone now is not a missing log.
    if (!read.ok()) return Status::IoError(read.message());
    const std::span<const uint8_t> image = AsBytes(bytes);
    codec::FileHeader header;
    if (codec::DecodeFileHeader(image, wal::kWalMagic, &header)) {
      recovery.quant = header.quant;  // newest valid header wins
      recovery.next_seq = std::max(recovery.next_seq, header.seq);
    }
    // Only the directory's final segment gets torn-tail truncation, so a
    // bounded replay reads exactly what a full one reads of its segments.
    RecoverSegment(image, /*is_last=*/file.index == files.back().index,
                   &recovery.checkpoints, &recovery.report);
    if (replayed != nullptr) replayed->push_back(file);
  }
  for (const wal::WalCheckpoint& checkpoint : recovery.checkpoints) {
    if (checkpoint.seq != UINT64_MAX &&
        checkpoint.seq >= recovery.next_seq) {
      recovery.next_seq = checkpoint.seq + 1;
    }
  }
  return recovery;
}

}  // namespace bqs
