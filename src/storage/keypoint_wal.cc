#include "storage/keypoint_wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/fault_injector.h"
#include "storage/codec.h"

namespace bqs {

namespace {

std::string SegmentFileName(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(index));
  return buf;
}

/// Parses "wal-NNNNNN.log" (any digit count) into its index; false for
/// every other name — foreign files in the directory are simply ignored.
bool ParseSegmentFileName(const std::string& name, uint64_t* index) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  const std::string digits =
      name.substr(kPrefix.size(),
                  name.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty() || digits.size() > 19) return false;  // > 19: overflow
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = value;
  return true;
}

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Reads a whole file into `out`. Segments are bounded by the writer's
/// rotation threshold, so whole-file images are the right granularity for
/// recovery (and what RecoverSegment wants anyway).
Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("open " + path + " for read failed");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("size " + path + " failed");
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(out->data(), size)) {
    return Status::IoError("read " + path + " failed");
  }
  return Status::OK();
}

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

Result<WalAppendAck> KeyPointWal::Append(DeviceId device,
                                         std::span<const KeyPoint> keys) {
  MutexLock lock(mu_);
  points_scratch_.clear();
  points_scratch_.reserve(keys.size());
  for (const KeyPoint& key : keys) {
    points_scratch_.push_back(wal::Quantize(key, options_.quant));
  }
  WalAppendAck ack;
  const Status st = AppendLocked(device, points_scratch_, &ack);
  if (!st.ok()) return st;
  return ack;
}

Result<WalAppendAck> KeyPointWal::AppendCheckpoint(
    const wal::WalCheckpoint& checkpoint) {
  MutexLock lock(mu_);
  WalAppendAck ack;
  const Status st = AppendLocked(checkpoint.device, checkpoint.points, &ack);
  if (!st.ok()) return st;
  return ack;
}

Status KeyPointWal::AppendLocked(DeviceId device,
                                 std::span<const wal::WalPoint> points,
                                 WalAppendAck* ack) {
  if (dead_) return Status::IoError("key-point wal is dead (fsync gate)");
  if (!open_) return Status::Internal("wal not open");
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

  switch (options_.durability) {
    case WalDurability::kNone:
      if (buffer_.size() >= options_.buffer_bytes) {
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
      bool due = unsynced_bytes_ >= options_.group_commit_bytes;
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
      // The record went out per policy; the "process" dies right here:
      // user-space bytes not yet written vanish, nothing more is flushed
      // or synced, and the append is not acked (a real crash loses the
      // ack in flight the same way).
      ++stats_.faults_injected;
      buffer_.clear();
      const Status st = Status::IoError("injected crash after write");
      MarkDeadLocked(st);
      return st;
    }
  }

  ack->seq = next_seq_++;
  ack->segment_index = segment_index_;
  ack->end_offset = segment_written_ + buffer_.size();
  ++stats_.checkpoints_appended;
  stats_.points_appended += points.size();
  stats_.bytes_appended += scratch_.size();
  return Status::OK();
}

Status KeyPointWal::OpenSegmentLocked() {
  ++segment_index_;
  const std::string path =
      options_.dir + "/" + SegmentFileName(segment_index_);
  // O_EXCL: Open() numbered this segment past every existing one, so a
  // collision means two writers own the directory — refuse, don't clobber.
  const int fd =
      ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open " + path);
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
    const int dirfd =
        ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dirfd >= 0) {
      (void)::fsync(dirfd);
      (void)::close(dirfd);
    }
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
      const Status st = WriteFully(buffer_.data(), cut);
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
  const Status st = WriteFully(buffer_.data(), buffer_.size());
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
    const Status st = ErrnoError("fdatasync");
    MarkDeadLocked(st);
    return st;
  }
  unsynced_bytes_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  ++stats_.syncs;
  return Status::OK();
}

Status KeyPointWal::WriteFully(const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write");
    }
    done += static_cast<std::size_t>(n);
  }
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
    if (::close(fd_) != 0 && st.ok()) st = ErrnoError("close");
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
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound("wal dir " + dir + " does not exist");
    }
    return Status::IoError("list " + dir + ": " + ec.message());
  }
  std::vector<WalSegmentFile> out;
  const std::filesystem::directory_iterator end;
  while (it != end) {
    const std::filesystem::directory_entry& entry = *it;
    const std::string name = entry.path().filename().string();
    uint64_t index = 0;
    if (ParseSegmentFileName(name, &index)) {
      out.push_back(WalSegmentFile{index, entry.path().string()});
    } else if (ignored != nullptr && name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Debris of a crashed atomic publication sharing the directory.
      ignored->push_back(entry.path().string());
    }
    it.increment(ec);
    if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  }
  // Index order; ties (e.g. "wal-1.log" vs "wal-000001.log") broken by
  // path so the winner is the same on every filesystem.
  std::sort(out.begin(), out.end(),
            [](const WalSegmentFile& a, const WalSegmentFile& b) {
              return a.index != b.index ? a.index < b.index : a.path < b.path;
            });
  // Duplicate indices carry the same records twice (a copy, a hard link, a
  // renamed zero-pad); replaying both would double-count. Keep the first
  // per index, quarantine the rest.
  std::size_t w = 0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (w > 0 && out[r].index == out[w - 1].index) {
      if (ignored != nullptr) ignored->push_back(std::move(out[r].path));
      continue;
    }
    if (w != r) out[w] = std::move(out[r]);
    ++w;
  }
  out.resize(w);
  return out;
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

Result<WalRecovery> WalReader::Recover(const std::string& dir) {
  Result<std::vector<WalSegmentFile>> segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  const std::vector<WalSegmentFile>& files = segments.value();
  WalRecovery recovery;
  std::string bytes;
  for (std::size_t i = 0; i < files.size(); ++i) {
    BQS_RETURN_NOT_OK(ReadFileBytes(files[i].path, &bytes));
    const std::span<const uint8_t> image(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    codec::FileHeader header;
    if (codec::DecodeFileHeader(image, wal::kWalMagic, &header)) {
      recovery.quant = header.quant;  // newest valid header wins
      recovery.next_seq = std::max(recovery.next_seq, header.seq);
    }
    RecoverSegment(image, /*is_last=*/i + 1 == files.size(),
                   &recovery.checkpoints, &recovery.report);
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
