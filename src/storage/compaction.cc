#include "storage/compaction.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <system_error>
#include <utility>

#include "common/fault_injector.h"
#include "storage/codec.h"

namespace bqs {

namespace {

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

/// Best-effort directory fsync (same stance as the WAL writer: data-path
/// fsyncs gate the contract, the directory sync narrows the window).
void FsyncDirBestEffort(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    (void)::close(dirfd);
  }
}

/// The crash-point ladder: At() is consulted at every state-machine
/// transition, in execution order. When the armed kCompactionCrashAt
/// param matches the current transition index, the run "dies" — At()
/// returns (and latches) an IoError and every later consultation
/// short-circuits to it, so retries cannot resurrect a crashed run.
struct CrashGate {
  FaultInjector* injector = nullptr;
  uint64_t counter = 0;
  bool crashed = false;
  Status status;

  Status At() {
    if (crashed) return status;
    const uint64_t point = counter++;
    if (injector != nullptr &&
        injector->param(FaultSite::kCompactionCrashAt) == point &&
        injector->ShouldFire(FaultSite::kCompactionCrashAt)) {
      crashed = true;
      status = Status::IoError("injected compaction crash at transition " +
                               std::to_string(point));
      return status;
    }
    return Status::OK();
  }
};

/// Decodes the block frame at the start of `bytes`; `frame_bytes` gets
/// the span the frame occupies. Shared by recovery's block walk and the
/// query path.
Status DecodeBlockFrame(std::span<const uint8_t> bytes,
                        const std::string& path, std::size_t* frame_bytes,
                        blk::BlockMeta* meta,
                        std::vector<wal::WalCheckpoint>* out) {
  const codec::Frame frame = codec::ParseFrame(bytes, blk::kMaxBlockPayload);
  if (frame.status != codec::FrameStatus::kOk) {
    return Status::Corruption("bad block frame in " + path);
  }
  if (!blk::DecodeBlockPayload(frame.payload, meta, out)) {
    return Status::Corruption("block payload decode failed in " + path);
  }
  *frame_bytes = frame.size;
  return Status::OK();
}

}  // namespace

// --- compactor ------------------------------------------------------------

Compactor::Compactor(const CompactionOptions& options) : options_(options) {}

bool Compactor::degraded() const {
  MutexLock lock(mu_);
  return degraded_;
}

void Compactor::ResetDegraded() {
  MutexLock lock(mu_);
  degraded_ = false;
}

CompactionStats Compactor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Status Compactor::CompactOnce(uint64_t max_segment_exclusive) {
  MutexLock lock(mu_);
  if (degraded_) {
    return Status::IoError(
        "compactor degraded (persistent ENOSPC); wal-only mode");
  }
  return CompactOnceLocked(max_segment_exclusive);
}

Status Compactor::CompactOnceLocked(uint64_t max_segment_exclusive) {
  FaultInjector* const injector = options_.fault_injector;
  CrashGate gate;
  gate.injector = injector;
  // Seeded per run so every run replays its own schedule: the sweep can
  // re-execute run k and see identical retry timing.
  Backoff backoff(options_.backoff,
                  options_.backoff_seed + stats_.runs_started,
                  options_.sleep, options_.sleep_ctx);
  ++stats_.runs_started;

  // Every I/O step goes through here: bounded deterministic retries, a
  // crashed gate short-circuits re-attempts (a dead process retries
  // nothing), and retry counts exclude crash-aborted steps.
  const auto step = [&](auto&& op) -> Status {
    const uint64_t before = backoff.attempts();
    const Status st = backoff.Run([&]() -> Status {
      if (gate.crashed) return gate.status;
      return op();
    });
    if (!gate.crashed && backoff.attempts() > before) {
      stats_.io_retries += backoff.attempts() - before - 1;
    }
    return st;
  };
  const auto fail = [&](const Status& st) -> Status {
    if (gate.crashed) {
      ++stats_.runs_crashed;
    } else {
      ++stats_.runs_failed;
      stats_.last_error_code = st.code();
      stats_.last_error = st.message();
      if (IsEnospc(st)) {
        ++stats_.enospc_events;
        degraded_ = true;  // degrade-and-continue: ingest stays WAL-only
      }
    }
    return st;
  };

  // [cleanup] -- block dir, current manifest, stale temp/orphan files.
  Manifest manifest;
  bool have_manifest = false;
  Status st = step([&]() -> Status {
    have_manifest = false;
    manifest = Manifest{};
    std::error_code ec;
    std::filesystem::create_directories(options_.block_dir, ec);
    if (ec) {
      return Status::IoError("create " + options_.block_dir + ": " +
                             ec.message());
    }
    const Status ms = ReadManifest(options_.block_dir, &manifest);
    if (ms.ok()) {
      have_manifest = true;
      return Status::OK();
    }
    // No manifest yet is the fresh-directory case; corruption is not ours
    // to paper over — compacting on top of an untrusted watermark could
    // delete WAL bytes not provably in blocks. Refuse and report.
    if (ms.code() == StatusCode::kNotFound) return Status::OK();
    return ms;
  });
  if (!st.ok()) return fail(st);

  st = step([&]() -> Status {
    uint64_t tmp_removed = 0, orphans_removed = 0;
    std::set<uint64_t> referenced;
    for (const ManifestBlockFile& file : manifest.files) {
      referenced.insert(file.file_id);
    }
    std::error_code ec;
    std::filesystem::directory_iterator it(options_.block_dir, ec);
    if (ec) {
      return Status::IoError("list " + options_.block_dir + ": " +
                             ec.message());
    }
    const std::filesystem::directory_iterator end;
    std::vector<std::filesystem::path> doomed;
    while (it != end) {
      const std::string name = it->path().filename().string();
      uint64_t id = 0;
      if (name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".tmp") == 0) {
        doomed.push_back(it->path());
        ++tmp_removed;
      } else if (ParseBlockFileName(name, &id) &&
                 referenced.find(id) == referenced.end()) {
        // Published but never referenced: a crash landed between block
        // and manifest publication. The WAL still holds its contents
        // (segments are deleted only after the manifest rename), so the
        // orphan is redundant bytes, not data.
        doomed.push_back(it->path());
        ++orphans_removed;
      }
      it.increment(ec);
      if (ec) {
        return Status::IoError("list " + options_.block_dir + ": " +
                               ec.message());
      }
    }
    for (const std::filesystem::path& path : doomed) {
      std::filesystem::remove(path, ec);
      if (ec) {
        return Status::IoError("remove " + path.string() + ": " +
                               ec.message());
      }
    }
    stats_.orphan_tmp_removed += tmp_removed;
    stats_.orphan_blocks_removed += orphans_removed;
    return Status::OK();
  });
  if (!st.ok()) return fail(st);
  if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // T0: cleaned up

  // [scan] -- sealed segments below the bound; keep what the manifest
  // does not already cover.
  std::vector<WalSegmentFile> consumed;
  std::vector<wal::WalCheckpoint> fresh;
  wal::WalQuantization quant = manifest.quant;
  uint64_t already = 0;
  st = step([&]() -> Status {
    consumed.clear();
    fresh.clear();
    already = 0;
    Result<std::vector<WalSegmentFile>> listed =
        ListWalSegments(options_.wal_dir);
    if (!listed.ok()) {
      if (listed.status().code() == StatusCode::kNotFound) {
        return Status::OK();  // no WAL directory: nothing to drain
      }
      return listed.status();
    }
    const std::vector<WalSegmentFile>& all = listed.value();
    for (const WalSegmentFile& file : all) {
      if (file.index < max_segment_exclusive) consumed.push_back(file);
    }
    std::string bytes;
    WalRecoveryReport scan_report;
    for (const WalSegmentFile& file : consumed) {
      BQS_RETURN_NOT_OK(ReadFileBytes(file.path, &bytes));
      const std::span<const uint8_t> image(
          reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
      codec::FileHeader header;
      if (codec::DecodeFileHeader(image, wal::kWalMagic, &header)) {
        quant = header.quant;
      }
      // Same torn-tail rule as WalReader::Recover: only the directory's
      // final segment gets truncation semantics, so the compactor reads
      // exactly what recovery would have.
      const bool is_last = !all.empty() && file.index == all.back().index;
      std::vector<wal::WalCheckpoint> replayed;
      WalReader::RecoverSegment(image, is_last, &replayed, &scan_report);
      for (wal::WalCheckpoint& c : replayed) {
        if (c.seq <= manifest.last_applied_seq) {
          ++already;
        } else {
          fresh.push_back(std::move(c));
        }
      }
    }
    return Status::OK();
  });
  if (!st.ok()) return fail(st);
  if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // T1: scanned

  stats_.segments_consumed += consumed.size();
  stats_.checkpoints_already_compacted += already;
  if (consumed.empty()) {
    ++stats_.runs_completed;
    return Status::OK();
  }

  if (!fresh.empty()) {
    // Replay order is already seq order (monotone writer, ordered
    // segments); the sort is belt-and-braces for hand-built directories.
    std::stable_sort(fresh.begin(), fresh.end(),
                     [](const wal::WalCheckpoint& a,
                        const wal::WalCheckpoint& b) { return a.seq < b.seq; });
    uint64_t new_watermark = manifest.last_applied_seq;
    uint64_t fresh_points = 0;
    for (const wal::WalCheckpoint& c : fresh) {
      new_watermark = std::max(new_watermark, c.seq);
      fresh_points += c.points.size();
    }

    // Group per device, split into bounded blocks of whole checkpoints.
    std::map<DeviceId, std::vector<wal::WalCheckpoint>> by_device;
    for (wal::WalCheckpoint& c : fresh) {
      by_device[c.device].push_back(std::move(c));
    }
    std::vector<std::vector<wal::WalCheckpoint>> pending;
    for (auto& [device, run] : by_device) {
      (void)device;
      std::vector<wal::WalCheckpoint> current;
      std::size_t current_points = 0;
      for (wal::WalCheckpoint& c : run) {
        if (!current.empty() &&
            current_points + c.points.size() > options_.max_points_per_block) {
          pending.push_back(std::move(current));
          current.clear();
          current_points = 0;
        }
        current_points += c.points.size();
        current.push_back(std::move(c));
      }
      if (!current.empty()) pending.push_back(std::move(current));
    }

    // Encode the whole block file in memory (a compaction's unit of work
    // is bounded by the WAL rotation threshold times segments drained).
    uint64_t file_id = 1;
    for (const ManifestBlockFile& file : manifest.files) {
      file_id = std::max(file_id, file.file_id + 1);
    }
    std::string file_bytes;
    codec::EncodeFileHeader(
        blk::kBlockMagic, {quant, 0, static_cast<uint32_t>(pending.size())},
        &file_bytes);
    ManifestBlockFile new_file;
    new_file.file_id = file_id;
    for (const std::vector<wal::WalCheckpoint>& block : pending) {
      ManifestBlockEntry entry;
      entry.offset = file_bytes.size();
      if (!blk::EncodeBlock(block, &file_bytes, &entry.meta)) {
        // Nothing is published, so the WAL keeps every checkpoint.
        return fail(Status::InvalidArgument(
            "a block of " + std::to_string(block.size()) +
            " checkpoints encodes past the block payload limit; lower "
            "max_points_per_block"));
      }
      new_file.blocks.push_back(std::move(entry));
    }
    new_file.file_bytes = file_bytes.size();

    // [write + publish block file] (crash points inside: temp durable,
    // renamed; one more after the directory fsync below).
    st = step([&]() -> Status {
      return WriteFileAtomic(options_.block_dir, BlockFileName(file_id),
                             file_bytes, injector,
                             [&]() -> Status { return gate.At(); });
    });
    if (!st.ok()) return fail(st);
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // block durable
    stats_.block_files_written += 1;
    stats_.blocks_written += pending.size();
    stats_.block_bytes_written += file_bytes.size();
    stats_.checkpoints_compacted += fresh.size();
    stats_.points_compacted += fresh_points;

    // [write + publish manifest] -- the commit point.
    Manifest next = manifest;
    next.quant = quant;
    next.last_applied_seq = new_watermark;
    next.files.push_back(std::move(new_file));
    st = step([&]() -> Status {
      return WriteManifest(options_.block_dir, next, injector,
                           [&]() -> Status { return gate.At(); });
    });
    if (!st.ok()) return fail(st);
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // committed
    manifest = std::move(next);
  }

  // [delete consumed WAL segments] -- safe now (and safe to redo: every
  // checkpoint they held is at or below the published watermark).
  for (const WalSegmentFile& file : consumed) {
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);
    st = step([&]() -> Status {
      std::error_code ec;
      std::filesystem::remove(file.path, ec);  // ENOENT is fine (redo)
      if (ec && ec != std::errc::no_such_file_or_directory) {
        return Status::IoError("remove " + file.path + ": " + ec.message());
      }
      return Status::OK();
    });
    if (!st.ok()) return fail(st);
    ++stats_.segments_deleted;
  }
  FsyncDirBestEffort(options_.wal_dir);

  ++stats_.runs_completed;
  return Status::OK();
}

// --- recovery -------------------------------------------------------------

Result<StoreRecovery> RecoverStore(const std::string& wal_dir,
                                   const std::string& block_dir) {
  StoreRecovery recovery;
  StoreRecoveryReport& report = recovery.report;

  Manifest manifest;
  bool have_manifest = false;
  {
    const Status ms = ReadManifest(block_dir, &manifest);
    if (ms.ok()) {
      have_manifest = true;
      report.manifest_found = true;
    } else if (ms.code() == StatusCode::kCorruption) {
      report.manifest_found = true;
      report.manifest_corrupt = true;
    } else if (ms.code() != StatusCode::kNotFound) {
      return ms;  // environmental (unreadable directory/file)
    }
  }

  // Census of the block directory: stale temp files are counted (the next
  // compaction quarantines them); block files are collected for either
  // the referenced walk or the manifest-less fallback scan.
  std::map<uint64_t, std::string> on_disk;  // id -> path, deterministic
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(block_dir, ec);
    if (!ec) {
      const std::filesystem::directory_iterator end;
      while (it != end) {
        const std::string name = it->path().filename().string();
        uint64_t id = 0;
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
          ++report.orphan_tmp_files;
        } else if (ParseBlockFileName(name, &id)) {
          on_disk.emplace(id, it->path().string());
        }
        it.increment(ec);
        if (ec) break;
      }
    }
  }

  std::vector<wal::WalCheckpoint> from_blocks;
  std::set<uint64_t> block_seqs;
  bool quant_known = false;

  const auto walk_file = [&](const std::string& path,
                             const ManifestBlockFile* expect) {
    std::string bytes;
    if (!ReadFileBytes(path, &bytes).ok()) {
      ++report.block_files_unreadable;
      return;
    }
    const std::span<const uint8_t> image(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    codec::FileHeader header;
    if (!codec::DecodeFileHeader(image, blk::kBlockMagic, &header)) {
      ++report.block_files_unreadable;
      return;
    }
    if (!have_manifest && !quant_known) {
      recovery.wal.quant = header.quant;
      quant_known = true;
    }
    ++report.block_files_read;
    std::size_t offset = codec::kFileHeaderBytes;
    for (uint32_t b = 0; b < header.count; ++b) {
      // Referenced walks jump by manifest offsets (and cross-check the
      // stored metadata); the fallback walks the frames sequentially.
      if (expect != nullptr) {
        if (b >= expect->blocks.size()) break;
        offset = expect->blocks[b].offset <= image.size()
                     ? static_cast<std::size_t>(expect->blocks[b].offset)
                     : image.size();
      }
      std::size_t frame_bytes = 0;
      blk::BlockMeta meta;
      std::vector<wal::WalCheckpoint> decoded;
      if (!DecodeBlockFrame(image.subspan(offset), path, &frame_bytes, &meta,
                            &decoded)
               .ok() ||
          (expect != nullptr && !(meta == expect->blocks[b].meta))) {
        ++report.blocks_corrupt;
        if (expect == nullptr) break;  // framing lost; stop the walk
        continue;
      }
      ++report.blocks_decoded;
      for (wal::WalCheckpoint& c : decoded) {
        block_seqs.insert(c.seq);
        from_blocks.push_back(std::move(c));
      }
      offset += frame_bytes;
    }
  };

  if (have_manifest) {
    recovery.wal.quant = manifest.quant;
    quant_known = true;
    for (const ManifestBlockFile& file : manifest.files) {
      const auto it = on_disk.find(file.file_id);
      if (it == on_disk.end()) {
        ++report.block_files_unreadable;  // referenced but gone: data loss
        continue;
      }
      walk_file(it->second, &file);
    }
    for (const auto& [id, path] : on_disk) {
      (void)path;
      bool referenced = false;
      for (const ManifestBlockFile& file : manifest.files) {
        if (file.file_id == id) {
          referenced = true;
          break;
        }
      }
      if (!referenced) ++report.unreferenced_blocks;
    }
  } else {
    // No (trustworthy) manifest: scan every published block file. Each is
    // complete by construction (published via atomic rename), so whatever
    // decodes is real data; the WAL union below dedupes by seq.
    for (const auto& [id, path] : on_disk) {
      (void)id;
      walk_file(path, nullptr);
    }
  }
  report.checkpoints_from_blocks = from_blocks.size();

  // The WAL side: full replay, then take what blocks do not already hold.
  uint64_t max_block_seq = 0;
  for (const wal::WalCheckpoint& c : from_blocks) {
    max_block_seq = std::max(max_block_seq, c.seq);
  }
  Result<WalRecovery> walr = WalReader::Recover(wal_dir);
  if (!walr.ok()) {
    if (walr.status().code() != StatusCode::kNotFound) return walr.status();
  } else {
    WalRecovery& wal = walr.value();
    recovery.wal.report = wal.report;
    recovery.wal.next_seq = wal.next_seq;
    if (!quant_known) recovery.wal.quant = wal.quant;
    for (wal::WalCheckpoint& c : wal.checkpoints) {
      const bool covered =
          have_manifest
              ? c.seq <= manifest.last_applied_seq
              : block_seqs.find(c.seq) != block_seqs.end();
      if (covered) {
        ++report.duplicates_dropped;
      } else {
        ++report.checkpoints_from_wal;
        from_blocks.push_back(std::move(c));
      }
    }
  }

  std::stable_sort(from_blocks.begin(), from_blocks.end(),
                   [](const wal::WalCheckpoint& a,
                      const wal::WalCheckpoint& b) { return a.seq < b.seq; });
  recovery.wal.checkpoints = std::move(from_blocks);
  for (const wal::WalCheckpoint& c : recovery.wal.checkpoints) {
    if (c.seq != UINT64_MAX && c.seq >= recovery.wal.next_seq) {
      recovery.wal.next_seq = c.seq + 1;
    }
  }
  if (have_manifest && manifest.last_applied_seq != UINT64_MAX &&
      manifest.last_applied_seq >= recovery.wal.next_seq) {
    recovery.wal.next_seq = manifest.last_applied_seq + 1;
  }
  return recovery;
}

// --- range queries --------------------------------------------------------

BlockStore::BlockStore(std::string dir, Manifest manifest, double cell_size)
    : dir_(std::move(dir)),
      manifest_(std::move(manifest)),
      grid_(cell_size) {}

Result<BlockStore> BlockStore::Open(const std::string& block_dir) {
  Manifest manifest;
  BQS_RETURN_NOT_OK(ReadManifest(block_dir, &manifest));

  // Size the grid cells to the typical block footprint so a query sweeps
  // O(1) cells per intersecting block; the inflate radius makes the
  // center-point index conservative (a block is findable from anywhere
  // within half its diagonal of its center).
  const double cq = manifest.quant.coord_quantum;
  double max_half_diag = 0.0;
  double extent_sum = 0.0;
  std::size_t count = 0;
  for (const ManifestBlockFile& file : manifest.files) {
    for (const ManifestBlockEntry& entry : file.blocks) {
      const double w =
          static_cast<double>(entry.meta.qx_max - entry.meta.qx_min) * cq;
      const double h =
          static_cast<double>(entry.meta.qy_max - entry.meta.qy_min) * cq;
      max_half_diag = std::max(max_half_diag, 0.5 * std::hypot(w, h));
      extent_sum += std::max(w, h);
      ++count;
    }
  }
  const double cell =
      count == 0 ? 500.0 : std::max(extent_sum / static_cast<double>(count),
                                    std::max(cq, 1e-6));

  BlockStore store(block_dir, std::move(manifest), cell);
  store.inflate_ = max_half_diag;
  for (std::size_t slot = 0; slot < store.manifest_.files.size(); ++slot) {
    const ManifestBlockFile& file = store.manifest_.files[slot];
    for (std::size_t b = 0; b < file.blocks.size(); ++b) {
      const ManifestBlockEntry& entry = file.blocks[b];
      // Blocks are written back to back, so each one's frame ends where
      // the next begins (the last one at the end of the file).
      const uint64_t end = b + 1 < file.blocks.size()
                               ? file.blocks[b + 1].offset
                               : file.file_bytes;
      const uint64_t id = store.blocks_.size();
      const Vec2 center(
          0.5 * static_cast<double>(entry.meta.qx_min + entry.meta.qx_max) *
              cq,
          0.5 * static_cast<double>(entry.meta.qy_min + entry.meta.qy_max) *
              cq);
      store.grid_.Insert(id, center);
      store.blocks_.push_back(
          BlockRef{slot, entry.offset,
                   end > entry.offset ? end - entry.offset : 0, entry.meta});
    }
  }
  return store;
}

Status BlockStore::Query(Vec2 center, double radius, double t_min,
                         double t_max, std::vector<KeyPoint>* out,
                         RangeQueryStats* stats) const {
  RangeQueryStats local;
  RangeQueryStats* const s = stats != nullptr ? stats : &local;
  *s = RangeQueryStats{};
  s->blocks_total = blocks_.size();

  std::vector<uint64_t> candidates = grid_.Query(center, radius + inflate_);
  std::sort(candidates.begin(), candidates.end());  // deterministic order
  s->grid_candidates = candidates.size();

  const double cq = manifest_.quant.coord_quantum;
  const double tq = manifest_.quant.time_quantum;
  const double radius_sq = radius * radius;

  std::ifstream in;
  std::string path;
  std::size_t open_slot = SIZE_MAX;
  std::string frame;
  for (const uint64_t id : candidates) {
    const BlockRef& ref = blocks_[static_cast<std::size_t>(id)];
    const blk::BlockMeta& m = ref.meta;
    // Exact prune: circle vs dequantized bbox, plus time-span overlap.
    const double t0 = static_cast<double>(m.qt_min) * tq;
    const double t1 = static_cast<double>(m.qt_max) * tq;
    const double rx0 = static_cast<double>(m.qx_min) * cq;
    const double rx1 = static_cast<double>(m.qx_max) * cq;
    const double ry0 = static_cast<double>(m.qy_min) * cq;
    const double ry1 = static_cast<double>(m.qy_max) * cq;
    const double dx =
        std::max({rx0 - center.x, center.x - rx1, 0.0});
    const double dy =
        std::max({ry0 - center.y, center.y - ry1, 0.0});
    if (t1 < t_min || t0 > t_max || dx * dx + dy * dy > radius_sq) {
      ++s->blocks_pruned;
      continue;
    }

    if (ref.file_slot != open_slot) {
      in.close();
      in.clear();
      path =
          dir_ + "/" + BlockFileName(manifest_.files[ref.file_slot].file_id);
      in.open(path, std::ios::binary);
      if (!in) return Status::IoError("open " + path + " for read failed");
      open_slot = ref.file_slot;
    }
    if (ref.bytes > codec::kFrameHeaderBytes + blk::kMaxBlockPayload) {
      return Status::Corruption("implausible block extent in " + path);
    }
    frame.resize(static_cast<std::size_t>(ref.bytes));
    in.clear();
    in.seekg(static_cast<std::streamoff>(ref.offset));
    if (!in.read(frame.data(), static_cast<std::streamsize>(frame.size()))) {
      return Status::Corruption("short block in " + path);
    }
    std::size_t frame_bytes = 0;
    blk::BlockMeta meta;
    std::vector<wal::WalCheckpoint> decoded;
    BQS_RETURN_NOT_OK(DecodeBlockFrame(
        {reinterpret_cast<const uint8_t*>(frame.data()), frame.size()}, path,
        &frame_bytes, &meta, &decoded));
    if (!(meta == m)) {
      return Status::Corruption("block metadata mismatch in " + path);
    }
    ++s->blocks_decoded;
    for (const wal::WalCheckpoint& c : decoded) {
      s->points_scanned += c.points.size();
      for (const wal::WalPoint& p : c.points) {
        const KeyPoint key = wal::Dequantize(p, manifest_.quant);
        if (key.point.t < t_min || key.point.t > t_max) continue;
        if (DistanceSq(key.point.pos, center) > radius_sq) continue;
        out->push_back(key);
        ++s->points_returned;
      }
    }
  }
  return Status::OK();
}

}  // namespace bqs
