#include "storage/compaction.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <system_error>
#include <utility>

#include "common/fault_injector.h"
#include "storage/codec.h"
#include "storage/file_io.h"

namespace bqs {

namespace {

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

/// Decodes block `b` of the manifest-referenced `file` out of the file's
/// whole image and cross-checks it against the manifest's metadata. Blocks
/// are written back to back, so each one's frame must fit where the next
/// begins (the last one at the end of the file). Shared by recovery's
/// referenced walk and BlockStore::Open.
Status DecodeReferencedBlock(std::span<const uint8_t> image,
                             const std::string& path,
                             const ManifestBlockFile& file, std::size_t b,
                             std::vector<wal::WalCheckpoint>* out) {
  const ManifestBlockEntry& entry = file.blocks[b];
  const uint64_t end =
      b + 1 < file.blocks.size() ? file.blocks[b + 1].offset : file.file_bytes;
  const uint64_t bytes = end > entry.offset ? end - entry.offset : 0;
  if (bytes > codec::kFrameHeaderBytes + blk::kMaxBlockPayload) {
    return Status::Corruption("implausible block extent in " + path);
  }
  if (entry.offset + bytes > image.size()) {
    return Status::Corruption("short block in " + path);
  }
  std::size_t frame_bytes = 0;
  blk::BlockMeta meta;
  BQS_RETURN_NOT_OK(DecodeBlockFrame(
      image.subspan(static_cast<std::size_t>(entry.offset),
                    static_cast<std::size_t>(bytes)),
      path, &frame_bytes, &meta, out));
  if (!(meta == entry.meta)) {
    return Status::Corruption("block metadata mismatch in " + path);
  }
  return Status::OK();
}

std::set<uint64_t> ReferencedIds(const Manifest& manifest) {
  std::set<uint64_t> ids;
  for (const ManifestBlockFile& file : manifest.files) ids.insert(file.file_id);
  return ids;
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
  ++stats_.runs_started;

  // Every I/O step goes through here: up to kCompactionAttempts tries, back
  // to back (the steps are idempotent). A crashed gate short-circuits
  // re-attempts (a dead process retries nothing), and retry counts exclude
  // crash-aborted steps.
  const auto step = [&](auto&& op) -> Status {
    Status st;
    uint32_t attempts = 0;
    do {
      st = gate.crashed ? gate.status : op();
      ++attempts;
    } while (!st.ok() && attempts < kCompactionAttempts);
    if (!gate.crashed) stats_.io_retries += attempts - 1;
    return st;
  };
  const auto fail = [&](const Status& st) -> Status {
    manifest_current_ = false;  // the next run cleans up and re-reads
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
  // Only on this compactor's first run and after a run that failed or
  // crashed: it is the MANIFEST's only writer, so manifest_ is what a
  // clean run left on disk, and only a failed run leaves debris.
  if (!manifest_current_) {
    Status st = step([&]() -> Status {
      manifest_ = Manifest{};
      std::error_code ec;
      std::filesystem::create_directories(options_.block_dir, ec);
      if (ec) {
        return Status::IoError("create " + options_.block_dir + ": " +
                               ec.message());
      }
      const Status ms = ReadManifest(options_.block_dir, &manifest_);
      // No manifest yet is the fresh-directory case; corruption is not
      // ours to paper over — compacting on top of an untrusted watermark
      // could delete WAL bytes not provably in blocks. Refuse and report.
      if (ms.ok() || ms.code() == StatusCode::kNotFound) return Status::OK();
      return ms;
    });
    if (!st.ok()) return fail(st);

    st = step([&]() -> Status {
      Result<NumberedListing> listed =
          ListNumberedFiles(options_.block_dir, kBlockFiles);
      if (!listed.ok()) return listed.status();
      const NumberedListing& listing = listed.value();
      const std::set<uint64_t> referenced = ReferencedIds(manifest_);
      std::vector<std::string> doomed = listing.temps;
      // Published but never referenced: a crash landed between block and
      // manifest publication. The WAL still holds its contents (segments
      // are deleted only after the manifest rename), so the orphan is
      // redundant bytes, not data.
      for (const auto* group : {&listing.files, &listing.duplicates}) {
        for (const NumberedFile& file : *group) {
          if (!referenced.contains(file.index)) doomed.push_back(file.path);
        }
      }
      for (const std::string& path : doomed) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        if (ec) {
          return Status::IoError("remove " + path + ": " + ec.message());
        }
      }
      stats_.orphan_tmp_removed += listing.temps.size();
      stats_.orphan_blocks_removed += doomed.size() - listing.temps.size();
      return Status::OK();
    });
    if (!st.ok()) return fail(st);
  }
  if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // T0: cleaned up

  // [scan] -- sealed segments below the bound; keep what the manifest
  // does not already cover. The WAL directory is listed on every run.
  std::vector<WalSegmentFile> consumed;
  std::vector<wal::WalCheckpoint> fresh;
  wal::WalQuantization quant;
  uint64_t already = 0;
  Status st = step([&]() -> Status {
    consumed.clear();
    fresh.clear();
    already = 0;
    Result<WalRecovery> scanned =
        WalReader::Recover(options_.wal_dir, max_segment_exclusive, &consumed);
    if (!scanned.ok()) {
      if (scanned.status().code() == StatusCode::kNotFound) {
        return Status::OK();  // no WAL directory: nothing to drain
      }
      return scanned.status();
    }
    quant = scanned.value().quant;
    for (wal::WalCheckpoint& c : scanned.value().checkpoints) {
      if (c.seq <= manifest_.last_applied_seq) {
        ++already;
      } else {
        fresh.push_back(std::move(c));
      }
    }
    return Status::OK();
  });
  if (!st.ok()) return fail(st);
  if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // T1: scanned

  stats_.segments_consumed += consumed.size();
  stats_.checkpoints_already_compacted += already;
  if (consumed.empty()) {
    manifest_current_ = true;
    ++stats_.runs_completed;
    return Status::OK();
  }

  if (!fresh.empty()) {
    // Replay order is already seq order (monotone writer, ordered
    // segments); the sort is belt-and-braces for hand-built directories.
    std::stable_sort(fresh.begin(), fresh.end(),
                     [](const wal::WalCheckpoint& a,
                        const wal::WalCheckpoint& b) { return a.seq < b.seq; });
    uint64_t new_watermark = manifest_.last_applied_seq;
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
    for (const ManifestBlockFile& file : manifest_.files) {
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
    Manifest next = manifest_;
    next.quant = quant;
    next.last_applied_seq = new_watermark;
    next.files.push_back(std::move(new_file));
    st = step([&]() -> Status {
      return WriteManifest(options_.block_dir, next, injector,
                           [&]() -> Status { return gate.At(); });
    });
    if (!st.ok()) return fail(st);
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // committed
    manifest_ = std::move(next);
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
  (void)FsyncDir(options_.wal_dir);  // best-effort, like the WAL writer's

  manifest_current_ = true;
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
  // compaction quarantines them); block files are collected for the
  // manifest-less fallback scan and the unreferenced count.
  Result<NumberedListing> census = ListNumberedFiles(block_dir, kBlockFiles);
  const NumberedListing on_disk =
      census.ok() ? std::move(census.value()) : NumberedListing{};
  report.orphan_tmp_files = on_disk.temps.size();

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
    const std::span<const uint8_t> image = AsBytes(bytes);
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
      std::size_t frame_bytes = 0;
      blk::BlockMeta meta;
      std::vector<wal::WalCheckpoint> decoded;
      if (expect != nullptr && b >= expect->blocks.size()) break;
      const Status st =
          expect != nullptr
              ? DecodeReferencedBlock(image, path, *expect, b, &decoded)
              : DecodeBlockFrame(image.subspan(offset), path, &frame_bytes,
                                 &meta, &decoded);
      if (!st.ok()) {
        ++report.blocks_corrupt;
        if (expect == nullptr) break;  // framing lost; stop the walk
        continue;
      }
      ++report.blocks_decoded;
      for (wal::WalCheckpoint& c : decoded) {
        // The first copy of a seq wins: a block file copied under another
        // name must not return its checkpoints twice.
        if (!block_seqs.insert(c.seq).second) {
          ++report.duplicates_dropped;
          continue;
        }
        from_blocks.push_back(std::move(c));
      }
      offset += frame_bytes;
    }
  };

  if (have_manifest) {
    recovery.wal.quant = manifest.quant;
    quant_known = true;
    // A referenced id means the name the compactor wrote and BlockStore
    // reads, never another spelling that happens to parse to the same id.
    for (const ManifestBlockFile& file : manifest.files) {
      walk_file(block_dir + "/" + BlockFileName(file.file_id), &file);
    }
    const std::set<uint64_t> referenced = ReferencedIds(manifest);
    for (const NumberedFile& file : on_disk.files) {
      if (!referenced.contains(file.index)) ++report.unreferenced_blocks;
    }
  } else {
    // No (trustworthy) manifest: scan every published block file. Each is
    // complete by construction (published via atomic rename), so whatever
    // decodes is real data; the WAL union below dedupes by seq.
    for (const NumberedFile& file : on_disk.files) walk_file(file.path, nullptr);
  }
  report.checkpoints_from_blocks = from_blocks.size();

  // The WAL side: full replay, then take what blocks do not already hold.
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

Result<BlockStore> BlockStore::Open(const std::string& block_dir) {
  Manifest manifest;
  BQS_RETURN_NOT_OK(ReadManifest(block_dir, &manifest));

  BlockStore store(std::move(manifest));
  const double cq = store.manifest_.quant.coord_quantum;
  const double tq = store.manifest_.quant.time_quantum;
  std::string bytes;
  std::vector<wal::WalCheckpoint> decoded;
  for (const ManifestBlockFile& file : store.manifest_.files) {
    const std::string path = block_dir + "/" + BlockFileName(file.file_id);
    Status read = ReadFileBytes(path, &bytes);
    // A referenced file that is gone is lost data, not an absent store.
    if (read.code() == StatusCode::kNotFound) {
      read = Status::IoError(read.message());
    }
    for (std::size_t b = 0; b < file.blocks.size(); ++b) {
      const blk::BlockMeta& m = file.blocks[b].meta;
      BlockRef ref{store.point_count_, 0, store.zones_.size(), read};
      if (read.ok()) {
        ref.status =
            DecodeReferencedBlock(AsBytes(bytes), path, file, b, &decoded);
      }
      if (ref.status.ok()) {
        for (const wal::WalCheckpoint& c : decoded) {
          for (const wal::WalPoint& p : c.points) {
            const std::size_t i = store.point_count_++;
            const std::size_t k = i % kChunkPoints;
            if (k == 0) {
              store.chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
            }
            const KeyPoint key = wal::Dequantize(p, store.manifest_.quant);
            const double t = key.point.t;
            const double x = key.point.pos.x;
            const double y = key.point.pos.y;
            Chunk& chunk = *store.chunks_.back();
            chunk.t[k] = t;
            chunk.x[k] = x;
            chunk.y[k] = y;
            chunk.index[k] = key.index;
            if ((i - ref.begin) % kZonePoints == 0) {
              store.zones_.push_back({t, t, x, x, y, y});
            } else {
              Bounds& zone = store.zones_.back();
              zone.t0 = std::min(zone.t0, t);
              zone.t1 = std::max(zone.t1, t);
              zone.x0 = std::min(zone.x0, x);
              zone.x1 = std::max(zone.x1, x);
              zone.y0 = std::min(zone.y0, y);
              zone.y1 = std::max(zone.y1, y);
            }
          }
        }
      }
      ref.end = store.point_count_;
      store.bounds_.push_back({static_cast<double>(m.qt_min) * tq,
                               static_cast<double>(m.qt_max) * tq,
                               static_cast<double>(m.qx_min) * cq,
                               static_cast<double>(m.qx_max) * cq,
                               static_cast<double>(m.qy_min) * cq,
                               static_cast<double>(m.qy_max) * cq});
      store.blocks_.push_back(std::move(ref));
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
  if (!std::isfinite(center.x) || !std::isfinite(center.y) ||
      !std::isfinite(radius) || !std::isfinite(t_min) ||
      !std::isfinite(t_max)) {
    return Status::InvalidArgument("range query arguments must be finite");
  }
  if (radius < 0.0) {
    return Status::InvalidArgument("range query radius must be >= 0");
  }

  const double radius_sq = radius * radius;
  const auto overlaps_window = [&](const Bounds& box) {
    return box.t1 >= t_min && box.t0 <= t_max;
  };
  // Exact: a point inside the box is never nearer the center than this.
  const auto reaches_circle = [&](const Bounds& box) {
    const double dx = std::max({box.x0 - center.x, center.x - box.x1, 0.0});
    const double dy = std::max({box.y0 - center.y, center.y - box.y1, 0.0});
    return dx * dx + dy * dy <= radius_sq;
  };
  for (std::size_t b = 0; b < bounds_.size(); ++b) {
    if (!overlaps_window(bounds_[b])) continue;
    ++s->grid_candidates;
    if (!reaches_circle(bounds_[b])) {
      ++s->blocks_pruned;
      continue;
    }
    const BlockRef& ref = blocks_[b];
    if (!ref.status.ok()) return ref.status;

    ++s->blocks_decoded;
    for (std::size_t zone_start = ref.begin, z = ref.zone_begin;
         zone_start < ref.end; zone_start += kZonePoints, ++z) {
      if (!overlaps_window(zones_[z]) || !reaches_circle(zones_[z])) {
        ++s->zones_pruned;
        continue;
      }
      std::size_t i = zone_start;
      const std::size_t end = std::min(ref.end, i + kZonePoints);
      s->points_scanned += end - i;
      // Chunk by chunk (a zone can straddle two), so the inner loop is a
      // plain column scan.
      while (i < end) {
        const Chunk& chunk = *chunks_[i / kChunkPoints];
        const std::size_t base = i - i % kChunkPoints;
        const std::size_t stop = std::min(end, base + kChunkPoints);
        for (std::size_t k = i - base; k < stop - base; ++k) {
          const double t = chunk.t[k];
          if (t < t_min || t > t_max) continue;
          const Vec2 pos{chunk.x[k], chunk.y[k]};
          if (DistanceSq(pos, center) > radius_sq) continue;
          KeyPoint key;
          key.point.pos = pos;
          key.point.t = t;
          key.index = chunk.index[k];
          out->push_back(key);
          ++s->points_returned;
        }
        i = stop;
      }
    }
  }
  return Status::OK();
}

}  // namespace bqs
