#include "storage/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/fault_injector.h"

namespace bqs {

namespace {

/// errno -> status, with disk-full made classifiable: IsEnospc() keys on
/// the "ENOSPC" prefix, which this is the only real-I/O source of.
Status ErrnoError(const std::string& what) {
  if (errno == ENOSPC) {
    return Status::IoError("ENOSPC: " + what + ": " + std::strerror(errno));
  }
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status InjectedEnospc(const std::string& what) {
  return Status::IoError("ENOSPC (injected): " + what);
}

Status WriteFully(int fd, const char* data, std::size_t size,
                  const std::string& what) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write " + what);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) return ErrnoError("open dir " + dir);
  if (::fsync(dirfd) != 0) {
    const Status st = ErrnoError("fsync dir " + dir);
    (void)::close(dirfd);
    return st;
  }
  (void)::close(dirfd);
  return Status::OK();
}

}  // namespace

// --- codec ----------------------------------------------------------------

bool EncodeManifest(const Manifest& manifest, std::string* out) {
  if (manifest.files.size() > UINT32_MAX) return false;
  codec::EncodeFileHeader(
      manifestfmt::kManifestMagic,
      {manifest.quant, manifest.last_applied_seq,
       static_cast<uint32_t>(manifest.files.size())},
      out);
  std::string payload;
  for (const ManifestBlockFile& file : manifest.files) {
    payload.clear();
    varint::PutU64(&payload, file.file_id);
    varint::PutU64(&payload, file.file_bytes);
    varint::PutU64(&payload, file.blocks.size());
    for (const ManifestBlockEntry& block : file.blocks) {
      varint::PutU64(&payload, block.offset);
      blk::PutBlockMeta(&payload, block.meta);
    }
    if (!codec::AppendFrame(payload, manifestfmt::kMaxEntryPayload, out)) {
      return false;
    }
  }
  return true;
}

bool DecodeManifest(std::span<const uint8_t> bytes, Manifest* out) {
  codec::FileHeader header;
  if (!codec::DecodeFileHeader(bytes, manifestfmt::kManifestMagic, &header)) {
    return false;
  }
  Manifest m;
  m.quant = header.quant;
  m.last_applied_seq = header.seq;
  // Each entry costs >= one frame header; a count that cannot fit is
  // corruption without further reads.
  if (header.count > (bytes.size() - codec::kFileHeaderBytes) /
                             codec::kFrameHeaderBytes +
                         1) {
    return false;
  }

  std::size_t offset = codec::kFileHeaderBytes;
  m.files.reserve(header.count);
  for (uint32_t i = 0; i < header.count; ++i) {
    const codec::Frame frame =
        codec::ParseFrame(bytes.subspan(offset), manifestfmt::kMaxEntryPayload);
    if (frame.status != codec::FrameStatus::kOk) return false;
    const std::size_t len = frame.payload.size();
    const uint8_t* q = frame.payload.data();
    const uint8_t* const qend = q + len;
    ManifestBlockFile file;
    uint64_t block_count = 0;
    if (!varint::GetU64(&q, qend, &file.file_id)) return false;
    if (!varint::GetU64(&q, qend, &file.file_bytes)) return false;
    if (!varint::GetU64(&q, qend, &block_count)) return false;
    // A block entry is >= 12 varint bytes (offset + 11 meta fields).
    if (block_count > len / 12 + 1) return false;
    file.blocks.reserve(static_cast<std::size_t>(block_count));
    for (uint64_t b = 0; b < block_count; ++b) {
      ManifestBlockEntry block;
      if (!varint::GetU64(&q, qend, &block.offset)) return false;
      if (!blk::GetBlockMeta(&q, qend, &block.meta)) return false;
      file.blocks.push_back(block);
    }
    if (q != qend) return false;  // trailing garbage inside the entry
    m.files.push_back(std::move(file));
    offset += frame.size;
  }
  if (offset != bytes.size()) return false;  // trailing bytes after entries
  *out = std::move(m);
  return true;
}

// --- file naming ----------------------------------------------------------

std::string BlockFileName(uint64_t file_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "blk-%06llu.bqb",
                static_cast<unsigned long long>(file_id));
  return buf;
}

std::string BlockTempFileName(uint64_t file_id) {
  // WriteFileAtomic's temp naming (final + ".tmp"), so the quarantine scan
  // for stale "*.tmp" covers crashed block publication too.
  return BlockFileName(file_id) + ".tmp";
}

bool ParseBlockFileName(const std::string& name, uint64_t* file_id) {
  constexpr std::string_view kPrefix = "blk-";
  constexpr std::string_view kSuffix = ".bqb";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  const std::string digits = name.substr(
      kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty() || digits.size() > 19) return false;  // > 19: overflow
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *file_id = value;
  return true;
}

// --- I/O ------------------------------------------------------------------

Status WriteFileAtomic(const std::string& dir, const std::string& final_name,
                       std::string_view bytes, FaultInjector* injector,
                       const std::function<Status()>& crash_point) {
  const std::string tmp_path = dir + "/" + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;

  if (injector != nullptr &&
      injector->ShouldFire(FaultSite::kEnospc)) {
    return InjectedEnospc("write " + tmp_path);
  }
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open " + tmp_path);
  Status st = WriteFully(fd, bytes.data(), bytes.size(), tmp_path);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("fsync " + tmp_path);
  if (::close(fd) != 0 && st.ok()) st = ErrnoError("close " + tmp_path);
  if (!st.ok()) return st;

  if (crash_point) BQS_RETURN_NOT_OK(crash_point());  // temp durable

  if (injector != nullptr &&
      injector->ShouldFire(FaultSite::kRenameFail)) {
    return Status::IoError("injected rename failure: " + tmp_path + " -> " +
                           final_path);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoError("rename " + tmp_path + " -> " + final_path);
  }

  if (crash_point) BQS_RETURN_NOT_OK(crash_point());  // renamed, dir not yet

  BQS_RETURN_NOT_OK(FsyncDir(dir));
  return Status::OK();
}

Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     FaultInjector* injector,
                     const std::function<Status()>& crash_point) {
  std::string bytes;
  if (!EncodeManifest(manifest, &bytes)) {
    return Status::InvalidArgument("manifest entry exceeds the frame limit");
  }
  return WriteFileAtomic(dir, kManifestName, bytes, injector, crash_point);
}

Status ReadManifest(const std::string& dir, Manifest* out) {
  const std::string path = dir + "/" + kManifestName;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no manifest at " + path);
  std::string bytes;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("size " + path + " failed");
  in.seekg(0, std::ios::beg);
  bytes.resize(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(bytes.data(), size)) {
    return Status::IoError("read " + path + " failed");
  }
  if (!DecodeManifest(
          {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()},
          out)) {
    return Status::Corruption("manifest at " + path + " failed to decode");
  }
  return Status::OK();
}

bool IsEnospc(const Status& status) {
  return !status.ok() && status.message().rfind("ENOSPC", 0) == 0;
}

}  // namespace bqs
