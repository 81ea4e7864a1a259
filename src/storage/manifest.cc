#include "storage/manifest.h"

namespace bqs {

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

// --- I/O ------------------------------------------------------------------

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
  std::string bytes;
  BQS_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (!DecodeManifest(AsBytes(bytes), out)) {
    return Status::Corruption("manifest at " + path + " failed to decode");
  }
  return Status::OK();
}

}  // namespace bqs
