// The MANIFEST: the single versioned file that says which compacted block
// files are live and how much of the WAL they cover. The header and frame
// layouts are the shared storage codec (storage/codec.h).
//
// Layout ("MANIFEST" in the block directory): a codec file header (magic
// 'BQMF', seq = last_applied_seq, count = the number of entries) followed
// by one frame per block file, each payload at most kMaxEntryPayload:
//     file_id varint, file_bytes varint, block_count varint,
//     then per block: offset varint (byte offset of the block's frame
//     inside the file), then its BlockMeta (block_format.h varint layout)
//
// The watermark contract — the heart of crash consistency: every WAL
// checkpoint with seq <= last_applied_seq is present in the referenced
// blocks, and nothing above the watermark is. Recovery is therefore a
// union with no overlap: blocks ∪ {WAL checkpoints with seq > watermark}.
// Publication is atomic (write MANIFEST.tmp, fsync, rename over MANIFEST,
// fsync the directory), so a reader sees the old manifest or the new one,
// never a torn one; WAL segments are deleted only *after* the rename, so
// a crash anywhere leaves every acked checkpoint reachable from one side
// of the union or the other.
//
// Decoding is total on arbitrary bytes (fuzz_manifest_recovery's
// invariant). A manifest that fails to decode is treated by recovery as
// absent — the fallback scans block files directly and dedupes against
// the WAL by seq, so even manifest corruption (which atomic publication
// makes a media event, not a crash event) degrades to a slower recovery,
// not a wrong one.
#ifndef BQS_STORAGE_MANIFEST_H_
#define BQS_STORAGE_MANIFEST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/block_format.h"
#include "storage/codec.h"

namespace bqs {

class FaultInjector;  // common/fault_injector.h (test harness; see lint)

namespace manifestfmt {

inline constexpr uint32_t kManifestMagic = 0x464d5142u;  // 'BQMF' LE
inline constexpr std::size_t kMaxEntryPayload = std::size_t{1} << 24;

}  // namespace manifestfmt

/// One block inside a block file, as the manifest references it: where it
/// starts (so a range query can pread exactly one block) and its pruning
/// metadata (so most queries never read the file at all).
struct ManifestBlockEntry {
  uint64_t offset = 0;  ///< Byte offset of the block's length prefix.
  blk::BlockMeta meta;

  constexpr bool operator==(const ManifestBlockEntry&) const = default;
};

/// One live block file.
struct ManifestBlockFile {
  uint64_t file_id = 0;     ///< Names "blk-<id>.bqb".
  uint64_t file_bytes = 0;  ///< Exact size at publication (a cheap check).
  std::vector<ManifestBlockEntry> blocks;

  bool operator==(const ManifestBlockFile&) const = default;
};

/// The decoded MANIFEST.
struct Manifest {
  wal::WalQuantization quant;
  /// Every WAL checkpoint with seq <= this lives in the blocks below;
  /// nothing above it does. 0 = nothing compacted yet.
  uint64_t last_applied_seq = 0;
  std::vector<ManifestBlockFile> files;

  bool operator==(const Manifest&) const = default;
};

/// Appends the full MANIFEST image (header + entries) to `out`. False when
/// an entry's payload exceeds kMaxEntryPayload or the file count does not
/// fit the header (`out` is then unusable).
[[nodiscard]] bool EncodeManifest(const Manifest& manifest,
                                  std::string* out);

/// Decodes a MANIFEST image. Total on arbitrary bytes: false on any
/// corruption (bad magic/CRC/version/quanta, torn entry, trailing bytes,
/// malformed varints) — all-or-nothing, a half-trusted manifest is worse
/// than none.
bool DecodeManifest(std::span<const uint8_t> bytes, Manifest* out);

// --- file naming ----------------------------------------------------------

inline constexpr const char* kManifestName = "MANIFEST";
inline constexpr const char* kManifestTempName = "MANIFEST.tmp";

std::string BlockFileName(uint64_t file_id);      // "blk-%06llu.bqb"
std::string BlockTempFileName(uint64_t file_id);  // "blk-%06llu.bqb.tmp"

/// Parses "blk-NNNNNN.bqb" into its id; false for every other name.
bool ParseBlockFileName(const std::string& name, uint64_t* file_id);

// --- I/O ------------------------------------------------------------------

/// Writes `bytes` as `dir`/`final_name` atomically: write `final_name`.tmp,
/// fsync it, rename over `final_name`, fsync the directory. Consults the
/// fault injector's kEnospc site at the write/fsync and kRenameFail at the
/// rename (both also map real ENOSPC errno to a status whose message
/// starts with "ENOSPC", which is how the compactor classifies disk-full).
/// `crash_point`, when set, is invoked after the temp file is durable and
/// again after the rename — the compactor's crash gate aborts there to
/// simulate dying between sub-steps.
Status WriteFileAtomic(const std::string& dir, const std::string& final_name,
                       std::string_view bytes, FaultInjector* injector,
                       const std::function<Status()>& crash_point = {});

/// Encodes and atomically publishes `manifest` as dir/MANIFEST.
Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     FaultInjector* injector = nullptr,
                     const std::function<Status()>& crash_point = {});

/// Reads and decodes dir/MANIFEST. NotFound when the file does not exist,
/// Corruption when it exists but fails DecodeManifest.
Status ReadManifest(const std::string& dir, Manifest* out);

/// True when a status smells like disk-full: statuses minted by this
/// layer's I/O prefix "ENOSPC" onto errno==ENOSPC failures and injected
/// kEnospc firings alike.
bool IsEnospc(const Status& status);

}  // namespace bqs

#endif  // BQS_STORAGE_MANIFEST_H_
