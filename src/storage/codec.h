// The storage codec: the one place that decides how key points are laid
// out on disk. WAL segments (wal_format.h), block files (block_format.h)
// and the MANIFEST (manifest.h) are all built from the three parts below
// and differ only in their magic and in what their frame payloads hold.
//
//   File header (kFileHeaderBytes = 40, fixed, at offset 0 of every file):
//     magic         u32  LE   names the format: 'BQWL', 'BQBK' or 'BQMF'
//     version       u16  LE   kFormatVersion; any other value rejects
//     flags         u16  LE   reserved, must be 0
//     time_quantum  f64  LE   seconds per timestamp quantum
//     coord_quantum f64  LE   metres per coordinate quantum
//     seq           u64  LE   WAL: first record's seq; MANIFEST: the
//                             last_applied_seq watermark; blocks: 0
//     count         u32  LE   blocks: block count; MANIFEST: file count
//                             (so a cut on a frame boundary still rejects);
//                             WAL: 0
//     crc           u32  LE   masked CRC32C over the 36 bytes above
//
//   Frame (length-prefixed, CRC-stamped; one WAL record, one block, or one
//   MANIFEST entry):
//     length  u32 LE   payload byte count, <= the format's payload limit
//     crc     u32 LE   masked CRC32C over (length bytes || payload)
//     payload
//
//   Point columns (inside WAL record and block payloads): the n points of
//   a run, column by column —
//     index column:       index0 varint, then n-1 zigzag deltas
//     qt, qx, qy columns: n zigzag deltas each, the first from 0
//   Deltas are taken in wrapping (unsigned) arithmetic, so every int64
//   pattern round-trips; stream-shaped data (small steps) stays short.
//
// Why this shape:
//   * The CRC covers the length prefix too, so a corrupted length cannot
//     silently reframe a stream; CRCs are stored masked (common/crc32c.h)
//     so CRC-bearing payloads never checksum to themselves.
//   * A decoder accepts exactly one version and checks magic, CRC and
//     quanta before trusting any field: a header it cannot trust end to
//     end voids the file.
//   * Each format passes its own payload limit to the frame codec. The
//     writer refuses a payload over it (so nothing is acked that a reader
//     would take for framing loss) and the reader treats a longer length
//     as corruption, which bounds how far a bad length can send it.
//
// Everything here is pure encode/decode over in-memory buffers — no file
// I/O — so the fuzzers and crash sweeps drive the exact production codec.
// This header and common/crc32c.* are the only src/ files allowed to touch
// CRC32C or fixed-width integers (repo lint: framing-containment).
#ifndef BQS_STORAGE_CODEC_H_
#define BQS_STORAGE_CODEC_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/crc32c.h"
#include "common/varint.h"

namespace bqs {
namespace wal {

/// The split error budget's quantization half: how coarsely storage keeps
/// what the compressor kept. The defaults (1 mm, 1 ms) are effectively
/// lossless for GPS-scale data while still letting deltas encode short.
struct WalQuantization {
  double coord_quantum = 1e-3;  ///< Metres per coordinate step.
  double time_quantum = 1e-3;   ///< Seconds per timestamp step.

  constexpr bool operator==(const WalQuantization&) const = default;
};

/// One key point in quantized (on-disk) form — what the point columns
/// hold in every format.
struct WalPoint {
  uint64_t index = 0;  ///< Position in the device's original stream.
  int64_t qt = 0;      ///< Timestamp in time_quantum steps.
  int64_t qx = 0;      ///< Coordinates in coord_quantum steps.
  int64_t qy = 0;

  constexpr bool operator==(const WalPoint&) const = default;
};

}  // namespace wal

namespace codec {

inline constexpr uint16_t kFormatVersion = 2;
inline constexpr std::size_t kFileHeaderBytes = 40;
inline constexpr std::size_t kFrameHeaderBytes = 8;  // length + crc

// --- little-endian fixed-width primitives ---------------------------------

inline void PutFixed32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutFixed64(std::string* out, uint64_t v) {
  PutFixed32(out, static_cast<uint32_t>(v));
  PutFixed32(out, static_cast<uint32_t>(v >> 32));
}

inline uint32_t GetFixed32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t GetFixed64(const uint8_t* p) {
  return static_cast<uint64_t>(GetFixed32(p)) |
         (static_cast<uint64_t>(GetFixed32(p + 4)) << 32);
}

// --- file header ----------------------------------------------------------

/// The fields of a file header a format gives meaning to (see the file
/// comment for what `seq` and `count` hold per format).
struct FileHeader {
  wal::WalQuantization quant;
  uint64_t seq = 0;
  uint32_t count = 0;

  constexpr bool operator==(const FileHeader&) const = default;
};

/// Appends a kFileHeaderBytes header stamped with `magic`.
inline void EncodeFileHeader(uint32_t magic, const FileHeader& header,
                             std::string* out) {
  const std::size_t base = out->size();
  PutFixed32(out, magic);
  PutFixed32(out, kFormatVersion);  // version u16, then flags u16 = 0
  PutFixed64(out, std::bit_cast<uint64_t>(header.quant.time_quantum));
  PutFixed64(out, std::bit_cast<uint64_t>(header.quant.coord_quantum));
  PutFixed64(out, header.seq);
  PutFixed32(out, header.count);
  const uint32_t crc =
      crc32c::Value(out->data() + base, kFileHeaderBytes - 4);
  PutFixed32(out, crc32c::Mask(crc));
}

/// Validates and decodes the header at the start of `bytes`. False on
/// short input, a magic other than `magic`, a bad CRC, a version other
/// than kFormatVersion, nonzero flags, or non-finite/non-positive quanta.
[[nodiscard]] inline bool DecodeFileHeader(std::span<const uint8_t> bytes,
                                           uint32_t magic,
                                           FileHeader* header) {
  if (bytes.size() < kFileHeaderBytes) return false;
  const uint8_t* p = bytes.data();
  if (GetFixed32(p) != magic) return false;
  const uint32_t stored = crc32c::Unmask(GetFixed32(p + kFileHeaderBytes - 4));
  if (crc32c::Value(p, kFileHeaderBytes - 4) != stored) return false;
  if (GetFixed32(p + 4) != kFormatVersion) return false;  // flags == 0
  FileHeader out;
  out.quant.time_quantum = std::bit_cast<double>(GetFixed64(p + 8));
  out.quant.coord_quantum = std::bit_cast<double>(GetFixed64(p + 16));
  out.seq = GetFixed64(p + 24);
  out.count = GetFixed32(p + 32);
  if (!(std::isfinite(out.quant.time_quantum) &&
        out.quant.time_quantum > 0.0 &&
        std::isfinite(out.quant.coord_quantum) &&
        out.quant.coord_quantum > 0.0)) {
    return false;
  }
  *header = out;
  return true;
}

// --- frames ---------------------------------------------------------------

/// Appends `payload` as one frame. Refuses (false, `out` untouched) a
/// payload longer than `max_payload`: a reader would take its length for
/// framing loss. `max_payload` must fit the u32 length field.
[[nodiscard]] inline bool AppendFrame(std::string_view payload,
                                      std::size_t max_payload,
                                      std::string* out) {
  if (payload.size() > max_payload) return false;
  const std::size_t base = out->size();
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  const uint32_t crc = crc32c::Extend(crc32c::Value(out->data() + base, 4),
                                      payload.data(), payload.size());
  PutFixed32(out, crc32c::Mask(crc));
  out->append(payload);
  return true;
}

enum class FrameStatus : uint8_t {
  kOk,
  kShortHeader,  ///< Fewer than kFrameHeaderBytes bytes left.
  kBadLength,    ///< Length over the limit or past the end of the input.
  kBadCrc,       ///< Plausible length, checksum mismatch.
};

struct Frame {
  FrameStatus status = FrameStatus::kShortHeader;
  /// Bytes the frame spans (header + payload) when its length was
  /// plausible — kOk and kBadCrc — so a reader can skip it; else 0.
  std::size_t size = 0;
  std::span<const uint8_t> payload;  ///< Set for kOk only.
};

/// Parses the frame at the start of `bytes` under `max_payload`.
inline Frame ParseFrame(std::span<const uint8_t> bytes,
                        std::size_t max_payload) {
  Frame frame;
  if (bytes.size() < kFrameHeaderBytes) return frame;
  const uint8_t* const p = bytes.data();
  const std::size_t len = GetFixed32(p);
  if (len > max_payload || len > bytes.size() - kFrameHeaderBytes) {
    frame.status = FrameStatus::kBadLength;
    return frame;
  }
  frame.size = kFrameHeaderBytes + len;
  const uint32_t crc =
      crc32c::Extend(crc32c::Value(p, 4), p + kFrameHeaderBytes, len);
  if (crc != crc32c::Unmask(GetFixed32(p + 4))) {
    frame.status = FrameStatus::kBadCrc;
    return frame;
  }
  frame.status = FrameStatus::kOk;
  frame.payload = bytes.subspan(kFrameHeaderBytes, len);
  return frame;
}

// --- point columns --------------------------------------------------------

/// a - b and a + b in wrapping (unsigned) arithmetic: arbitrary int64
/// patterns delta-code without signed overflow.
inline int64_t WrapDiff(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Appends the four columns of `points` (layout in the file comment).
inline void PutPointColumns(std::span<const wal::WalPoint> points,
                            std::string* out) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    // The first index is unsigned absolute; later ones zigzag deltas,
    // because the codec must not rely on indices being monotone.
    if (i == 0) {
      varint::PutU64(out, points[i].index);
    } else {
      varint::PutI64(out, static_cast<int64_t>(points[i].index -
                                               points[i - 1].index));
    }
  }
  for (int64_t wal::WalPoint::*column :
       {&wal::WalPoint::qt, &wal::WalPoint::qx, &wal::WalPoint::qy}) {
    int64_t prev = 0;
    for (const wal::WalPoint& p : points) {
      varint::PutI64(out, WrapDiff(p.*column, prev));
      prev = p.*column;
    }
  }
}

/// Decodes `points.size()` points' columns from [*pos, end), advancing
/// *pos. False on truncated or malformed varints.
[[nodiscard]] inline bool GetPointColumns(const uint8_t** pos,
                                          const uint8_t* end,
                                          std::span<wal::WalPoint> points) {
  uint64_t index = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == 0) {
      if (!varint::GetU64(pos, end, &index)) return false;
    } else {
      int64_t d = 0;
      if (!varint::GetI64(pos, end, &d)) return false;
      index += static_cast<uint64_t>(d);
    }
    points[i].index = index;
  }
  for (int64_t wal::WalPoint::*column :
       {&wal::WalPoint::qt, &wal::WalPoint::qx, &wal::WalPoint::qy}) {
    int64_t prev = 0;
    for (wal::WalPoint& p : points) {
      int64_t d = 0;
      if (!varint::GetI64(pos, end, &d)) return false;
      prev = WrapAdd(prev, d);
      p.*column = prev;
    }
  }
  return true;
}

}  // namespace codec
}  // namespace bqs

#endif  // BQS_STORAGE_CODEC_H_
