// On-disk format of compacted key-point block files — the read-optimized
// half of the storage layer (the WAL in wal_format.h is the write half).
// The header, frame and point-column layouts are the shared storage codec
// (storage/codec.h); this file holds only what is the block format's own.
//
// A block directory holds numbered block files ("blk-000001.bqb", ...)
// published by the compactor (storage/compaction.h) plus a MANIFEST
// (storage/manifest.h) naming which of them are live. Each block file is a
// codec file header (magic 'BQBK', count = the number of blocks) followed
// by one frame per block, each payload at most kMaxBlockPayload bytes.
//
//   Block payload — whole WAL checkpoints from ONE device, seq-ascending,
//   re-encoded columnarly:
//     device            varint
//     checkpoint_count  varint   n >= 1
//     seq run:          seq0 varint, then zigzag deltas (n-1 values)
//     count run:        points per checkpoint, varint each (all >= 1)
//     point_count       varint   sum of the count run (redundancy check)
//     bbox:             qt_min qt_max qx_min qx_max qy_min qy_max, zigzag
//     the columns of all point_count points, flattened (codec.h)
//
// Why this shape:
//   * Checkpoint boundaries (seq + count runs) survive compaction, so a
//     decoded block reproduces the exact WalCheckpoints the WAL acked —
//     "recovers exactly the acked prefix" stays a bit-level equality even
//     after records have been rewritten into blocks.
//   * Columns delta-code the whole device run, not per-checkpoint, so the
//     first point of checkpoint k is a small delta from the last point of
//     checkpoint k-1 — denser than the WAL's per-record absolutes.
//   * The bbox + time span ride in the payload (and again in the MANIFEST)
//     so a range query prunes blocks without decoding them; the decoder
//     re-derives both and rejects a payload whose embedded metadata lies.
#ifndef BQS_STORAGE_BLOCK_FORMAT_H_
#define BQS_STORAGE_BLOCK_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "storage/codec.h"
#include "storage/wal_format.h"
#include "trajectory/point.h"

namespace bqs {
namespace blk {

inline constexpr uint32_t kBlockMagic = 0x4b425142u;  // 'BQBK' little-endian
/// Upper bound on one block payload; the compactor refuses a block that
/// encodes longer, and a reader takes a longer length for corruption.
inline constexpr std::size_t kMaxBlockPayload = std::size_t{1} << 26;

/// Everything a reader may know about a block without decoding it — the
/// pruning metadata. Stored inside the block payload (self-check) and in
/// the MANIFEST entry referencing the block (prune without I/O).
struct BlockMeta {
  DeviceId device = 0;
  uint64_t first_seq = 0;         ///< Lowest WAL checkpoint seq inside.
  uint64_t last_seq = 0;          ///< Highest.
  uint64_t checkpoint_count = 0;
  uint64_t point_count = 0;
  int64_t qt_min = 0, qt_max = 0;  ///< Time span, quantum steps.
  int64_t qx_min = 0, qx_max = 0;  ///< Bounding box, quantum steps.
  int64_t qy_min = 0, qy_max = 0;

  constexpr bool operator==(const BlockMeta&) const = default;
};

/// Appends the varint encoding of a BlockMeta (manifest entries and the
/// block payload share this layout).
inline void PutBlockMeta(std::string* out, const BlockMeta& m) {
  varint::PutU64(out, m.device);
  varint::PutU64(out, m.first_seq);
  varint::PutU64(out, m.last_seq);
  varint::PutU64(out, m.checkpoint_count);
  varint::PutU64(out, m.point_count);
  varint::PutI64(out, m.qt_min);
  varint::PutI64(out, m.qt_max);
  varint::PutI64(out, m.qx_min);
  varint::PutI64(out, m.qx_max);
  varint::PutI64(out, m.qy_min);
  varint::PutI64(out, m.qy_max);
}

inline bool GetBlockMeta(const uint8_t** pos, const uint8_t* end,
                         BlockMeta* m) {
  uint64_t device = 0;
  if (!varint::GetU64(pos, end, &device)) return false;
  m->device = device;
  if (!varint::GetU64(pos, end, &m->first_seq)) return false;
  if (!varint::GetU64(pos, end, &m->last_seq)) return false;
  if (!varint::GetU64(pos, end, &m->checkpoint_count)) return false;
  if (!varint::GetU64(pos, end, &m->point_count)) return false;
  if (!varint::GetI64(pos, end, &m->qt_min)) return false;
  if (!varint::GetI64(pos, end, &m->qt_max)) return false;
  if (!varint::GetI64(pos, end, &m->qx_min)) return false;
  if (!varint::GetI64(pos, end, &m->qx_max)) return false;
  if (!varint::GetI64(pos, end, &m->qy_min)) return false;
  if (!varint::GetI64(pos, end, &m->qy_max)) return false;
  return true;
}

/// Computes the pruning metadata of a run of checkpoints (all from one
/// device, seq-ascending). Precondition: at least one checkpoint, every
/// checkpoint non-empty.
inline BlockMeta ComputeBlockMeta(
    std::span<const wal::WalCheckpoint> checkpoints) {
  BlockMeta m;
  m.device = checkpoints.front().device;
  m.first_seq = checkpoints.front().seq;
  m.last_seq = checkpoints.back().seq;
  m.checkpoint_count = checkpoints.size();
  bool first = true;
  for (const wal::WalCheckpoint& c : checkpoints) {
    m.point_count += c.points.size();
    for (const wal::WalPoint& p : c.points) {
      if (first) {
        m.qt_min = m.qt_max = p.qt;
        m.qx_min = m.qx_max = p.qx;
        m.qy_min = m.qy_max = p.qy;
        first = false;
        continue;
      }
      if (p.qt < m.qt_min) m.qt_min = p.qt;
      if (p.qt > m.qt_max) m.qt_max = p.qt;
      if (p.qx < m.qx_min) m.qx_min = p.qx;
      if (p.qx > m.qx_max) m.qx_max = p.qx;
      if (p.qy < m.qy_min) m.qy_min = p.qy;
      if (p.qy > m.qy_max) m.qy_max = p.qy;
    }
  }
  return m;
}

// --- blocks ---------------------------------------------------------------

/// Appends the framed columnar encoding of one device's checkpoint run and
/// reports its pruning metadata. False (nothing appended) when the payload
/// exceeds kMaxBlockPayload. Precondition: `checkpoints` non-empty, every
/// checkpoint non-empty, one device, seq-ascending (the compactor's
/// grouping guarantees all three).
[[nodiscard]] inline bool EncodeBlock(
    std::span<const wal::WalCheckpoint> checkpoints, std::string* out,
    BlockMeta* meta = nullptr) {
  const BlockMeta m = ComputeBlockMeta(checkpoints);
  if (meta != nullptr) *meta = m;

  std::string payload;
  varint::PutU64(&payload, m.device);
  varint::PutU64(&payload, m.checkpoint_count);
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    if (i == 0) {
      varint::PutU64(&payload, checkpoints[i].seq);
    } else {
      varint::PutI64(&payload, static_cast<int64_t>(checkpoints[i].seq -
                                                    checkpoints[i - 1].seq));
    }
  }
  std::vector<wal::WalPoint> points;
  points.reserve(static_cast<std::size_t>(m.point_count));
  for (const wal::WalCheckpoint& c : checkpoints) {
    varint::PutU64(&payload, c.points.size());
    points.insert(points.end(), c.points.begin(), c.points.end());
  }
  varint::PutU64(&payload, m.point_count);
  varint::PutI64(&payload, m.qt_min);
  varint::PutI64(&payload, m.qt_max);
  varint::PutI64(&payload, m.qx_min);
  varint::PutI64(&payload, m.qx_max);
  varint::PutI64(&payload, m.qy_min);
  varint::PutI64(&payload, m.qy_max);
  codec::PutPointColumns(points, &payload);
  return codec::AppendFrame(payload, kMaxBlockPayload, out);
}

/// Decodes a block payload (a frame's payload bytes) back into the exact
/// checkpoints it was encoded from. Total on arbitrary bytes; false on
/// truncation, malformed varints, count implausibility, or embedded
/// metadata that disagrees with the decoded points — a CRC-valid payload
/// that lies about its own bbox/counts is rejected, never trusted.
inline bool DecodeBlockPayload(std::span<const uint8_t> payload,
                               BlockMeta* meta,
                               std::vector<wal::WalCheckpoint>* out) {
  const uint8_t* p = payload.data();
  const uint8_t* end = p + payload.size();
  uint64_t device = 0, ckpt_count = 0;
  if (!varint::GetU64(&p, end, &device)) return false;
  if (!varint::GetU64(&p, end, &ckpt_count)) return false;
  // Each checkpoint costs >= 2 payload bytes (seq + count varints); each
  // point >= 4 bytes (one per column). Lying counts are rejected before
  // any reserve so they cannot balloon memory.
  if (ckpt_count == 0 || ckpt_count > payload.size() / 2 + 1) return false;

  std::vector<uint64_t> seqs;
  seqs.reserve(static_cast<std::size_t>(ckpt_count));
  uint64_t prev_seq = 0;
  for (uint64_t i = 0; i < ckpt_count; ++i) {
    if (i == 0) {
      if (!varint::GetU64(&p, end, &prev_seq)) return false;
    } else {
      int64_t d = 0;
      if (!varint::GetI64(&p, end, &d)) return false;
      prev_seq += static_cast<uint64_t>(d);
    }
    seqs.push_back(prev_seq);
  }

  std::vector<uint64_t> counts;
  counts.reserve(static_cast<std::size_t>(ckpt_count));
  uint64_t total_from_counts = 0;
  for (uint64_t i = 0; i < ckpt_count; ++i) {
    uint64_t c = 0;
    if (!varint::GetU64(&p, end, &c)) return false;
    if (c == 0 || c > payload.size() / 4 + 1) return false;
    total_from_counts += c;
    if (total_from_counts > payload.size() / 4 + 1) return false;
    counts.push_back(c);
  }

  uint64_t point_count = 0;
  if (!varint::GetU64(&p, end, &point_count)) return false;
  if (point_count != total_from_counts) return false;

  BlockMeta m;
  m.device = device;
  m.first_seq = seqs.front();
  m.last_seq = seqs.back();
  m.checkpoint_count = ckpt_count;
  m.point_count = point_count;
  if (!varint::GetI64(&p, end, &m.qt_min)) return false;
  if (!varint::GetI64(&p, end, &m.qt_max)) return false;
  if (!varint::GetI64(&p, end, &m.qx_min)) return false;
  if (!varint::GetI64(&p, end, &m.qx_max)) return false;
  if (!varint::GetI64(&p, end, &m.qy_min)) return false;
  if (!varint::GetI64(&p, end, &m.qy_max)) return false;

  std::vector<wal::WalPoint> points(static_cast<std::size_t>(point_count));
  if (!codec::GetPointColumns(&p, end, points)) return false;
  if (p != end) return false;  // trailing garbage inside a CRC-valid block

  std::vector<wal::WalCheckpoint> checkpoints;
  checkpoints.reserve(static_cast<std::size_t>(ckpt_count));
  std::size_t offset = 0;
  for (uint64_t i = 0; i < ckpt_count; ++i) {
    wal::WalCheckpoint c;
    c.device = device;
    c.seq = seqs[static_cast<std::size_t>(i)];
    const std::size_t n =
        static_cast<std::size_t>(counts[static_cast<std::size_t>(i)]);
    c.points.assign(points.begin() + static_cast<std::ptrdiff_t>(offset),
                    points.begin() + static_cast<std::ptrdiff_t>(offset + n));
    offset += n;
    checkpoints.push_back(std::move(c));
  }

  // The embedded metadata must match what the points actually say; a
  // mismatch means an encoder bug or a crafted payload, and trusting a
  // lying bbox would make pruning silently wrong.
  if (ComputeBlockMeta(checkpoints) != m) return false;

  if (meta != nullptr) *meta = m;
  *out = std::move(checkpoints);
  return true;
}

}  // namespace blk
}  // namespace bqs

#endif  // BQS_STORAGE_BLOCK_FORMAT_H_
