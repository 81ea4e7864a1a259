// On-disk format of the key-point write-ahead log (storage/keypoint_wal.h).
// The header, frame and point-column layouts are the shared storage codec
// (storage/codec.h); this file holds only what is the WAL's own.
//
// A WAL directory holds numbered segment files ("wal-000001.log", ...).
// Each segment is a codec file header (magic 'BQWL', seq = the sequence of
// the first record appended to the segment) followed by one frame per
// record, each payload at most kMaxRecordPayload bytes.
//
//   Record payload — one checkpoint (the WAL's ack unit: a batch of key
//   points one device session emitted):
//     device  varint
//     seq     varint   writer-assigned, monotone across segments
//     count   varint   number of points, >= 1
//     the count points' columns (codec.h)
//
// Coordinates and timestamps are *quantized* (llround(v / quantum)) before
// encoding, per the split-error-budget design: the compressor guarantees
// eps_simplify, the log adds at most quantum/2 per axis, and the combined
// bound eps_simplify + coord_quantum is what the recovery tests assert end
// to end. Quantized integers also make "bit-exact recovery" a well-defined
// property — the WalCheckpoint *is* the acked unit, identical before
// write and after replay.
#ifndef BQS_STORAGE_WAL_FORMAT_H_
#define BQS_STORAGE_WAL_FORMAT_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "storage/codec.h"
#include "trajectory/point.h"

namespace bqs {
namespace wal {

inline constexpr uint32_t kWalMagic = 0x4c575142u;  // 'BQWL' little-endian
inline constexpr std::size_t kSegmentHeaderBytes = codec::kFileHeaderBytes;
inline constexpr std::size_t kRecordHeaderBytes = codec::kFrameHeaderBytes;
/// Upper bound on one record payload. The writer refuses a checkpoint
/// that encodes longer; the reader takes a longer length for framing loss.
inline constexpr std::size_t kMaxRecordPayload = std::size_t{1} << 24;

/// The WAL's ack unit: a batch of key points from one device session.
/// What Append() persists and Recover() returns — comparing these for
/// equality is the "bit-exact recovery" the crash tests gate on.
struct WalCheckpoint {
  DeviceId device = 0;
  uint64_t seq = 0;  ///< Writer-assigned, monotone across segments.
  std::vector<WalPoint> points;

  bool operator==(const WalCheckpoint&) const = default;
};

/// One value in quantum steps, clamped to a range llround handles without
/// tripping the implementation-defined overflow path (non-finite or
/// astronomically scaled inputs saturate instead — the codec must stay
/// total even when a fuzzer invents the coordinates).
inline int64_t QuantizeValue(double v, double quantum) {
  const double scaled = v / quantum;
  constexpr double kLimit = 4.6e18;  // < 2^62, comfortably inside int64
  if (!(scaled > -kLimit)) return static_cast<int64_t>(-kLimit);
  if (!(scaled < kLimit)) return static_cast<int64_t>(kLimit);
  return std::llround(scaled);
}

/// Quantizes one emitted key point. Velocity is deliberately dropped: it
/// is derivable context, not paper-precious state.
inline WalPoint Quantize(const KeyPoint& key, const WalQuantization& q) {
  WalPoint p;
  p.index = key.index;
  p.qt = QuantizeValue(key.point.t, q.time_quantum);
  p.qx = QuantizeValue(key.point.pos.x, q.coord_quantum);
  p.qy = QuantizeValue(key.point.pos.y, q.coord_quantum);
  return p;
}

/// Reconstructs the key point a WalPoint stands for. Within quantum/2 of
/// the original on every axis, by construction.
inline KeyPoint Dequantize(const WalPoint& p, const WalQuantization& q) {
  KeyPoint key;
  key.index = p.index;
  key.point.t = static_cast<double>(p.qt) * q.time_quantum;
  key.point.pos.x = static_cast<double>(p.qx) * q.coord_quantum;
  key.point.pos.y = static_cast<double>(p.qy) * q.coord_quantum;
  return key;
}

/// Appends the record payload of one checkpoint given as its parts (the
/// writer's no-copy path). Precondition: `points` is non-empty.
inline void EncodeRecordPayload(DeviceId device, uint64_t seq,
                                std::span<const WalPoint> points,
                                std::string* out) {
  varint::PutU64(out, device);
  varint::PutU64(out, seq);
  varint::PutU64(out, points.size());
  codec::PutPointColumns(points, out);
}

/// Appends one checkpoint as a framed record. False (nothing appended)
/// when its payload exceeds kMaxRecordPayload. Precondition:
/// checkpoint.points is non-empty.
[[nodiscard]] inline bool EncodeRecord(const WalCheckpoint& checkpoint,
                                       std::string* out) {
  std::string payload;
  EncodeRecordPayload(checkpoint.device, checkpoint.seq, checkpoint.points,
                      &payload);
  return codec::AppendFrame(payload, kMaxRecordPayload, out);
}

/// Decodes a record payload (a frame's payload bytes). False when the
/// varint stream is truncated, malformed, or disagrees with its own point
/// count — the payload passed its CRC, so a decode failure here means an
/// encoder bug or a deliberately crafted record; either way the reader
/// must reject it cleanly, never trust it.
inline bool DecodeRecordPayload(std::span<const uint8_t> payload,
                                WalCheckpoint* out) {
  const uint8_t* p = payload.data();
  const uint8_t* end = p + payload.size();
  uint64_t device = 0, seq = 0, count = 0;
  if (!varint::GetU64(&p, end, &device)) return false;
  if (!varint::GetU64(&p, end, &seq)) return false;
  if (!varint::GetU64(&p, end, &count)) return false;
  // Each point needs >= 4 payload bytes; anything claiming more points
  // than could fit is malformed without further reads (this also caps the
  // allocation below, so a lying count cannot balloon memory).
  if (count == 0 || count > payload.size() / 4 + 1) return false;
  WalCheckpoint checkpoint;
  checkpoint.device = device;
  checkpoint.seq = seq;
  checkpoint.points.resize(static_cast<std::size_t>(count));
  if (!codec::GetPointColumns(&p, end, checkpoint.points)) return false;
  if (p != end) return false;  // trailing garbage inside a CRC-valid record
  *out = std::move(checkpoint);
  return true;
}

}  // namespace wal
}  // namespace bqs

#endif  // BQS_STORAGE_WAL_FORMAT_H_
