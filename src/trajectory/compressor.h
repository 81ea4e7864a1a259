// The streaming compressor interface all algorithms implement (BQS, FBQS,
// BDP, BGD, Dead Reckoning) plus the offline interface (Douglas-Peucker).
//
// Emission protocol: the compressed trajectory is the sequence of segment
// endpoints v1, k1, k2, ..., vn. Push() emits the first point immediately
// and one key point per segment split; Finish() emits the final point of
// the stream (closing the open segment). Consecutive emitted key points are
// exactly the paper's compressed segments.
//
// Key points leave a compressor one way: appended, in stream order, to a
// caller-owned std::vector<KeyPoint>. A caller that forwards them further
// (the service layer's session multiplexer hands each to its FleetSink)
// reads the tail a call appended.
#ifndef BQS_TRAJECTORY_COMPRESSOR_H_
#define BQS_TRAJECTORY_COMPRESSOR_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "trajectory/point.h"
#include "trajectory/trajectory.h"

namespace bqs {

struct DecisionStats;  // core/decision_stats.h; trajectory stays below core.

/// Capacity hint for a stream's compressed output. Streams the paper
/// evaluates compress to ~2-10% of the input, so reserving n/8 (+ slack for
/// the mandatory endpoints) absorbs the common case in one allocation while
/// wasting little when compression is stronger; pathological keep-everything
/// streams grow geometrically from there as usual.
inline std::size_t CompressedSizeHint(std::size_t stream_points) {
  return stream_points / 8 + 2;
}

/// Push-based online compressor. Implementations are single-stream state
/// machines; call Reset() to reuse across streams.
class StreamCompressor {
 public:
  virtual ~StreamCompressor() = default;

  /// Processes the next sample; appends any newly-final key points to *out.
  virtual void Push(const TrackPoint& pt, std::vector<KeyPoint>* out) = 0;

  /// Processes a batch of consecutive samples. Semantically identical to
  /// pushing each point, but overridable so implementations can hoist
  /// per-point dispatch out of their hot loop (SegmentEngine does). This is
  /// what CompressAll and the benches feed whole streams through.
  virtual void PushBatch(std::span<const TrackPoint> points,
                         std::vector<KeyPoint>* out) {
    for (const TrackPoint& pt : points) Push(pt, out);
  }

  /// Ends the stream; appends the closing key point(s) to *out.
  virtual void Finish(std::vector<KeyPoint>* out) = 0;

  /// Restores the freshly-constructed state.
  virtual void Reset() = 0;

  /// Stable short name used in benchmark tables ("BQS", "FBQS", ...).
  virtual std::string_view name() const = 0;

  /// Decision counters since the last Reset(), for implementations that
  /// keep them (the BQS family); nullptr otherwise. Lets the service layer
  /// aggregate pruning-power stats without downcasting.
  virtual const DecisionStats* decision_stats() const { return nullptr; }

  /// Approximate heap bytes of growable per-stream state (segment buffers,
  /// hulls). Excludes the fixed object footprint; 0 means constant-space.
  /// The service layer's memory accounting sums this across live sessions.
  virtual std::size_t StateBytes() const { return 0; }

  /// The deviation bound this compressor guarantees for every segment it
  /// emits (its configured epsilon, in the configured metric); 0 when the
  /// implementation makes no such guarantee. This is the reporting half of
  /// runtime eps widening: a session manager under memory pressure may end
  /// the stream at a segment boundary (Finish) and continue the same
  /// device stream on a compressor minted at a scaled epsilon — each
  /// emitted segment honors the bound of the compressor that produced it,
  /// so the stream-wide guarantee is the maximum ErrorBound() reported
  /// over the stream's lifetime, which the manager surfaces to its sink.
  virtual double ErrorBound() const { return 0.0; }
};

/// Batch compressor (offline algorithms; also used to re-compress stored
/// trajectories during ageing).
class OfflineCompressor {
 public:
  virtual ~OfflineCompressor() = default;

  /// Returns the retained key points of `points`, in order, including the
  /// first and last point for non-empty input.
  virtual CompressedTrajectory Compress(
      std::span<const TrackPoint> points) = 0;

  virtual std::string_view name() const = 0;
};

/// Runs a stream compressor over a full trajectory.
CompressedTrajectory CompressAll(StreamCompressor& compressor,
                                 std::span<const TrackPoint> points);

}  // namespace bqs

#endif  // BQS_TRAJECTORY_COMPRESSOR_H_
