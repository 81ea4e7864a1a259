// Deterministic byte-stream reader shared by the fuzz harnesses, plus the
// check macro and the storage-codec oracle the storage harnesses share.
//
// Every harness derives its entire behaviour — options, stream shape, op
// sequence — from the input bytes through this reader, so a crashing
// input is exactly reproducible from the corpus file alone. When the
// bytes run out every primitive returns its zero value, which keeps
// harness behaviour total (no input is rejected, short inputs just
// exercise the defaults).
#ifndef BQS_FUZZ_FUZZ_INPUT_H_
#define BQS_FUZZ_FUZZ_INPUT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/codec.h"

#define FUZZ_CHECK(cond, ...)                                       \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "FUZZ_CHECK failed: %s\n  ", #cond);     \
      std::fprintf(stderr, __VA_ARGS__);                            \
      std::fprintf(stderr, "\n");                                   \
      std::abort();                                                 \
    }                                                               \
  } while (0)

namespace bqs_fuzz {

class FuzzInput {
 public:
  FuzzInput(const uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ >= size_; }

  uint8_t U8() { return pos_ < size_ ? data_[pos_++] : 0; }

  // Split into statements: the two reads must be sequenced (the order of
  // operands of | is unspecified), or corpus files would replay
  // differently across compilers.
  uint16_t U16() {
    const uint16_t hi = U8();
    const uint16_t lo = U8();
    return static_cast<uint16_t>(hi << 8 | lo);
  }

  uint32_t U32() {
    const uint32_t hi = U16();
    const uint32_t lo = U16();
    return hi << 16 | lo;
  }

  bool Bool() { return (U8() & 1) != 0; }

  /// Inclusive integer range; lo when the range is degenerate.
  int IntIn(int lo, int hi) {
    if (hi <= lo) return lo;
    const uint32_t span = static_cast<uint32_t>(hi - lo) + 1;
    return lo + static_cast<int>(U32() % span);
  }

  /// Uniform-ish double in [lo, hi] from 16 bits — coarse on purpose:
  /// fuzzing wants coverage of regimes, not of mantissa bits, and the
  /// coarse grid makes corpus files human-writable.
  double Range(double lo, double hi) {
    const double unit = static_cast<double>(U16()) / 65535.0;
    return lo + (hi - lo) * unit;
  }

  /// Signed step in [-limit, limit] on a 1/256 grid.
  double Step(double limit) { return Range(-limit, limit); }

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

inline std::span<const uint8_t> AsSpan(const std::string& bytes) {
  return {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
}

/// One hostile-but-deterministic int64 from the input: mixes the extreme
/// patterns overflow bugs live at with fuzzer-chosen bit soup.
inline int64_t HostileI64(FuzzInput& in) {
  switch (in.U8() % 8) {
    case 0: return 0;
    case 1: return 1;
    case 2: return -1;
    case 3: return std::numeric_limits<int64_t>::min();
    case 4: return std::numeric_limits<int64_t>::max();
    case 5: return static_cast<int64_t>(in.U32());
    case 6: return -static_cast<int64_t>(in.U32());
    default:
      return static_cast<int64_t>(
          (static_cast<uint64_t>(in.U32()) << 32) | in.U32());
  }
}

/// The storage-codec oracle: `points` survive the point-column coder
/// bit-exactly (and one byte short rejects), and `payload` survives a frame
/// under `max_payload` — the whole frame parses kOk, one byte short is a
/// bad length, and a flipped final byte is a bad CRC that still reports the
/// frame's size.
inline void CheckCodecRoundTrip(std::span<const bqs::wal::WalPoint> points,
                                std::string_view payload,
                                std::size_t max_payload) {
  namespace codec = bqs::codec;
  std::string columns;
  codec::PutPointColumns(points, &columns);
  std::vector<bqs::wal::WalPoint> decoded(points.size());
  const uint8_t* pos = AsSpan(columns).data();
  const uint8_t* const end = pos + columns.size();
  FUZZ_CHECK(codec::GetPointColumns(&pos, end, decoded) && pos == end &&
                 std::equal(decoded.begin(), decoded.end(), points.begin()),
             "point columns do not round-trip (%zu points)", points.size());
  if (!columns.empty()) {
    const uint8_t* p = AsSpan(columns).data();
    FUZZ_CHECK(!codec::GetPointColumns(&p, end - 1, decoded),
               "point columns one byte short decoded");
  }

  std::string framed;
  FUZZ_CHECK(codec::AppendFrame(payload, max_payload, &framed),
             "frame refused a %zu-byte payload", payload.size());
  const codec::Frame frame = codec::ParseFrame(AsSpan(framed), max_payload);
  FUZZ_CHECK(frame.status == codec::FrameStatus::kOk &&
                 frame.size == framed.size() &&
                 std::string_view(
                     reinterpret_cast<const char*>(frame.payload.data()),
                     frame.payload.size()) == payload,
             "frame does not round-trip (%zu bytes)", framed.size());
  FUZZ_CHECK(codec::ParseFrame(AsSpan(framed).first(framed.size() - 1),
                               max_payload)
                     .status == (payload.empty()
                                     ? codec::FrameStatus::kShortHeader
                                     : codec::FrameStatus::kBadLength),
             "frame one byte short is not a short header/bad length");
  std::string flipped = framed;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  const codec::Frame bad = codec::ParseFrame(AsSpan(flipped), max_payload);
  FUZZ_CHECK(bad.status == codec::FrameStatus::kBadCrc &&
                 bad.size == framed.size(),
             "flipped frame byte is not a bad CRC");
}

}  // namespace bqs_fuzz

#endif  // BQS_FUZZ_FUZZ_INPUT_H_
