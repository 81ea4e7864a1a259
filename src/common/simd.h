#ifndef BQS_COMMON_SIMD_H_
#define BQS_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

// Runtime SIMD dispatch layer for the batch kernel.
//
// This header is the only SIMD surface the rest of the repo sees: plain
// enums, POD context structs over raw doubles, and function pointers.
// The intrinsics themselves live in src/common/simd_avx2.cc (compiled
// with -mavx2) and src/common/simd_sse2.cc (the x86-64 baseline); a
// repo-lint rule keeps them confined there. The common layer sits below
// geometry, so everything here is expressed in raw doubles rather than
// Vec2/TrackPoint.
//
// Dispatch contract:
//   - the CPU is probed once per process (DetectedTier());
//   - `BQS_FORCE_SCALAR` in the environment demotes the active tier to
//     scalar (read on every ActiveTier() call so tests can flip it);
//   - ForceTier()/ClearForcedTier() override both for differential
//     testing, clamped to what the CPU actually supports;
//   - callers snapshot KernelsFor(ActiveTier()) once (the engine does so
//     at construction) and call through the table.
//
// Byte-identity contract: every kernel evaluates exactly the scalar
// expressions, lane-parallel. The reductions are max/min over fabs
// values (associative and commutative bitwise for non-NaN inputs), and
// nothing is fused (the build never enables FMA), so vector and scalar
// tiers produce bit-identical doubles. The screen kernel is additionally
// conservative: any lane it cannot prove conclusively included is left
// for the scalar path, which makes the decision stream byte-identical
// even for non-finite inputs (such lanes always fail the ordered
// compares and fall through to scalar).

namespace bqs::simd {

enum class Tier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// Human-readable tier name ("scalar", "sse2", "avx2").
const char* TierName(Tier tier);

// Raw CPUID capability, probed once per process. Ignores the env knob
// and any forced tier.
Tier DetectedTier();

// Tier the next kernel-table snapshot should use: the forced tier if one
// is set, else scalar when BQS_FORCE_SCALAR is set (to anything but "0"),
// else the detected tier.
Tier ActiveTier();

// Test hooks: force a tier (clamped to DetectedTier()) or restore normal
// detection. Affects subsequently constructed engines, not live ones.
void ForceTier(Tier tier);
void ClearForcedTier();

// RAII guard for differential tests/fuzzers.
class ScopedForceTier {
 public:
  explicit ScopedForceTier(Tier tier) { ForceTier(tier); }
  ~ScopedForceTier() { ClearForcedTier(); }
  ScopedForceTier(const ScopedForceTier&) = delete;
  ScopedForceTier& operator=(const ScopedForceTier&) = delete;
};

// ---------------------------------------------------------------------------
// Screen context, marshalled by the engine once per quadrant-state epoch.
// ---------------------------------------------------------------------------

// Upper-bound candidate cap per quadrant: l1,l2,u1,u2, min/max angular
// extreme, plus at most the four box corners (near/far and wedge-interior
// corners overlap in the same four slots).
inline constexpr int kScreenPointCap = 10;

// What the screen tests per lane. A verdict of 1 always means "trivial
// point, conclusively include, no state mutation and no fallback
// hazard"; kQuadrant mode can additionally report verdict 2 for a
// non-trivial lane whose conclusive include is proven — the decision is
// final, but the include's state effects (quadrant add, exact-state
// append) still run scalar-side. (A pre-rotation segment whose warm-up
// buffer is still empty needs the trivial test alone: PrepareTrivialFn.)
enum class ScreenMode : int {
  // Pre-rotation: the warm-up deviation check (max |rel x q| over the
  // buffered warm-up candidates) must conclusively pass below the guard
  // band, with a non-degenerate end. Trivial lanes only.
  kWarmup = 1,
  // Established rotation: the fast kernel's aggregated quadrant
  // upper-bound compare (see ScreenQuadrant), on every lane.
  kQuadrant = 2,
};

struct ScreenQuadrant {
  // In-quadrant upper-bound candidates (rotated frame).
  double in_px[kScreenPointCap];
  double in_py[kScreenPointCap];
  int in_count;
  // Out-of-quadrant candidates: the four box corners.
  double out_px[4];
  double out_py[4];
  // Quadrant index parity (q & 1); the line metric folds opposite
  // quadrants together, so parity alone selects in/out per lane.
  int parity;
  // True when any corner sits inside the wedge guard band: lanes whose
  // end lands in this quadrant must take the scalar fallback path.
  bool wedge_blocked;
};

struct ScreenState {
  // kQuadrant mode: per-quadrant candidate sets.
  ScreenQuadrant quads[4];
  int num_quads;
  // kWarmup mode: the engine's warm-up buffer, read in place: warm_count
  // points relative to the segment start, x and y in two contiguous
  // arrays (the p - a subtraction the scalar deviation scan needs, done
  // once when the point was buffered). Valid until the buffer next grows.
  const double* warm_px;
  const double* warm_py;
  int warm_count;
  // epsilon * epsilon, the trivial-include threshold on |rel|^2.
  double eps_sq;
  ScreenMode mode;
};

// ---------------------------------------------------------------------------
// Kernel table.
// ---------------------------------------------------------------------------

// Doubles per input point: the prepare kernels read point i's x and y at
// points[i * kPointStrideDoubles] and the double after it. This is the
// layout of TrackPoint (x, y leading, then t and a 2-D velocity), which
// the engine static_asserts where it passes its points in.
inline constexpr std::size_t kPointStrideDoubles = 5;

// Pre-rotation: for each of n points, compute rel = p - origin, |rel|^2,
// and the rotated coordinates {c*rel.x + s*rel.y, -s*rel.x + c*rel.y}
// into rx/ry/nsq.
using PrepareRotatedFn = void (*)(const double* points, std::size_t n,
                                  double origin_x, double origin_y,
                                  double rot_cos, double rot_sin, double* rx,
                                  double* ry, double* nsq);

// Conclusive-include screen. verdicts[i] = 1 iff lane i is a trivial
// point (nsq <= eps_sq) that the decision kernel would include
// conclusively (kQuadrant: upper_sq <= eps_sq * |end|^2 * (1 - 1e-12))
// with no fallback hazard (degenerate end, near-axis sliver, wedge guard
// band); in kQuadrant mode verdicts[i] = 2 iff the same conclusive proof
// holds for a non-trivial lane (decision final, include effects applied
// scalar-side); 0 otherwise. Lanes past the last full vector group are
// written 0 — the scalar tail of the batch loop decides them, which
// keeps non-lane-multiple chunks byte-identical.
using ScreenLanesFn = void (*)(const ScreenState& state, const double* rx,
                               const double* ry, const double* nsq,
                               std::size_t n, unsigned char* verdicts);

// Fused trivial screen for pre-rotation chunks whose warm-up buffer is
// empty: one pass computing |p_i - origin|^2 and writing verdicts[i] = 1
// iff it is <= eps_sq (the same ordered compare as the scalar trivial
// test; NaN lanes decline). No SoA arrays are written — the decision
// needs neither the rotated frame nor the norm downstream, so the fused
// form halves the memory traffic of the dominant parked-device path.
// Lanes past the last full vector group are written 0 (scalar tail
// decides).
using PrepareTrivialFn = void (*)(const double* points, std::size_t n,
                                  double origin_x, double origin_y,
                                  double eps_sq, unsigned char* verdicts);

// Exact line-metric deviation scan of a flat buffer: max over i < n of
// |dx * y[i] - dy * x[i]|, where (x[i], y[i]) is buffered point i relative
// to the segment start (two contiguous arrays, structure-of-arrays) and
// (dx, dy) is the candidate end relative to the same start. This is the
// cross product |d x (p_i - a)| of the deviation scan with p_i - a
// subtracted once at append time; n == 0 returns 0.
using MaxAbsCrossFn = double (*)(const double* x, const double* y,
                                 std::size_t n, double dx, double dy);

struct KernelTable {
  PrepareRotatedFn prepare_rotated;
  ScreenLanesFn screen_lanes;
  PrepareTrivialFn prepare_trivial;
  MaxAbsCrossFn max_abs_cross;
  Tier tier;
  // Vector width in doubles (1 for the scalar table).
  std::size_t lanes;
};

// Table for a tier; tiers the CPU (or build target) lacks degrade to the
// scalar table.
const KernelTable& KernelsFor(Tier tier);

namespace internal {
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelTable kAvx2Kernels;  // simd_avx2.cc
extern const KernelTable kSse2Kernels;  // simd_sse2.cc
#endif
}  // namespace internal

}  // namespace bqs::simd

#endif  // BQS_COMMON_SIMD_H_
