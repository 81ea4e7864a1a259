// Angle arithmetic and the quadrant/octant classification that gives the
// Bounded Quadrant System its name (paper Section V-B and Appendix).
#ifndef BQS_GEOMETRY_ANGLE_H_
#define BQS_GEOMETRY_ANGLE_H_

#include "geometry/vec2.h"
#include "geometry/vec3.h"

namespace bqs {

/// Normalizes an angle to (-pi, pi].
double NormalizeAngle(double angle);

/// Normalizes an angle to [0, 2*pi).
double NormalizeAngle2Pi(double angle);

/// Normalizes an undirected line angle to [0, pi). A line at angle t is the
/// same line at angle t + pi.
double NormalizeLineAngle(double angle);

/// Quadrant index in {0,1,2,3} of a non-zero vector, using half-open angular
/// ranges so points on the axes classify deterministically:
///   q0: theta in [0, pi/2)     q1: theta in [pi/2, pi)
///   q2: theta in [pi, 3pi/2)   q3: theta in [3pi/2, 2pi)
/// (theta measured CCW from +x in [0, 2pi)).
///
/// Implemented by coordinate sign tests — no transcendentals. Tie/boundary
/// semantics (the canonical definition for the whole BQS family):
///   x > 0, y == +-0  -> q0   (theta == 0; both signed zeros)
///   x == +-0, y > 0  -> q1   (theta == pi/2)
///   x < 0, y == +-0  -> q2   (theta == pi; atan2 of -0 is -pi -> pi)
///   x == +-0, y < 0  -> q3   (theta == 3*pi/2)
/// The zero vector maps to q0 (callers exclude it by precondition). These
/// match QuadrantOfAtan2() exactly on axis-aligned and signed-zero input
/// and everywhere min(|x|,|y|) / max(|x|,|y|) > ~5e-16. Inside that
/// sub-ulp sliver the atan2 formula itself misclassifies: fmod-normalizing
/// an angle within half an ulp of 2*pi absorbs a q3 direction into 0 -> q0
/// (and similarly at the other multiples of pi/2, which are not exactly
/// representable). The sign tests are the ground truth there.
int QuadrantOf(Vec2 v);

/// The seed's transcendental classifier: atan2, normalize to [0, 2*pi),
/// divide by pi/2. Kept as the reference implementation the sign-test
/// classifier is differentially tested and micro-benchmarked against (and
/// used by the engine's reference kernel, a test oracle). Counts into
/// ops::atan2_calls.
int QuadrantOfAtan2(Vec2 v);

/// Quadrant of an already-normalized angle theta in [0, 2*pi): the tail of
/// QuadrantOfAtan2 once the angle is in hand. Lets the engine classify and
/// feed QuadrantBound from a single atan2 under the reference kernel.
int ThetaQuadrant(double theta);

/// Inclusive-exclusive angular range [start, end) of a quadrant, with
/// start = q * pi/2 measured in [0, 2pi).
struct QuadrantRange {
  double start;
  double end;
};
QuadrantRange QuadrantAngles(int quadrant);

/// True when the undirected line with direction angle `line_angle` is "in"
/// quadrant q per the paper's definition: theta_l in [start, end) modulo pi.
/// A line is therefore in exactly two (opposite) quadrants.
bool LineInQuadrant(double line_angle, int quadrant);

/// True when the *ray* at angle `ray_angle` (in (-pi, pi]) lies in quadrant
/// q. Used by the point-to-segment distance variant, where the "in quadrant"
/// property is directional (paper Section V-G).
bool RayInQuadrant(double ray_angle, int quadrant);

/// Octant index in {0..7} of a non-zero 3-D vector: bit 0 = (x < 0),
/// bit 1 = (y < 0), bit 2 = (z < 0). Octant 0 is x>=0, y>=0, z>=0.
int OctantOf(Vec3 v);

/// Counter-clockwise angular difference from `from` to `to` in [0, 2*pi).
double CcwDelta(double from, double to);

}  // namespace bqs

#endif  // BQS_GEOMETRY_ANGLE_H_
