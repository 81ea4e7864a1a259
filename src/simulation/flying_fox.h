// Behavioural simulator standing in for the paper's flying-fox (megabat)
// GPS dataset: five Camazotz-tagged bats tracked for six months around
// Brisbane (Section III-A, VI-A). The model reproduces the dataset's
// compression-relevant statistics: long camp (roost) stays with metre-scale
// GPS jitter, nightly foraging trips of ~10 km at 20-50 km/h, unconstrained
// 3-D flight giving arbitrary heading changes, and 1-fix-per-minute
// sampling. See README.md, "Paper-faithfulness notes", for why it
// substitutes for the real data.
#ifndef BQS_SIMULATION_FLYING_FOX_H_
#define BQS_SIMULATION_FLYING_FOX_H_

#include <cstdint>

#include "trajectory/trajectory.h"

namespace bqs {

/// Parameters of one bat's trace.
struct FlyingFoxOptions {
  int num_nights = 14;               ///< Nights of tracking.
  double sample_interval_s = 60.0;   ///< Paper: 1 GPS fix per minute.
  double camp_lat = -27.4698;        ///< Roost camp (Brisbane).
  double camp_lon = 153.0251;
  double forage_radius_m = 8000.0;   ///< Typical trip reach (~10 km trips).
  double cruise_speed_mps = 9.7;     ///< ~35 km/h.
  double max_speed_mps = 13.9;       ///< ~50 km/h.
  /// Commuting flight is quite direct at the 1-minute fix scale; the wobble
  /// around the goal direction has sd ~ 1/sqrt(kappa) radians per fix.
  double heading_kappa = 2200.0;
  /// GPS error is modelled as a slowly-drifting AR(1) bias (multipath /
  /// ephemeris drift) plus a small white component: consecutive fixes of a
  /// stationary receiver differ by ~1-2 m even though the absolute error
  /// is several metres, matching real stationary GPS scatter.
  double gps_drift_m = 3.0;          ///< Stationary sd of the AR(1) bias.
  double gps_drift_rho = 0.995;      ///< AR(1) coefficient per fix.
  double gps_white_m = 0.6;          ///< White component sd.
  double roost_jitter_m = 2.0;       ///< Movement within the camp tree.
  int forage_sites_min = 1;          ///< Foraging stops per night.
  int forage_sites_max = 3;
  double forage_dwell_min_s = 1200.0;   ///< 20 min..
  double forage_dwell_max_s = 5400.0;   ///< ..90 min per stop.
  double night_hours = 9.0;          ///< Active window per night.
  /// The paper's budget assumes 1 fix/min around the clock; long roost
  /// stays are exactly what makes bat data so compressible (Section VI-C).
  double day_fix_interval_s = 60.0;
  uint64_t seed = 7;
};

/// One bat's geographic trace across `num_nights` nights.
GeoTrace GenerateFlyingFoxTrace(const FlyingFoxOptions& options);

}  // namespace bqs

#endif  // BQS_SIMULATION_FLYING_FOX_H_
