#include "common/rng.h"

#include <algorithm>

#include "common/math_utils.h"

namespace bqs {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  std::lognormal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

uint64_t Rng::Fork() {
  // splitmix64 step over a fresh draw keeps child streams decorrelated.
  return SplitMix64(engine_());
}

}  // namespace bqs
