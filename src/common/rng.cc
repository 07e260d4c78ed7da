#include "src/common/rng.h"

#include <cmath>

namespace focus::common {

uint32_t Pcg32::NextBounded(uint32_t n) {
  if (n <= 1) {
    return 0;
  }
  // Lemire's method: multiply-shift with rejection to remove modulo bias.
  uint64_t m = static_cast<uint64_t>(Next()) * n;
  uint32_t low = static_cast<uint32_t>(m);
  if (low < n) {
    uint32_t threshold = (0u - n) % n;  // 2^32 mod n; unsigned, so n >= 2^31 is defined.
    while (low < threshold) {
      m = static_cast<uint64_t>(Next()) * n;
      low = static_cast<uint32_t>(m);
    }
  }
  return static_cast<uint32_t>(m >> 32);
}

int64_t Pcg32::NextInt(int64_t lo, int64_t hi) {
  if (hi <= lo) {
    return lo;
  }
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span <= std::numeric_limits<uint32_t>::max()) {
    return lo + static_cast<int64_t>(NextBounded(static_cast<uint32_t>(span)));
  }
  // Wide range: rejection sample over 64 bits.
  uint64_t limit = std::numeric_limits<uint64_t>::max() - std::numeric_limits<uint64_t>::max() % span;
  uint64_t v = Next64();
  while (v >= limit) {
    v = Next64();
  }
  return lo + static_cast<int64_t>(v % span);
}

double Pcg32::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Pcg32::NextExponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

uint32_t Pcg32::NextPoisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth's multiplication method.
    double limit = std::exp(-mean);
    double product = NextDouble();
    uint32_t count = 0;
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  double v = NextGaussian(mean, std::sqrt(mean)) + 0.5;
  if (v < 0.0) {
    return 0;
  }
  return static_cast<uint32_t>(v);
}

}  // namespace focus::common
