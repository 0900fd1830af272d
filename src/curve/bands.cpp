#include "robust/curve/bands.hpp"

#include <math.h>

#include <cmath>

#include "robust/util/error.hpp"

namespace robust::curve {

namespace {

/// Lentz's continued fraction for the incomplete beta function
/// (Numerical Recipes form). Converges in a handful of iterations for
/// x < (a + 1) / (a + b + 2), which the caller guarantees.
double betaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) {
    d = kTiny;
  }
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) {
      break;
    }
  }
  return h;
}

/// ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b), through the
/// reentrant lgamma_r: std::lgamma returns the same value but also writes
/// the global signgam, a data race once bands run on several threads.
double lnBetaFunction(double a, double b) {
  int sign = 0;
  return ::lgamma_r(a, &sign) + ::lgamma_r(b, &sign) -
         ::lgamma_r(a + b, &sign);
}

/// I_x(a, b) for x strictly inside (0, 1), given lnBeta = ln B(a, b).
/// Unchecked: the public regularizedIncompleteBeta validates its inputs
/// and the bisection below only probes midpoints of (0, 1).
double incompleteBetaInterior(double a, double b, double x, double lnBeta) {
  const double front =
      std::exp(a * std::log(x) + b * std::log(1.0 - x) - lnBeta);
  // The continued fraction converges fast only on one side of the mean;
  // use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) for the other.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

/// Smallest x with I_x(a, b) >= p, by bisection on (lo, hi) with the
/// invariants I(lo) < p and I(hi) >= p. Once the midpoint rounds onto lo
/// or hi, re-evaluating I there takes the same branch, so every further
/// halving leaves (lo, hi) unchanged: stopping at that fixed point returns
/// the bits the full 200 halvings would. The cap only bounds roots so
/// small that no two adjacent doubles are reached within 200 halvings.
double inverseRegularizedBeta(double p, double a, double b) {
  if (p <= 0.0) {
    return 0.0;
  }
  if (p >= 1.0) {
    return 1.0;
  }
  const double lnBeta = lnBetaFunction(a, b);
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;
    }
    if (incompleteBetaInterior(a, b, mid, lnBeta) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double regularizedIncompleteBeta(double a, double b, double x) {
  ROBUST_REQUIRE(a > 0.0 && b > 0.0,
                 "regularizedIncompleteBeta: shape parameters must be "
                 "positive");
  ROBUST_REQUIRE(x >= 0.0 && x <= 1.0,
                 "regularizedIncompleteBeta: x must lie in [0, 1]");
  if (x <= 0.0) {
    return 0.0;
  }
  if (x >= 1.0) {
    return 1.0;
  }
  return incompleteBetaInterior(a, b, x, lnBetaFunction(a, b));
}

double dkwEpsilon(std::size_t samples, double confidence) {
  ROBUST_REQUIRE(samples > 0, "dkwEpsilon: samples must be positive");
  ROBUST_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "dkwEpsilon: confidence must lie in (0, 1)");
  const double alpha = 1.0 - confidence;
  return std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(samples)));
}

BinomialInterval clopperPearson(std::uint64_t successes, std::uint64_t trials,
                                double confidence) {
  ROBUST_REQUIRE(trials > 0, "clopperPearson: trials must be positive");
  ROBUST_REQUIRE(successes <= trials,
                 "clopperPearson: successes must not exceed trials");
  ROBUST_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "clopperPearson: confidence must lie in (0, 1)");
  const double alpha = 1.0 - confidence;
  const double k = static_cast<double>(successes);
  const double n = static_cast<double>(trials);
  BinomialInterval out;
  out.lower = successes == 0
                  ? 0.0
                  : inverseRegularizedBeta(alpha / 2.0, k, n - k + 1.0);
  out.upper = successes == trials
                  ? 1.0
                  : inverseRegularizedBeta(1.0 - alpha / 2.0, k + 1.0, n - k);
  return out;
}

}  // namespace robust::curve
