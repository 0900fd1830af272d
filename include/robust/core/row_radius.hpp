// The Eq. 6 radius of one affine row: the closed-form gap / dual-norm rule
// that every fast metric lane shares (CompiledProblem's metric lane, the
// out-of-core stream, the HiPer-D compiled scenario's Tc and L lanes, and
// the drift tracker). Keeping the one copy here keeps the operation order,
// and therefore every pinned result bit, identical across the lanes.
#pragma once

#include <cmath>
#include <limits>

#include "robust/core/feature.hpp"
#include "robust/util/error.hpp"

namespace robust::core {

/// What rowRadius decided for one row.
enum class RowVerdict {
  Radius,    ///< `radius` is the row's exact gap / deff
  Violated,  ///< the row is outside its bounds at the operating point
             ///< (`radius` is 0)
  Pruned,    ///< provably above the incumbent; `radius` is not computed
};

struct RowRadius {
  RowVerdict verdict;
  double radius;
};

/// Radius of the affine row whose value at the operating point is
/// `atOrigin` and whose effective dual norm is `deff`, against `bounds`.
///
/// Operation order (pinned bit for bit): the within-bounds check; the
/// deff > 0 requirement (a row that does not depend on the parameter has
/// no boundary); the nearest-level gap; with `prune`, the skip test
/// gap > incumbent * deff * (1 + 1e-9); then gap / deff. Dividing the
/// minimum gap by one positive denominator is monotone, so min(g) / d
/// carries the exact bits of min(g / d). The prune margin absorbs the
/// rounding of the multiply chain, so a pruned row's radius is strictly
/// above the incumbent and can never win a strict-< selection: pruning
/// changes no result bits.
[[nodiscard]] inline RowRadius rowRadius(double atOrigin, double deff,
                                         const ToleranceBounds& bounds,
                                         double incumbent, bool prune) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool withinMin = !bounds.min || atOrigin >= *bounds.min;
  const bool withinMax = !bounds.max || atOrigin <= *bounds.max;
  if (!withinMin || !withinMax) {
    return {RowVerdict::Violated, 0.0};
  }
  ROBUST_REQUIRE(deff > 0.0,
                 "analytic radius: impact does not depend on the parameter");
  double gap = kInf;
  if (bounds.min) {
    gap = std::fabs(atOrigin - *bounds.min);
  }
  if (bounds.max) {
    const double g2 = std::fabs(atOrigin - *bounds.max);
    if (g2 < gap) {
      gap = g2;
    }
  }
  if (prune && incumbent < kInf && gap > incumbent * deff * (1.0 + 1e-9)) {
    return {RowVerdict::Pruned, kInf};
  }
  return {RowVerdict::Radius, gap / deff};
}

}  // namespace robust::core
