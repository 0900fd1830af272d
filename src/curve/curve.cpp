#include "robust/curve/curve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "robust/numeric/simd.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/random/distributions.hpp"
#include "robust/util/error.hpp"
#include "robust/util/lru_cache.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::curve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Norm of one subspace block. L1/L2/LInf ride the fixed-order blocked
/// kernels (bit-identical scalar vs AVX2); the weighted norm is a plain
/// element-order loop — sequential, so equally deterministic.
double blockNorm(core::NormKind kind, std::span<const double> x,
                 std::span<const double> w) {
  switch (kind) {
    case core::NormKind::L1:
      return num::simd::norm1Blocked(x);
    case core::NormKind::L2:
      return num::simd::norm2Blocked(x);
    case core::NormKind::LInf:
      return num::simd::normInfBlocked(x);
    case core::NormKind::Weighted: {
      double acc = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        acc += w[i] * x[i] * x[i];
      }
      return std::sqrt(acc);
    }
  }
  return 0.0;
}

}  // namespace

double displacementNorm(const core::CompiledProblem& problem,
                        std::span<const double> displacement) {
  ROBUST_REQUIRE(displacement.size() == problem.dimension(),
                 "displacementNorm: displacement dimension mismatch");
  const auto& subs = problem.subspaces();
  double combined = 0.0;
  for (std::size_t s = 0; s < subs.size(); ++s) {
    const std::size_t lo = problem.subspaceOffset(s);
    const std::size_t hi = problem.subspaceOffset(s + 1);
    const std::span<const double> block = displacement.subspan(lo, hi - lo);
    const auto kind = static_cast<core::NormKind>(subs[s].norm);
    std::span<const double> w(subs[s].normWeights);
    if (kind == core::NormKind::Weighted && w.empty()) {
      w = std::span<const double>(problem.options().normWeights)
              .subspan(lo, hi - lo);
    }
    combined = std::max(combined, blockNorm(kind, block, w));
  }
  return combined;
}

/// The engine proper. A class (not free functions) because it is the named
/// friend of core::CompiledProblem: it reads the packed rows, the
/// compile-cached origin dots, and the effective dual norms directly.
class CurveEngine {
 public:
  /// One affine row of the fast-lane plan, pre-resolved against the
  /// compiled defaults. gapMax / gapMin are the slack to the upper / lower
  /// tolerance bound at the origin (+inf when the bound is absent);
  /// originRadius = min gap / effective dual norm is a provable lower
  /// bound on any crossing radius along ANY unit direction (Hoelder:
  /// |a . u| <= dual norm), which is what makes the sorted-row prune a
  /// pure skip-of-losers.
  struct Row {
    double originRadius = kInf;
    double gapMax = kInf;
    double gapMin = kInf;
  };

  struct FastPlan {
    std::size_t dim = 0;
    std::size_t rows = 0;          ///< active rows, pruning order
    std::vector<double> weights;   ///< row-major [rows x dim], sorted
    std::vector<Row> rowInfo;      ///< ascending originRadius
    bool originViolated = false;   ///< some bound already broken at r = 0
  };

  /// The closed-form lane needs every feature on an analytic affine row,
  /// one continuous subspace, and no feasibility clipping.
  static bool fastLaneEligible(const core::CompiledProblem& p) {
    return p.fastSolver_ && !p.multi_ && p.callables_.empty() &&
           p.constraints_.empty() && !anyDiscrete(p);
  }

  /// True when the parameter or any subspace is integer-valued.
  static bool anyDiscrete(const core::CompiledProblem& p) {
    return p.parameter_.discrete ||
           std::any_of(p.subspaces_.begin(), p.subspaces_.end(),
                       [](const auto& sub) { return sub.discrete; });
  }

  static FastPlan buildFastPlan(const core::CompiledProblem& p) {
    FastPlan plan;
    plan.dim = p.dim_;
    struct Cand {
      double originRadius;
      double gapMax;
      double gapMin;
      std::size_t row;
    };
    std::vector<Cand> cands;
    cands.reserve(p.features_.size());
    for (std::size_t f = 0; f < p.features_.size(); ++f) {
      const std::size_t row = p.rowIndex_[f];
      const double value = p.dotOrigin_[row] + p.constants_[f];
      const auto& bounds = p.features_[f].bounds;
      double gapMax = kInf;
      double gapMin = kInf;
      if (bounds.max) {
        gapMax = *bounds.max - value;
      }
      if (bounds.min) {
        gapMin = value - *bounds.min;
      }
      if (gapMax < 0.0 || gapMin < 0.0) {
        plan.originViolated = true;
        return plan;
      }
      const double deff = p.effDual_[row];
      if (!(deff > 0.0)) {
        continue;  // constant feature: no direction ever moves it
      }
      cands.push_back({std::min(gapMax, gapMin) / deff, gapMax, gapMin, row});
    }
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.originRadius != b.originRadius) {
        return a.originRadius < b.originRadius;
      }
      return a.row < b.row;
    });
    plan.rows = cands.size();
    plan.weights.resize(plan.rows * plan.dim);
    plan.rowInfo.resize(plan.rows);
    for (std::size_t i = 0; i < plan.rows; ++i) {
      std::copy_n(p.weights_.data() + cands[i].row * plan.dim, plan.dim,
                  plan.weights.data() + i * plan.dim);
      plan.rowInfo[i] = Row{cands[i].originRadius, cands[i].gapMax,
                            cands[i].gapMin};
    }
    return plan;
  }

  /// Sample i's unit direction: standard Gaussians from the counter-based
  /// substream (scheduling-independent by construction), normalized under
  /// the problem's displacement norm. The all-but-impossible zero draw
  /// falls back to the first axis so the kernel never divides by zero.
  static void sampleDirection(const core::CompiledProblem& p,
                              std::uint64_t seed, std::size_t sample,
                              std::span<double> u) {
    Pcg32 rng = makeStream(seed, kCurveStreamFamily,
                           static_cast<std::uint64_t>(sample));
    const std::size_t dim = u.size();
    std::size_t k = 0;
    while (k + 1 < dim) {
      rnd::standardNormalPair(rng, u[k], u[k + 1]);
      k += 2;
    }
    if (k < dim) {
      double z0 = 0.0;
      double z1 = 0.0;
      rnd::standardNormalPair(rng, z0, z1);
      u[k] = z0;
    }
    double norm = displacementNorm(p, {u.data(), u.size()});
    if (!(norm > 0.0) || !std::isfinite(norm)) {
      std::fill(u.begin(), u.end(), 0.0);
      u[0] = 1.0;
      norm = displacementNorm(p, {u.data(), u.size()});
    }
    const double inv = 1.0 / norm;
    for (double& v : u) {
      v *= inv;
    }
  }

  /// Closed-form critical radius along `u`: per row the feature moves as
  /// value(r) = value(0) + r * (a . u), so the upper bound breaks at
  /// gapMax / slope (slope > 0) and the lower bound at gapMin / -slope
  /// (slope < 0); the sample's critical radius is the minimum crossing.
  /// Rows stream through dotRowsBlocked in blocks of 8; with `prune`, the
  /// loop stops once even the best possible crossing of the remaining
  /// (sorted) rows provably exceeds the incumbent — the 1e-9 relative
  /// margin absorbs kernel-dot and normalization rounding, so pruning
  /// never changes the returned bits (pinned by tests).
  static double criticalRadiusFast(const FastPlan& plan,
                                   std::span<const double> u, double* slopes,
                                   bool prune, std::uint64_t& rowsVisited) {
    constexpr std::size_t kBlock = 8;
    double best = kInf;
    for (std::size_t start = 0; start < plan.rows; start += kBlock) {
      if (prune && plan.rowInfo[start].originRadius > best * (1.0 + 1e-9)) {
        break;
      }
      const std::size_t n = std::min(kBlock, plan.rows - start);
      num::simd::dotRowsBlocked(plan.weights.data() + start * plan.dim, n, u,
                                slopes);
      for (std::size_t j = 0; j < n; ++j) {
        const Row& row = plan.rowInfo[start + j];
        const double s = slopes[j];
        if (s > 0.0 && row.gapMax < kInf) {
          const double t = row.gapMax / s;
          if (t < best) {
            best = t;
          }
        } else if (s < 0.0 && row.gapMin < kInf) {
          const double t = row.gapMin / -s;
          if (t < best) {
            best = t;
          }
        }
      }
      rowsVisited += n;
    }
    return best;
  }

  /// Full-lane violation predicate at one perturbation point: any feature
  /// outside its tolerance bounds. Hard-infeasible points are outside the
  /// perturbation space the radius search counts, so they never violate.
  static bool violates(const core::CompiledProblem& p,
                       std::span<const double> x) {
    if (!p.constraints_.empty() && !p.originFeasible(x)) {
      return false;
    }
    for (const auto& f : p.features_) {
      if (!f.bounds.contains(f.impact.evaluate(x))) {
        return true;
      }
    }
    return false;
  }

  /// Full-lane critical radius: expanding bracket (doubling from `scale`)
  /// until the predicate fires, then 100 bisection halvings. Discrete
  /// perturbations floor the result, mirroring the Section 3.2 metric
  /// floor (floor is monotone, so min over samples stays >= rho).
  static double criticalRadiusFull(const core::CompiledProblem& p,
                                   std::span<const double> u, num::Vec& point,
                                   double scale, bool floorRadius) {
    const std::span<const double> origin(p.parameter_.origin);
    auto violatesAt = [&](double r) {
      for (std::size_t k = 0; k < origin.size(); ++k) {
        point[k] = origin[k] + r * u[k];
      }
      return violates(p, {point.data(), point.size()});
    };
    if (violatesAt(0.0)) {
      return 0.0;
    }
    double lo = 0.0;
    double hi = scale;
    bool found = false;
    for (int i = 0; i < 80; ++i) {
      if (violatesAt(hi)) {
        found = true;
        break;
      }
      lo = hi;
      hi *= 2.0;
    }
    if (!found) {
      return kInf;
    }
    for (int i = 0; i < 100; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (violatesAt(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return floorRadius ? std::floor(hi) : hi;
  }

  /// Counts one finished shard (both lanes). Samples land in disjoint
  /// output slots and each is a pure function of its substream, so the
  /// result is identical for every worker count and shard schedule.
  static void countShard() {
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kShards = obs::counterId("curve.shards");
      obs::addCounter(kShards);
    }
  }

  static CurveResult run(const core::CompiledProblem& p,
                         const CurveOptions& o) {
    CurveResult r;
    r.samples = o.samples;
    r.seed = o.seed;
    r.confidence = o.confidence;
    r.dkwEpsilon = curve::dkwEpsilon(o.samples, o.confidence);
    r.rho = p.evaluateMetric().metric;
    r.fastLane = fastLaneEligible(p);
    r.radii.assign(o.samples, 0.0);
    {
      const obs::Span span("curve.samples");
      sampleRadii(p, o, r);
    }
    {
      const obs::Span span("curve.sort");
      std::sort(r.radii.begin(), r.radii.end());
      r.finiteRadii = static_cast<std::size_t>(
          std::lower_bound(r.radii.begin(), r.radii.end(), kInf) -
          r.radii.begin());
    }
    {
      const obs::Span span("curve.bands");
      buildPoints(r, o.gridPoints, o.threads);
    }

    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kSamples = obs::counterId("curve.samples");
      obs::addCounter(kSamples, o.samples);
    }
    return r;
  }

  /// Fills r.radii[i] with sample i's critical radius, on the closed-form
  /// lane when the spec allows it and the bracket/bisect lane otherwise.
  static void sampleRadii(const core::CompiledProblem& p,
                          const CurveOptions& o, CurveResult& r) {
    if (r.fastLane) {
      const FastPlan plan = buildFastPlan(p);
      if (!plan.originViolated) {
        struct Scratch {
          std::vector<double> dir;
          std::vector<double> slopes;
        };
        forEachShard(
            o.samples, o.shardSamples, o.threads,
            [&] { return Scratch{std::vector<double>(plan.dim),
                                 std::vector<double>(8)}; },
            [&](std::size_t, std::size_t lo, std::size_t hi,
                Scratch& scratch) {
              std::uint64_t rowsVisited = 0;
              for (std::size_t i = lo; i < hi; ++i) {
                sampleDirection(p, o.seed, i, scratch.dir);
                r.radii[i] = criticalRadiusFast(plan, scratch.dir,
                                                scratch.slopes.data(),
                                                o.prune, rowsVisited);
              }
              if (obs::enabled()) [[unlikely]] {
                static const obs::MetricId kRows =
                    obs::counterId("curve.rows_visited");
                obs::addCounter(kRows, rowsVisited);
              }
              countShard();
            });
      }
    } else {
      const bool floorRadius = anyDiscrete(p);
      const double scale =
          std::isfinite(r.rho) && r.rho > 0.0 ? r.rho : 1.0;
      struct Scratch {
        std::vector<double> dir;
        num::Vec point;
      };
      forEachShard(
          o.samples, o.shardSamples, o.threads,
          [&] { return Scratch{std::vector<double>(p.dim_),
                               num::Vec(p.dim_)}; },
          [&](std::size_t, std::size_t lo, std::size_t hi, Scratch& scratch) {
            for (std::size_t i = lo; i < hi; ++i) {
              sampleDirection(p, o.seed, i, scratch.dir);
              r.radii[i] = criticalRadiusFull(p, scratch.dir, scratch.point,
                                              scale, floorRadius);
              if (obs::enabled()) [[unlikely]] {
                static const obs::MetricId kFull =
                    obs::counterId("curve.fallback_samples");
                obs::addCounter(kFull);
              }
            }
            countShard();
          });
    }
  }

  /// Quantile-spaced digest over the finite radii: grid index j lands on
  /// the j/(g-1) quantile sample, consecutive duplicates collapse, and
  /// every point carries its exact Clopper-Pearson band. Quantile spacing
  /// (vs a linear radius grid) covers the CDF uniformly in probability,
  /// so heavy upper tails cannot starve the informative region. The walk
  /// is serial and cheap; the bands, two beta inversions per point and
  /// each a pure function of (count, N, confidence) written to its own
  /// point, run on `threads` workers.
  static void buildPoints(CurveResult& r, std::size_t gridPoints,
                          std::size_t threads) {
    r.points.clear();
    const std::size_t n = r.samples;
    if (n == 0) {
      return;
    }
    std::vector<std::uint64_t> counts;
    const std::size_t fin = r.finiteRadii;
    if (fin == 0) {
      const double anchor = std::isfinite(r.rho) ? r.rho : 0.0;
      r.points.push_back(CurvePoint{anchor, 0.0});
      counts.push_back(0);
    } else {
      const std::size_t g =
          std::max<std::size_t>(1, std::min(gridPoints, fin));
      double prevRadius = -kInf;
      for (std::size_t j = 0; j < g; ++j) {
        const std::size_t idx = g == 1 ? fin - 1 : j * (fin - 1) / (g - 1);
        const double radius = r.radii[idx];
        if (radius == prevRadius) {
          continue;
        }
        prevRadius = radius;
        const auto count = static_cast<std::uint64_t>(
            std::upper_bound(r.radii.begin(), r.radii.end(), radius) -
            r.radii.begin());
        r.points.push_back(CurvePoint{
            radius, static_cast<double>(count) / static_cast<double>(n)});
        counts.push_back(count);
      }
    }
    forEachShard(
        counts.size(), /*shardSize=*/1, threads, [] { return 0; },
        [&](std::size_t, std::size_t lo, std::size_t hi, int) {
          for (std::size_t i = lo; i < hi; ++i) {
            const BinomialInterval band =
                clopperPearson(counts[i], n, r.confidence);
            r.points[i].lower = band.lower;
            r.points[i].upper = band.upper;
          }
        });
  }
};

double CurveResult::probabilityAt(double r) const {
  if (samples == 0) {
    return 0.0;
  }
  const auto count = static_cast<std::size_t>(
      std::upper_bound(radii.begin(), radii.end(), r) - radii.begin());
  return static_cast<double>(count) / static_cast<double>(samples);
}

double CurveResult::radiusAtProbability(double p) const {
  if (samples == 0) {
    return kInf;
  }
  const double clamped = std::min(1.0, std::max(0.0, p));
  auto k = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples)));
  k = std::min(std::max<std::size_t>(1, k), samples);
  return radii[k - 1];
}

namespace {

/// The curve cache's key: problem identity plus the curve-shaping options.
/// Threads / shardSamples are deliberately NOT part of the key: the result
/// is bit-identical regardless, so a hit from a differently parallel run
/// is still exact.
struct CacheKey {
  std::uint64_t content = 0;
  std::size_t samples = 0;
  std::uint64_t seed = 0;
  std::size_t gridPoints = 0;
  double confidence = 0.0;
  bool prune = false;

  bool operator==(const CacheKey&) const = default;
};

/// Content and seed are what vary between curves in practice; equality
/// settles the rest.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.content ^ k.seed);
  }
};

constexpr std::size_t kCacheCapacity = 4;

using CurveCache =
    util::LruCache<CacheKey, std::shared_ptr<const CurveResult>, CacheKeyHash>;

CurveCache& curveCache() {
  static CurveCache cache(kCacheCapacity);
  return cache;
}

}  // namespace

void clearCurveCache() noexcept { curveCache().clear(); }

CurveResult computeCurve(const core::CompiledProblem& problem,
                         const CurveOptions& options) {
  ROBUST_REQUIRE(options.samples > 0,
                 "computeCurve: samples must be positive");
  ROBUST_REQUIRE(options.gridPoints > 0,
                 "computeCurve: gridPoints must be positive");
  ROBUST_REQUIRE(options.confidence > 0.0 && options.confidence < 1.0,
                 "computeCurve: confidence must lie in (0, 1)");

  const std::uint64_t content = options.useCache ? problem.contentKey() : 0;
  if (content == 0) {
    return CurveEngine::run(problem, options);
  }
  const CacheKey key{content,           options.samples,    options.seed,
                     options.gridPoints, options.confidence, options.prune};
  const CurveCache::Lookup lookup = curveCache().getOrCompute(key, [&] {
    return std::make_shared<const CurveResult>(
        CurveEngine::run(problem, options));
  });
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kHits = obs::counterId("curve.cache.hits");
    static const obs::MetricId kMisses = obs::counterId("curve.cache.misses");
    obs::addCounter(lookup.hit ? kHits : kMisses);
  }
  CurveResult result = *lookup.value;
  result.cacheHit = lookup.hit;
  return result;
}

std::string curveSectionJson(const CurveResult& result) {
  std::ostringstream out;
  out << "{\"schema\": \"robust.curve\", \"schema_version\": 1";
  out << ", \"samples\": " << result.samples;
  out << ", \"finite\": " << result.finiteRadii;
  out << ", \"seed\": " << result.seed;
  out << ", \"confidence\": " << obs::json::number(result.confidence);
  out << ", \"dkw_epsilon\": " << obs::json::number(result.dkwEpsilon);
  out << ", \"rho\": " << obs::json::number(result.rho);
  out << ", \"fast_lane\": " << (result.fastLane ? "true" : "false");
  out << ", \"cache_hit\": " << (result.cacheHit ? "true" : "false");
  out << ", \"points\": [";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const CurvePoint& p = result.points[i];
    out << (i == 0 ? "" : ", ");
    out << "{\"radius\": " << obs::json::number(p.radius);
    out << ", \"probability\": " << obs::json::number(p.probability);
    out << ", \"lower\": " << obs::json::number(p.lower);
    out << ", \"upper\": " << obs::json::number(p.upper);
    out << '}';
  }
  out << "]}";
  return out.str();
}

void appendCurveSection(obs::RunReport& report, const CurveResult& result) {
  report.sections.emplace_back("curve", curveSectionJson(result));
}

}  // namespace robust::curve
