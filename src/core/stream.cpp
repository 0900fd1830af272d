#include "robust/core/stream.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "robust/core/instance_file.hpp"
#include "robust/core/row_radius.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Process-wide monotone minimum of exact per-instance metrics. Relaxed
/// ordering is enough: correctness never depends on how fresh a loaded
/// value is (a stale — larger — incumbent only screens less), and every
/// stored value is the exact metric of some instance.
class SharedMin {
 public:
  [[nodiscard]] double load() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

  void update(double metric) noexcept {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      if (!(metric < std::bit_cast<double>(cur))) {
        return;  // not an improvement (also rejects NaN)
      }
      if (bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(metric),
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(kInf)};
};

/// The winning candidate of one shard (or one reduction node): the exact
/// first-minimum over the instances it covers.
struct Winner {
  double metric = kInf;
  std::size_t argmin = kNoInstance;
  std::size_t binding = 0;
  bool floored = false;
};

/// Fixed-order pairwise combine; `a` must cover lower instance indices
/// than `b`. Strict < keeps the earlier side on ties — the same rule the
/// serial first-minimum fold applies — so any pairing order that
/// preserves index order yields the serial fold's exact result.
Winner combine(const Winner& a, const Winner& b) noexcept {
  return b.metric < a.metric ? b : a;
}

struct ShardOutcome {
  Winner winner;
  std::uint64_t screened = 0;
  std::uint64_t prescreenPasses = 0;
  std::uint64_t rowsRechecked = 0;  ///< survivor rows given an exact dot
};

/// Instances per screening block: the unit of the one cache-resident pass
/// (distance, validation, prescreen, exact re-check) and of the unscreened
/// lane's validate-then-evaluate step.
constexpr std::size_t kScreenBlock = 64;

/// Why a call runs the unscreened lane (the `reason` label of
/// `core.stream.screen_off`).
enum class ScreenOff { None, Option, Callable, Discrete, NonAnalytic };

const char* toString(ScreenOff reason) noexcept {
  switch (reason) {
    case ScreenOff::Option:
      return "option";
    case ScreenOff::Callable:
      return "callable";
    case ScreenOff::Discrete:
      return "discrete";
    case ScreenOff::NonAnalytic:
      return "non_analytic";
    case ScreenOff::None:
      break;
  }
  return "none";
}

/// Reusable per-worker scratch: the mapped window, the current block's
/// perturbation distances, the block-level active-row list with the
/// (distance, incumbent) it was built at, the per-instance survivor rows
/// and their dots, and the unscreened lane's workspace. One arena serves
/// every shard a worker pulls, so the steady state allocates nothing.
struct Arena {
  util::MmapFile::View view;
  std::array<double, kScreenBlock> delta{};
  std::vector<std::uint32_t> active;
  double listDelta = -1.0;  ///< below every distance: no list yet
  double listRho = 0.0;
  std::vector<std::uint32_t> survivors;
  std::vector<const double*> survivorRows;
  std::vector<double> dots;
  std::vector<AnalysisInstance> instances;
  std::vector<MetricResult> results;
  MetricWorkspace metric;
};

}  // namespace

/// Friend of CompiledProblem: replicates the metric lane's row arithmetic
/// against on-disk shards and screens rows with the compiled
/// default-origin dots.
class StreamEngine {
 public:
  StreamEngine(const CompiledProblem& problem, const StreamOptions& options)
      : p_(problem), opt_(options) {
    // The screen's premises: every feature is an affine row evaluated by
    // the analytic kernel lane, and the metric is not discrete-floored
    // (flooring breaks the strict-inequality argument that lets a
    // screened instance be discarded). compile() requires a feature, so
    // with no callables there is always a row.
    if (!opt_.screen) {
      off_ = ScreenOff::Option;
    } else if (!p_.callables_.empty()) {
      off_ = ScreenOff::Callable;
    } else if (p_.parameter_.discrete) {
      off_ = ScreenOff::Discrete;
    } else if (!p_.fastSolver_) {
      off_ = ScreenOff::NonAnalytic;
    }
    const auto dim = static_cast<double>(p_.dim_);
    relMargin_ = 1e-9 + 1e-15 * dim;
    absCoeff_ = 8.0 * 2.220446049250313e-16 * (dim + 4.0);
  }

  StreamResult run(const InstanceFileReader* reader,
                   std::span<const double> values) const;

 private:
  void scanShard(std::span<const double> vals, std::uint64_t firstIndex,
                 std::size_t count, Arena& arena, ShardOutcome& outcome,
                 SharedMin& shared, bool validate,
                 const std::string& source) const;

  /// True when row r of feature i provably cannot produce a radius at or
  /// below `rho` for any instance within L2 distance `delta` of the
  /// compiled default origin. The margins majorize every rounding the
  /// evaluating arithmetic can commit (DESIGN.md section 4.11), so a
  /// screened row can never change the returned bits. Every operation is
  /// monotone under round-to-nearest, so a row screened at (delta, rho)
  /// stays screened at any smaller delta and rho.
  [[nodiscard]] bool screenRow(std::size_t i, std::size_t r, double delta,
                               double rho) const {
    const double deff = p_.effDual_[r];
    if (!(deff > 0.0)) {
      return false;  // degenerate / NaN dual norms must keep failing
                     // exactly as the serial lane fails
    }
    const double c = p_.constants_[i];
    const double refAt = p_.dotOrigin_[r] + c;
    const double move =
        delta * p_.dualNorms_[static_cast<int>(NormKind::L2)][r];
    const double slack =
        move * (1.0 + relMargin_) +
        absCoeff_ * (p_.absDotOrigin_[r] + std::fabs(c) + move);
    const double guard = rho * deff * (1.0 + relMargin_);
    const auto& bounds = p_.features_[i].bounds;
    if (bounds.min && !(refAt - slack > *bounds.min + guard)) {
      return false;
    }
    if (bounds.max && !(refAt + slack < *bounds.max - guard)) {
      return false;
    }
    return true;
  }

  /// The metric lane's exact row arithmetic for one file instance
  /// (scale 1, compiled constants), restricted to the rows of the block's
  /// active list that survive the per-instance screen against `rho`. The
  /// survivors' dots run four rows per kernel pass; rowRadius then sees
  /// them in list order, so pruning and binding match a row-by-row scan.
  /// Returns the candidate (metric, binding): exact whenever
  /// candidate <= rho.
  void scanActiveRows(std::span<const double> x, double delta, double rho,
                      Arena& arena, double& candidate,
                      std::size_t& binding) const {
    arena.survivors.clear();
    arena.survivorRows.clear();
    for (const std::uint32_t idx : arena.active) {
      const auto i = static_cast<std::size_t>(idx);
      if (!screenRow(i, p_.rowIndex_[i], delta, rho)) {
        arena.survivors.push_back(idx);
        arena.survivorRows.push_back(p_.rowOf(i).data());
      }
    }
    const std::size_t n = arena.survivors.size();
    arena.dots.resize(n);
    num::simd::dotRowsGathered(arena.survivorRows.data(), n, x,
                               arena.dots.data());
    candidate = kInf;
    binding = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto i = static_cast<std::size_t>(arena.survivors[j]);
      const RowRadius r =
          rowRadius(arena.dots[j] + p_.constants_[i],
                    p_.effDual_[p_.rowIndex_[i]], p_.features_[i].bounds,
                    candidate, opt_.prune);
      if (r.verdict == RowVerdict::Pruned) {
        continue;
      }
      if (r.radius < candidate) {
        candidate = r.radius;
        binding = i;
      }
    }
  }

  const CompiledProblem& p_;
  const StreamOptions& opt_;
  ScreenOff off_ = ScreenOff::None;
  double relMargin_ = 0.0;
  double absCoeff_ = 0.0;
};

void StreamEngine::scanShard(std::span<const double> vals,
                             std::uint64_t firstIndex, std::size_t count,
                             Arena& arena, ShardOutcome& outcome,
                             SharedMin& shared, bool validate,
                             const std::string& source) const {
  const std::size_t dim = p_.dim_;
  const std::span<const double> origin0 = p_.parameter_.origin;
  const auto instance = [&](std::size_t i) {
    return vals.subspan(i * dim, dim);
  };

  auto accept = [&](std::size_t localIdx, double metric, std::size_t binding,
                    bool floored) {
    if (metric < outcome.winner.metric) {
      outcome.winner.metric = metric;
      outcome.winner.argmin = static_cast<std::size_t>(firstIndex) + localIdx;
      outcome.winner.binding = binding;
      outcome.winner.floored = floored;
    }
    shared.update(metric);
  };

  // The payload boundary: rejects instance i at its first non-finite
  // component (1-based instance and component in the diagnostic).
  auto requireFinite = [&](std::size_t i) {
    const std::span<const double> x = instance(i);
    for (std::size_t k = 0; k < dim; ++k) {
      if (!std::isfinite(x[k])) {
        util::Diagnostics(source).fail(
            util::RejectCategory::Domain,
            static_cast<std::size_t>(firstIndex) + i + 1, k + 1,
            "payload value " + util::formatValue(x[k]) + " is not finite");
      }
    }
  };

  // One pass per block: every step below touches only the block's
  // instances, so they are fetched from memory once and a fault surfaces
  // at the first bad block in instance order, whichever lane runs.
  for (std::size_t b0 = 0; b0 < count; b0 += kScreenBlock) {
    const std::size_t b1 = std::min(count, b0 + kScreenBlock);

    if (off_ != ScreenOff::None) {
      // Unscreened lane: the exact cache-blocked batch scan the in-memory
      // path runs, one block at a time. Handles callables, discrete
      // floors, and non-analytic solver configurations.
      if (validate) {
        for (std::size_t i = b0; i < b1; ++i) {
          requireFinite(i);
        }
      }
      arena.instances.resize(b1 - b0);
      arena.results.resize(b1 - b0);
      for (std::size_t i = b0; i < b1; ++i) {
        arena.instances[i - b0] = AnalysisInstance{instance(i), {}, {}};
      }
      p_.metricBlock(arena.instances, arena.results, 0, b1 - b0,
                     arena.metric, opt_.prune);
      for (std::size_t i = b0; i < b1; ++i) {
        const MetricResult& r = arena.results[i - b0];
        accept(i, r.metric, r.bindingFeature, r.floored);
      }
      continue;
    }

    // Screened lane. Per-instance L2 distance from the compiled default
    // origin — the only quantity the screen needs about an instance —
    // with the payload check folded in: a non-finite component always
    // makes the sum non-finite, so only then is the instance scanned for
    // the diagnostic. A non-finite distance (unvalidated NaN, or finite
    // values whose squares overflow) reads as +inf, which screens no row.
    for (std::size_t i = b0; i < b1; ++i) {
      double sumSq = num::simd::squaredDistanceBlocked(instance(i), origin0);
      if (!(sumSq <= std::numeric_limits<double>::max())) {
        if (validate) {
          requireFinite(i);
        }
        sumSq = kInf;
      }
      arena.delta[i - b0] = std::sqrt(sumSq);
    }

    std::size_t first = b0;
    double rhoBlock = shared.load();
    if (rhoBlock == kInf) {
      // Warm start: with no incumbent yet the screen rejects nothing, so
      // one exact metric buys the rest of the block a real incumbent. It
      // is sound for the reason every later block is: rho-hat is an exact
      // metric held by some instance.
      const MetricResult r = p_.evaluateMetric(
          AnalysisInstance{instance(b0), {}, {}}, arena.metric, opt_.prune);
      accept(b0, r.metric, r.bindingFeature, r.floored);
      first = b0 + 1;
      rhoBlock = shared.load();
    }
    if (first == b1) {
      continue;
    }

    // One prescreen with the block's max distance produces the active-row
    // list every instance of the block shares. screenRow is monotone in
    // delta and rho and rho-hat never rises, so a list built at
    // (listDelta, listRho) is a superset of the one this block would
    // build whenever deltaMax <= listDelta: it is kept until a block
    // reaches farther or the incumbent moves.
    double deltaMax = 0.0;
    for (std::size_t i = first; i < b1; ++i) {
      deltaMax = std::max(deltaMax, arena.delta[i - b0]);
    }
    if (deltaMax > arena.listDelta || rhoBlock != arena.listRho) {
      arena.active.clear();
      for (std::size_t i = 0; i < p_.features_.size(); ++i) {
        if (!screenRow(i, p_.rowIndex_[i], deltaMax, rhoBlock)) {
          arena.active.push_back(static_cast<std::uint32_t>(i));
        }
      }
      arena.listDelta = deltaMax;
      arena.listRho = rhoBlock;
      ++outcome.prescreenPasses;
    }
    if (arena.active.empty()) {
      // Every row of every instance in the block is provably above the
      // incumbent: the whole block is rejected without a dot product.
      outcome.screened += b1 - first;
      continue;
    }
    // Instances rescreen the (usually tiny) active list with their own
    // distance and evaluate the survivors exactly.
    for (std::size_t i = first; i < b1; ++i) {
      const double rho = shared.load();
      double candidate;
      std::size_t binding;
      scanActiveRows(instance(i), arena.delta[i - b0], rho, arena, candidate,
                     binding);
      outcome.rowsRechecked += arena.survivors.size();
      if (candidate > rho) {
        // Every unevaluated row was screened against a value >= rho and
        // the evaluated minimum exceeds rho, so this instance's true
        // metric is strictly above an exact metric held elsewhere: it
        // can never be the global first-minimum.
        ++outcome.screened;
        continue;
      }
      accept(i, candidate, binding, false);
    }
  }
}

StreamResult StreamEngine::run(const InstanceFileReader* reader,
                               std::span<const double> values) const {
  const std::size_t dim = p_.dim_;
  ROBUST_REQUIRE(dim > 0,
                 "analyzeStream: problem has no perturbation dimension");
  ROBUST_REQUIRE(opt_.shardInstances > 0,
                 "analyzeStream: shardInstances must be positive");
  std::uint64_t total;
  bool validate = false;
  std::string source;
  if (reader != nullptr) {
    ROBUST_REQUIRE(reader->dim() == dim,
                   "analyzeStream: file dimension does not match the "
                   "compiled problem");
    total = reader->instances();
    validate = opt_.policy.requireFinite;
    source = reader->path();
  } else {
    ROBUST_REQUIRE(values.size() % dim == 0,
                   "analyzeStream: value count is not a multiple of the "
                   "problem dimension");
    total = values.size() / dim;
  }

  StreamResult result;
  result.metric = kInf;
  result.instances = total;
  if (total == 0) {
    return result;
  }
  const std::uint64_t shard = opt_.shardInstances;
  const std::uint64_t nShards = (total + shard - 1) / shard;
  result.shards = nShards;

  const obs::Span span("core.analyzeStream");
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kShards = obs::counterId("core.stream.shards");
    static const obs::MetricId kInstances =
        obs::counterId("core.stream.instances");
    static const obs::MetricId kQueue =
        obs::gaugeId("core.stream.queue_high_water");
    obs::addCounter(kShards, nShards);
    obs::addCounter(kInstances, total);
    obs::maxGauge(kQueue, static_cast<std::int64_t>(nShards));
    if (off_ != ScreenOff::None) {
      obs::addCounter(
          obs::counterId("core.stream.screen_off", "reason", toString(off_)));
    }
  }

  // Dynamic shard tickets over a fixed worker set: any claim order is fine
  // because each shard writes only its own outcome slot and the shared
  // incumbent is a monotone minimum of exact metrics.
  std::vector<ShardOutcome> outcomes(static_cast<std::size_t>(nShards));
  SharedMin shared;
  std::atomic<std::int64_t> inflight{0};
  forEachShard(
      static_cast<std::size_t>(total), static_cast<std::size_t>(shard),
      opt_.threads, [] { return Arena{}; },
      [&](std::size_t s, std::size_t first, std::size_t last, Arena& arena) {
        const std::int64_t now =
            inflight.fetch_add(1, std::memory_order_relaxed) + 1;
        if (obs::enabled()) [[unlikely]] {
          static const obs::MetricId kInflight =
              obs::gaugeId("core.stream.inflight_high_water");
          obs::maxGauge(kInflight, now);
        }
        const struct Leave {
          std::atomic<std::int64_t>& n;
          ~Leave() { n.fetch_sub(1, std::memory_order_relaxed); }
        } leave{inflight};
        const std::size_t count = last - first;
        const std::span<const double> vals =
            reader != nullptr ? reader->read(first, count, arena.view)
                              : values.subspan(first * dim, count * dim);
        scanShard(vals, first, count, arena, outcomes[s], shared, validate,
                  source);
        if (obs::enabled()) [[unlikely]] {
          static const obs::MetricId kRechecked =
              obs::counterId("core.stream.rows_rechecked");
          obs::addCounter(kRechecked, outcomes[s].rowsRechecked);
        }
      });

  // Fixed-order pairwise reduction over the shard winners. Every combine
  // keeps the lower-shard side on ties, so the tree computes the same
  // first-minimum the serial left fold over instances computes.
  std::vector<Winner> level;
  level.reserve(outcomes.size());
  std::uint64_t prescreenPasses = 0;
  for (const ShardOutcome& o : outcomes) {
    level.push_back(o.winner);
    result.screenedInstances += o.screened;
    prescreenPasses += o.prescreenPasses;
  }
  while (level.size() > 1) {
    std::vector<Winner> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(combine(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level.swap(next);
  }
  result.metric = level[0].metric;
  result.argminInstance = level[0].argmin;
  result.bindingFeature = level[0].binding;
  result.floored = level[0].floored;
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kScreened =
        obs::counterId("core.stream.instances_screened");
    static const obs::MetricId kPrescreens =
        obs::counterId("core.stream.prescreen_passes");
    obs::addCounter(kScreened, result.screenedInstances);
    obs::addCounter(kPrescreens, prescreenPasses);
  }
  return result;
}

StreamResult analyzeStream(const CompiledProblem& problem,
                           const std::string& path,
                           const StreamOptions& options) {
  const InstanceFileReader reader(path, options.policy);
  return StreamEngine(problem, options).run(&reader, {});
}

StreamResult analyzeStreamValues(const CompiledProblem& problem,
                                 std::span<const double> values,
                                 const StreamOptions& options) {
  return StreamEngine(problem, options).run(nullptr, values);
}

}  // namespace robust::core
