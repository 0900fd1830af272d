#include "robust/sim/study.hpp"

#include "robust/numeric/vector_ops.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/error.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::sim {

std::vector<StudyPoint> runMakespanStudy(
    const sched::IndependentTaskSystem& system, const StudyOptions& options) {
  ROBUST_REQUIRE(options.trials > 0, "runMakespanStudy: trials must be > 0");
  ROBUST_REQUIRE(!options.magnitudes.empty(),
                 "runMakespanStudy: no magnitudes requested");

  const obs::Span span("sim.runMakespanStudy");
  const auto estimates = system.estimatedTimes();
  const auto analysis = system.analyze();
  // rho through the compiled engine's metric-only lane (no per-feature
  // boundary points or report strings are needed here; the lane is within
  // 1e-12 relative of evaluate().metric and deterministic across runs);
  // M_orig stays with the closed-form analysis.
  const double rho = system.compile().evaluateMetric().metric;
  const double bound = system.tau() * analysis.predictedMakespan;
  const auto trials = static_cast<std::size_t>(options.trials);

  std::vector<StudyPoint> points;
  points.reserve(options.magnitudes.size());
  for (std::size_t mi = 0; mi < options.magnitudes.size(); ++mi) {
    const PerturbationModel model{options.model, options.magnitudes[mi]};

    // Each trial owns a makeStream substream and disjoint output slots, so
    // the trial loop parallelizes with bit-identical results for any worker
    // count; the aggregation below is a serial reduction in trial order.
    std::vector<double> ratios(trials);
    std::vector<double> errorNorms(trials);
    std::vector<unsigned char> violated(trials);
    forEachShard(
        trials, /*shardSize=*/256, options.threads, [] { return 0; },
        [&](std::size_t, std::size_t lo, std::size_t hi, int) {
          for (std::size_t t = lo; t < hi; ++t) {
            Pcg32 rng = makeStream(options.seed, mi * trials + t);
            ExecutionInput input;
            input.actualTimes = model.sample(estimates, rng);
            const ExecutionResult run = execute(system.mapping(), input);
            errorNorms[t] = num::distance2(input.actualTimes, estimates);
            violated[t] = run.makespan > bound;
            ratios[t] = run.makespan / analysis.predictedMakespan;
          }
        });

    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kPoints = obs::counterId("sim.study_points");
      static const obs::MetricId kTrials = obs::counterId("sim.study_trials");
      obs::addCounter(kPoints);
      obs::addCounter(kTrials, trials);
    }
    StudyPoint point;
    point.magnitude = options.magnitudes[mi];
    double errorNormSum = 0.0;
    int violations = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      errorNormSum += errorNorms[t];
      violations += violated[t];
      if (errorNorms[t] <= rho) {
        ++point.coveredTrials;
        point.coveredViolations += violated[t];  // guarantee: must stay 0
      }
    }
    point.meanErrorNorm =
        rho > 0.0 ? errorNormSum / static_cast<double>(options.trials) / rho
                  : 0.0;
    point.violationRate =
        static_cast<double>(violations) / static_cast<double>(options.trials);
    point.meanMakespanRatio = summarize(ratios).mean;
    point.p95MakespanRatio = quantile(ratios, 0.95);
    points.push_back(point);
  }
  return points;
}

}  // namespace robust::sim
