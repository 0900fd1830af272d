// Test helper: compiles the single-parameter derivation most core tests
// build by hand (features, one perturbation parameter, analysis options).
#pragma once

#include <utility>
#include <vector>

#include "robust/core/compiled.hpp"

namespace robust::core {

inline CompiledProblem compileProblem(std::vector<PerformanceFeature> features,
                                      PerturbationParameter parameter,
                                      AnalyzerOptions options = {}) {
  ProblemSpec spec;
  spec.features = std::move(features);
  spec.parameter = std::move(parameter);
  spec.options = std::move(options);
  return CompiledProblem::compile(std::move(spec));
}

}  // namespace robust::core
