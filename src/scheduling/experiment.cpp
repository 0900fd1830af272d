#include "robust/scheduling/experiment.hpp"

#include <algorithm>

#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::sched {

std::vector<Fig3Row> runFig3(const Fig3Options& options) {
  ROBUST_REQUIRE(options.mappings > 0, "runFig3: no mappings requested");

  // One shared instance (the paper evaluates all mappings on one system).
  Pcg32 etcRng = makeStream(options.seed, /*id=*/0);
  const EtcMatrix etc = generateEtc(options.etc, etcRng);

  std::vector<Fig3Row> rows(options.mappings);
  // No per-worker state: every mapping owns its substream and output row.
  forEachShard(
      options.mappings, /*shardSize=*/64, options.threads,
      [] { return 0; },
      [&](std::size_t, std::size_t lo, std::size_t hi, int) {
        for (std::size_t m = lo; m < hi; ++m) {
          Pcg32 rng = makeStream(options.seed, /*id=*/1 + m);
          const Mapping mapping =
              randomMapping(etc.apps(), etc.machines(), rng);
          const IndependentTaskSystem system(etc, mapping, options.tau);
          const auto analysis = system.analyze();

          Fig3Row row;
          row.makespan = analysis.predictedMakespan;
          row.robustness = analysis.robustness;
          row.loadBalance = loadBalanceIndex(etc, mapping);

          const auto counts = mapping.countPerMachine();
          const auto finish = finishingTimes(etc, mapping);
          const std::size_t makespanMachine = static_cast<std::size_t>(
              std::max_element(finish.begin(), finish.end()) -
              finish.begin());
          row.makespanMachineCount = counts[makespanMachine];
          row.maxMachineCount =
              *std::max_element(counts.begin(), counts.end());
          row.inS1 = row.makespanMachineCount == row.maxMachineCount;
          rows[m] = row;
        }
      });
  return rows;
}

}  // namespace robust::sched
