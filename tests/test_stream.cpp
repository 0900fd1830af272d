// The streaming engine's contract suite.
//
// The heart is the bit-identity grid: core::analyzeStream over an
// on-disk instance file must return the exact first-minimum fold of the
// serial in-memory analyzeBatchMetric pass — metric BITS, argmin
// instance, binding feature, floored flag — across every shard size,
// thread count, SIMD dispatch target, screening mode, and the
// mmap-vs-read fallback. Around it: the binary format's validation
// boundary (every malformed header/payload rejected with a categorized
// diagnostic), the writer's fail-fast value policy, and the %.17g
// bit-identical CSV round trip backing the etc_pack converter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "robust/core/compiled.hpp"
#include "robust/core/instance_file.hpp"
#include "robust/core/stream.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/etc_io.hpp"
#include "robust/util/error.hpp"
#include "robust/util/mmap_file.hpp"
#include "robust/util/rng.hpp"

namespace robust::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A writable temp path, removed when the guard dies.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("robust_stream_test_" + tag + "_" +
              std::to_string(::getpid()) + "_" + std::to_string(counter++)))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// The perf-bench problem family, shrunk: affine rows with atMost bounds
/// spread so pruning/screening have real work to do.
CompiledProblem streamProblem(std::size_t rows, std::size_t dims,
                              bool discrete = false,
                              SolverKind solver = SolverKind::Auto) {
  Pcg32 rng(6);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.discrete = discrete;
  spec.parameter.origin.resize(dims);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  spec.options.solver = solver;
  spec.features.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec weights(dims);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    spec.features.push_back(PerformanceFeature{
        "F_" + std::to_string(r),
        ImpactFunction::affine(std::move(weights)),
        ToleranceBounds::atMost(atOrigin * rng.uniform(1.05, 4.0))});
  }
  return CompiledProblem::compile(std::move(spec));
}

/// Perturbed instance batch around the problem's default origin, with a
/// few duplicates and one near-violation mixed in so ties and zero-radius
/// paths get exercised.
std::vector<double> streamBatch(const CompiledProblem& problem,
                                std::size_t count, std::uint64_t seed) {
  const std::size_t dim = problem.dimension();
  std::vector<double> values(count * dim);
  for (std::size_t i = 0; i < count; ++i) {
    Pcg32 rng(seed, i);
    for (std::size_t k = 0; k < dim; ++k) {
      values[i * dim + k] =
          problem.parameter().origin[k] * rng.uniform(0.97, 1.03);
    }
  }
  // Duplicate instance 3 at position 40 (first-index tie-break) and push
  // instance 7 far out (violated at the operating point, radius 0).
  if (count > 40) {
    for (std::size_t k = 0; k < dim; ++k) {
      values[40 * dim + k] = values[3 * dim + k];
    }
  }
  if (count > 7) {
    for (std::size_t k = 0; k < dim; ++k) {
      values[7 * dim + k] = problem.parameter().origin[k] * 10.0;
    }
  }
  return values;
}

/// The serial reference: analyzeBatchMetric on one thread, folded with
/// the first-strict-minimum rule.
StreamResult serialReference(const CompiledProblem& problem,
                             const std::vector<double>& values) {
  const std::size_t dim = problem.dimension();
  const std::size_t n = values.size() / dim;
  std::vector<AnalysisInstance> instances(n);
  for (std::size_t i = 0; i < n; ++i) {
    instances[i] =
        AnalysisInstance{{values.data() + i * dim, dim}, {}, {}};
  }
  std::vector<MetricResult> out(n);
  problem.analyzeBatchMetric(instances, out, /*threads=*/1);
  StreamResult result;
  result.metric = kInf;
  result.instances = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i].metric < result.metric) {
      result.metric = out[i].metric;
      result.argminInstance = i;
      result.bindingFeature = out[i].bindingFeature;
      result.floored = out[i].floored;
    }
  }
  return result;
}

std::string packToString(const std::vector<double>& values,
                         std::uint64_t dim) {
  std::ostringstream out(std::ios::binary);
  InstanceFileWriter writer(out, dim);
  writer.appendBatch(values);
  writer.finish();
  return out.str();
}

void writeInstanceFile(const std::string& path,
                       const std::vector<double>& values,
                       std::uint64_t dim) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  InstanceFileWriter writer(out, dim);
  writer.appendBatch(values);
  writer.finish();
}

void expectSameResult(const StreamResult& got, const StreamResult& want,
                      const std::string& what) {
  EXPECT_TRUE(bitEq(got.metric, want.metric))
      << what << ": metric " << got.metric << " vs " << want.metric;
  EXPECT_EQ(got.argminInstance, want.argminInstance) << what;
  EXPECT_EQ(got.bindingFeature, want.bindingFeature) << what;
  EXPECT_EQ(got.floored, want.floored) << what;
}

// ---------------------------------------------------------------------------
// Format round trips and validation.
// ---------------------------------------------------------------------------

TEST(InstanceFile, WriteReadRoundTripBitIdentical) {
  const std::vector<double> values = {1.5, -2.25, 0.0,
                                      3.14159, 1e-300, 7.0};
  const std::string bytes = packToString(values, 3);
  EXPECT_EQ(bytes.size(), kInstanceFileHeaderBytes + values.size() * 8);

  const util::Diagnostics diag("roundtrip");
  const InstanceData data = loadInstanceData(bytes, diag);
  EXPECT_EQ(data.header.dim, 3u);
  EXPECT_EQ(data.header.instances, 2u);
  ASSERT_EQ(data.values.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(bitEq(data.values[i], values[i])) << i;
  }
}

TEST(InstanceFile, ReaderMatchesWriter) {
  const auto problem = streamProblem(8, 5);
  const auto values = streamBatch(problem, 10, 11);
  TempFile file("reader");
  writeInstanceFile(file.path(), values, 5);

  const InstanceFileReader reader(file.path());
  EXPECT_EQ(reader.dim(), 5u);
  EXPECT_EQ(reader.instances(), 10u);
  util::MmapFile::View view;
  const auto span = reader.read(2, 3, view);
  ASSERT_EQ(span.size(), 15u);
  for (std::size_t i = 0; i < span.size(); ++i) {
    EXPECT_TRUE(bitEq(span[i], values[2 * 5 + i])) << i;
  }
}

TEST(InstanceFile, EveryHeaderCorruptionIsCategorized) {
  const std::string good = packToString({1.0, 2.0, 3.0, 4.0}, 2);
  const util::Diagnostics diag("corrupt");

  auto expectReject = [&](std::string bytes, util::RejectCategory category,
                          const std::string& what) {
    try {
      (void)loadInstanceData(bytes, diag);
      FAIL() << what << ": accepted";
    } catch (const util::ParseError& err) {
      EXPECT_EQ(err.diagnostic().category, category) << what;
    }
  };

  std::string bad = good;
  bad[0] = 'X';
  expectReject(bad, util::RejectCategory::Format, "magic");

  bad = good;
  bad[8] = 9;  // version
  expectReject(bad, util::RejectCategory::Format, "version");

  bad = good;
  bad[12] = 1;  // flags
  expectReject(bad, util::RejectCategory::Format, "flags");

  bad = good;
  bad[40] = 1;  // reserved
  expectReject(bad, util::RejectCategory::Format, "reserved");

  bad = good;
  bad[16] = 0;  // dim -> 0
  expectReject(bad, util::RejectCategory::Domain, "zero dim");

  bad = good;
  bad[22] = 0x7f;  // dim -> astronomically large
  expectReject(bad, util::RejectCategory::Domain, "huge dim");

  bad = good;
  bad.resize(bad.size() - 1);  // mid-payload
  expectReject(bad, util::RejectCategory::Truncated, "truncated payload");

  bad = good;
  bad.resize(20);  // mid-header
  expectReject(bad, util::RejectCategory::Truncated, "truncated header");

  bad = good;
  bad.push_back('\0');  // trailing byte
  expectReject(bad, util::RejectCategory::Structure, "trailing");

  bad = good;
  bad[24] = 1;  // declares 1 instance, payload holds 2
  expectReject(bad, util::RejectCategory::Structure, "undersized count");
}

TEST(InstanceFile, NonFinitePayloadRejectedWithPosition) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::string bytes = packToString(values, 3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + kInstanceFileHeaderBytes + 4 * sizeof(double),
              &nan, sizeof(nan));
  const util::Diagnostics diag("nan-payload");
  try {
    (void)loadInstanceData(bytes, diag);
    FAIL() << "NaN admitted";
  } catch (const util::ParseError& err) {
    EXPECT_EQ(err.diagnostic().category, util::RejectCategory::Domain);
    EXPECT_EQ(err.diagnostic().line, 2u);    // instance 2 (1-based)
    EXPECT_EQ(err.diagnostic().column, 2u);  // component 2 (1-based)
  }
  // The permissive policy admits it (archive inspection).
  const InstanceData data =
      loadInstanceData(bytes, diag, InputPolicy::permissive());
  EXPECT_TRUE(std::isnan(data.values[4]));
}

TEST(InstanceFile, WriterRejectsNonFiniteFailFast) {
  std::ostringstream out(std::ios::binary);
  InstanceFileWriter writer(out, 2, InputPolicy::strict(), "writer-test");
  const double values[2] = {1.0, std::numeric_limits<double>::infinity()};
  try {
    writer.append({values, 2});
    FAIL() << "inf written";
  } catch (const util::ParseError& err) {
    EXPECT_EQ(err.diagnostic().category, util::RejectCategory::Domain);
    EXPECT_EQ(err.diagnostic().line, 1u);
    EXPECT_EQ(err.diagnostic().column, 2u);
  }
}

TEST(InstanceFile, EtcCsvRoundTripIsByteIdentical) {
  // The etc_pack converter's core loop: ETC rows (one app = one
  // instance vector) -> binary -> back -> %.17g CSV must reproduce the
  // original CSV byte for byte.
  sched::EtcOptions options;
  options.apps = 7;
  options.machines = 4;
  Pcg32 rng(2003);
  const sched::EtcMatrix etc = sched::generateEtc(options, rng);
  std::ostringstream csv1;
  sched::saveEtcCsv(etc, csv1);

  std::vector<double> flat(etc.apps() * etc.machines());
  for (std::size_t a = 0; a < etc.apps(); ++a) {
    for (std::size_t m = 0; m < etc.machines(); ++m) {
      flat[a * etc.machines() + m] = etc(a, m);
    }
  }
  const std::string bytes = packToString(flat, etc.machines());

  const util::Diagnostics diag("etc-roundtrip");
  const InstanceData data = loadInstanceData(bytes, diag);
  sched::EtcMatrix back(data.header.instances, data.header.dim);
  for (std::size_t a = 0; a < back.apps(); ++a) {
    for (std::size_t m = 0; m < back.machines(); ++m) {
      back(a, m) = data.values[a * back.machines() + m];
    }
  }
  std::ostringstream csv2;
  sched::saveEtcCsv(back, csv2);
  EXPECT_EQ(csv1.str(), csv2.str());
}

// ---------------------------------------------------------------------------
// The bit-identity grid.
// ---------------------------------------------------------------------------

/// The grid: file and in-memory sweeps of `values` must equal the serial
/// fold for every shard size, thread count, SIMD target and screen mode.
void expectGridMatchesSerial(const CompiledProblem& problem,
                             const std::vector<double>& values,
                             const std::string& tag) {
  const std::size_t dim = problem.dimension();
  const StreamResult want = serialReference(problem, values);
  ASSERT_TRUE(std::isfinite(want.metric));

  TempFile file(tag);
  writeInstanceFile(file.path(), values, dim);

  std::vector<num::simd::Target> targets = {num::simd::Target::Scalar};
  if (num::simd::avx2Available()) {
    targets.push_back(num::simd::Target::Avx2);
  }
  for (const num::simd::Target target : targets) {
    num::simd::setTarget(target);
    for (const std::size_t shard : {1u, 7u, 64u, 4096u}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        for (const bool screen : {true, false}) {
          StreamOptions options;
          options.shardInstances = shard;
          options.threads = threads;
          options.screen = screen;
          const std::string what =
              std::string(num::simd::toString(target)) + "/shard" +
              std::to_string(shard) + "/t" + std::to_string(threads) +
              (screen ? "/screen" : "/noscreen");
          expectSameResult(analyzeStream(problem, file.path(), options),
                           want, "file " + what);
          expectSameResult(analyzeStreamValues(problem, values, options),
                           want, "values " + what);
        }
      }
    }
  }
  num::simd::setTarget(num::simd::avx2Available() ? num::simd::Target::Avx2
                                                  : num::simd::Target::Scalar);
}

TEST(AnalyzeStream, BitIdenticalAcrossShardsThreadsTargetsScreens) {
  const auto problem = streamProblem(96, 24);
  const auto values = streamBatch(problem, 500, 12);
  expectGridMatchesSerial(problem, values, "grid");

  // The duplicated minimum (if it ever became the min) and the shard
  // reduction both keep the FIRST index; spot-check the counters too.
  TempFile file("grid_counters");
  writeInstanceFile(file.path(), values, 24);
  StreamOptions options;
  options.shardInstances = 64;
  const StreamResult got = analyzeStream(problem, file.path(), options);
  EXPECT_EQ(got.instances, 500u);
  EXPECT_EQ(got.shards, 8u);
}

TEST(AnalyzeStream, AscendingDistanceOrderRebuildsEveryBlockBitIdentical) {
  // Adversarial for the reused prescreen list: instances sorted by
  // ascending distance from the origin, so every block reaches farther
  // than the list before it was built for, and the global minimum sits
  // in the last block at the largest distance.
  const auto problem = streamProblem(96, 24);
  const std::size_t dim = problem.dimension();
  const std::vector<double>& origin = problem.parameter().origin;
  constexpr std::size_t kCount = 500;
  constexpr double kMaxStretch = 0.025;
  std::vector<std::vector<double>> rows(kCount, std::vector<double>(dim));
  for (std::size_t i = 0; i + 1 < kCount; ++i) {
    Pcg32 rng(31, i);
    const double stretch =
        kMaxStretch * static_cast<double>(i + 1) / static_cast<double>(kCount);
    for (std::size_t k = 0; k < dim; ++k) {
      rows[i][k] = origin[k] * (1.0 + stretch * rng.uniform(0.5, 1.0));
    }
  }
  // Every component pushed further out than any other instance's: the
  // farthest instance, and (positive weights, atMost bounds) every row
  // strictly closer to its bound, so it is the unique minimum.
  for (std::size_t k = 0; k < dim; ++k) {
    rows[kCount - 1][k] = origin[k] * (1.0 + 1.2 * kMaxStretch);
  }
  const auto distance = [&](const std::vector<double>& x) {
    double sum = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      sum += (x[k] - origin[k]) * (x[k] - origin[k]);
    }
    return sum;
  };
  std::sort(rows.begin(), rows.end(),
            [&](const auto& a, const auto& b) {
              return distance(a) < distance(b);
            });
  std::vector<double> values;
  for (const auto& x : rows) {
    values.insert(values.end(), x.begin(), x.end());
  }
  const StreamResult want = serialReference(problem, values);
  ASSERT_EQ(want.argminInstance, kCount - 1);
  ASSERT_GT(want.metric, 0.0);
  expectGridMatchesSerial(problem, values, "ascending");

  // The order really defeats the reuse: one worker rebuilds the list in
  // each of the 8 blocks.
  StreamOptions options;
  options.threads = 1;
  obs::setEnabled(true);
  obs::resetMetrics();
  (void)analyzeStreamValues(problem, values, options);
  const auto snapshot = obs::snapshotMetrics();
  obs::setEnabled(false);
  obs::resetMetrics();
  EXPECT_EQ(snapshot.counter("core.stream.prescreen_passes"), 8u);
}

TEST(AnalyzeStream, TieBreakKeepsFirstInstance) {
  const auto problem = streamProblem(16, 8);
  // Every instance identical: the argmin must be instance 0 for every
  // sharding.
  const std::size_t dim = problem.dimension();
  std::vector<double> one(dim);
  Pcg32 rng(5, 99);
  for (std::size_t k = 0; k < dim; ++k) {
    one[k] = problem.parameter().origin[k] * rng.uniform(0.98, 1.02);
  }
  std::vector<double> values;
  for (int i = 0; i < 37; ++i) {
    values.insert(values.end(), one.begin(), one.end());
  }
  for (const std::size_t shard : {1u, 4u, 64u}) {
    for (const std::size_t threads : {1u, 8u}) {
      StreamOptions options;
      options.shardInstances = shard;
      options.threads = threads;
      const StreamResult got = analyzeStreamValues(problem, values, options);
      EXPECT_EQ(got.argminInstance, 0u)
          << "shard " << shard << " threads " << threads;
    }
  }
}

TEST(AnalyzeStream, DiscreteFloorMatchesSerial) {
  const auto problem = streamProblem(24, 8, /*discrete=*/true);
  const auto values = streamBatch(problem, 100, 13);
  const StreamResult want = serialReference(problem, values);
  EXPECT_TRUE(want.floored);
  for (const std::size_t shard : {1u, 16u}) {
    StreamOptions options;
    options.shardInstances = shard;
    options.threads = 4;
    expectSameResult(analyzeStreamValues(problem, values, options), want,
                     "discrete shard " + std::to_string(shard));
  }
}

TEST(AnalyzeStream, CallableFeatureFallsBackBitIdentical) {
  Pcg32 rng(21);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = {1.0, 2.0, 3.0};
  for (int r = 0; r < 4; ++r) {
    num::Vec weights(3);
    for (double& w : weights) {
      w = rng.uniform(0.2, 1.5);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < 3; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    spec.features.push_back(PerformanceFeature{
        "A_" + std::to_string(r), ImpactFunction::affine(std::move(weights)),
        ToleranceBounds::atMost(atOrigin * 1.4)});
  }
  spec.features.push_back(PerformanceFeature{
      "quad",
      ImpactFunction::callable(
          [](std::span<const double> x) {
            return x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
          }),
      ToleranceBounds::atMost(200.0)});
  const auto problem = CompiledProblem::compile(std::move(spec));

  const auto values = streamBatch(problem, 60, 14);
  const StreamResult want = serialReference(problem, values);
  StreamOptions options;
  options.shardInstances = 16;
  options.threads = 4;
  expectSameResult(analyzeStreamValues(problem, values, options), want,
                   "callable fallback");
  EXPECT_EQ(analyzeStreamValues(problem, values, options).screenedInstances,
            0u);
}

TEST(AnalyzeStream, NonAnalyticSolverFallsBackBitIdentical) {
  const auto problem = streamProblem(12, 6, false, SolverKind::KktNewton);
  EXPECT_FALSE(problem.metricKernelLane());
  const auto values = streamBatch(problem, 40, 15);
  const StreamResult want = serialReference(problem, values);
  StreamOptions options;
  options.shardInstances = 8;
  options.threads = 2;
  expectSameResult(analyzeStreamValues(problem, values, options), want,
                   "iterative fallback");
}

TEST(AnalyzeStream, MmapFallbackIsBitIdentical) {
  const auto problem = streamProblem(32, 12);
  const auto values = streamBatch(problem, 200, 16);
  TempFile file("fallback");
  writeInstanceFile(file.path(), values, 12);
  StreamOptions options;
  options.shardInstances = 32;
  const StreamResult mapped = analyzeStream(problem, file.path(), options);
  util::MmapFile::setForceFallback(true);
  const StreamResult fallback = analyzeStream(problem, file.path(), options);
  util::MmapFile::setForceFallback(false);
  expectSameResult(fallback, mapped, "mmap fallback");
}

// ---------------------------------------------------------------------------
// Edge and failure behavior.
// ---------------------------------------------------------------------------

TEST(AnalyzeStream, EmptyFileYieldsInfiniteMetric) {
  TempFile file("empty");
  writeInstanceFile(file.path(), {}, 4);
  const auto problem = streamProblem(8, 4);
  const StreamResult got = analyzeStream(problem, file.path());
  EXPECT_TRUE(bitEq(got.metric, kInf));
  EXPECT_EQ(got.argminInstance, kNoInstance);
  EXPECT_EQ(got.instances, 0u);
  EXPECT_EQ(got.shards, 0u);
}

TEST(AnalyzeStream, DimensionMismatchThrows) {
  TempFile file("mismatch");
  writeInstanceFile(file.path(), {1.0, 2.0, 3.0}, 3);
  const auto problem = streamProblem(8, 4);
  EXPECT_THROW((void)analyzeStream(problem, file.path()),
               InvalidArgumentError);
  EXPECT_THROW((void)analyzeStreamValues(problem, {std::vector<double>(7)}),
               InvalidArgumentError);
}

TEST(AnalyzeStream, NonFinitePayloadRejectedThroughReader) {
  const auto problem = streamProblem(8, 4);
  std::vector<double> values = streamBatch(problem, 50, 17);
  values[33 * 4 + 2] = std::numeric_limits<double>::quiet_NaN();
  std::string bytes;
  {
    std::ostringstream out(std::ios::binary);
    InstanceFileWriter writer(out, 4, InputPolicy::permissive());
    writer.appendBatch(values);
    writer.finish();
    bytes = out.str();
  }
  TempFile file("nanstream");
  writeBytes(file.path(), bytes);
  for (const std::size_t threads : {1u, 4u}) {
    StreamOptions options;
    options.shardInstances = 8;
    options.threads = threads;
    try {
      (void)analyzeStream(problem, file.path(), options);
      FAIL() << "NaN admitted through the stream";
    } catch (const util::ParseError& err) {
      EXPECT_EQ(err.diagnostic().category, util::RejectCategory::Domain);
      EXPECT_EQ(err.diagnostic().line, 34u);
      EXPECT_EQ(err.diagnostic().column, 3u);
    }
  }
}

TEST(AnalyzeStream, DegenerateRowThrowsFromEveryLane) {
  // A zero-weight row inside bounds must throw exactly like the serial
  // lane, from whichever shard/thread meets it first (deterministically
  // surfaced as the lowest-index failure).
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = {1.0, 1.0};
  spec.features.push_back(PerformanceFeature{
      "dead", ImpactFunction::affine(num::Vec{0.0, 0.0}),
      ToleranceBounds::atMost(1.0)});
  const auto problem = CompiledProblem::compile(std::move(spec));
  const std::vector<double> values(2 * 20, 1.0);
  for (const std::size_t threads : {1u, 8u}) {
    StreamOptions options;
    options.shardInstances = 4;
    options.threads = threads;
    EXPECT_THROW((void)analyzeStreamValues(problem, values, options),
                 InvalidArgumentError)
        << threads;
  }
}

TEST(AnalyzeStream, ScreeningSkipsWorkOnEasyBatches) {
  // With tolerance levels far from most instances, the screen should
  // discard the bulk of the batch without materializing metrics.
  const auto problem = streamProblem(64, 16);
  const auto values = streamBatch(problem, 2000, 18);
  StreamOptions options;
  options.shardInstances = 256;
  options.threads = 1;
  const StreamResult got = analyzeStreamValues(problem, values, options);
  const StreamResult want = serialReference(problem, values);
  expectSameResult(got, want, "screened easy batch");
  EXPECT_GT(got.screenedInstances, 0u);
  StreamOptions off = options;
  off.screen = false;
  EXPECT_EQ(analyzeStreamValues(problem, values, off).screenedInstances, 0u);
}

TEST(AnalyzeStream, WarmStartEvaluatesOneInstanceExactly) {
  // Only a cold incumbent pays for a full-kernel metric: one instance per
  // worker, then every other instance is screened or re-checked on its
  // surviving rows alone.
  const auto problem = streamProblem(64, 16);
  const auto values = streamBatch(problem, 2000, 18);
  const StreamResult want = serialReference(problem, values);
  StreamOptions options;
  options.shardInstances = 256;
  options.threads = 1;
  obs::setEnabled(true);
  obs::resetMetrics();
  const StreamResult got = analyzeStreamValues(problem, values, options);
  const auto snapshot = obs::snapshotMetrics();
  obs::setEnabled(false);
  obs::resetMetrics();
  expectSameResult(got, want, "warm start");
  EXPECT_EQ(got.shards, 8u);
  EXPECT_LE(snapshot.counter("core.kernel.dispatch.scalar") +
                snapshot.counter("core.kernel.dispatch.avx2"),
            got.shards);
}

TEST(AnalyzeStream, FirstNonFiniteValueReportedInInstanceOrderByBothLanes) {
  // One 4096-instance shard: a NaN deep in the shard (instance 300), and
  // a NaN in instance 0 — the instance a cold incumbent evaluates first —
  // ahead of a second one at 300. Both lanes must reject the first bad
  // value in instance order with the same position.
  const auto problem = streamProblem(96, 24);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    std::vector<std::pair<std::size_t, std::size_t>> nans;  // (inst, comp)
    std::size_t line;
    std::size_t column;
  };
  const Case cases[] = {{{{300, 4}}, 301, 5}, {{{0, 1}, {300, 4}}, 1, 2}};
  for (const Case& c : cases) {
    std::vector<double> values = streamBatch(problem, 512, 19);
    for (const auto& [inst, comp] : c.nans) {
      values[inst * 24 + comp] = nan;
    }
    std::ostringstream out(std::ios::binary);
    InstanceFileWriter writer(out, 24, InputPolicy::permissive());
    writer.appendBatch(values);
    writer.finish();
    TempFile file("fault_order");
    writeBytes(file.path(), out.str());
    for (const bool screen : {true, false}) {
      for (const std::size_t threads : {1u, 4u}) {
        StreamOptions options;
        options.threads = threads;
        options.screen = screen;
        const std::string what = "line " + std::to_string(c.line) +
                                 (screen ? " screen" : " noscreen") + " t" +
                                 std::to_string(threads);
        try {
          (void)analyzeStream(problem, file.path(), options);
          ADD_FAILURE() << what << ": NaN admitted";
        } catch (const util::ParseError& err) {
          EXPECT_EQ(err.diagnostic().category, util::RejectCategory::Domain)
              << what;
          EXPECT_EQ(err.diagnostic().line, c.line) << what;
          EXPECT_EQ(err.diagnostic().column, c.column) << what;
        }
      }
    }
  }
}

TEST(AnalyzeStream, UnvalidatedNanInstanceIsNeverScreenedAway) {
  // In-memory spans are not validated; an instance holding a NaN then
  // has every row violated (radius 0) in the serial lane. The screen must
  // not discard it even inside a block whose other instances all screen.
  const auto problem = streamProblem(64, 16);
  std::vector<double> values(2000 * 16);
  for (std::size_t i = 0; i < 2000; ++i) {
    Pcg32 rng(20, i);
    for (std::size_t k = 0; k < 16; ++k) {
      values[i * 16 + k] =
          problem.parameter().origin[k] * rng.uniform(0.99, 1.01);
    }
  }
  values[1500 * 16 + 3] = std::numeric_limits<double>::quiet_NaN();
  const StreamResult want = serialReference(problem, values);
  ASSERT_EQ(want.argminInstance, 1500u);
  ASSERT_EQ(want.metric, 0.0);
  for (const std::size_t threads : {1u, 4u}) {
    StreamOptions options;
    options.shardInstances = 256;
    options.threads = threads;
    const StreamResult got = analyzeStreamValues(problem, values, options);
    expectSameResult(got, want, "nan t" + std::to_string(threads));
    EXPECT_GT(got.screenedInstances, 0u);
  }
}

}  // namespace
}  // namespace robust::core
