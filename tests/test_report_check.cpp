// Subprocess tests for the bench/report_check CLI: the exit-code contract
// CI branches on. Missing baseline artifacts (exit 3) and corrupt baseline
// artifacts (exit 4) are different operational failures — one means re-run
// the baseline job, the other means the stored artifact must be
// regenerated — so each gets its own code and message, pinned here.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "robust/obs/json_lite.hpp"
#include "robust/obs/report.hpp"

namespace {

namespace fs = std::filesystem;

constexpr const char* kValidReport = R"({
  "schema": "robust.run_report",
  "schema_version": 1,
  "tool": "test",
  "info": {},
  "benchmarks": [{"name": "bench_a", "value": 100.0, "unit": "ns"}],
  "metrics": {"counters": {}, "gauges": {}, "histograms": {}}
})";

/// Scratch directory removed on destruction; files are written into it.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("robust_report_check_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name,
                                 const std::string& contents) const {
    const fs::path p = path_ / name;
    std::ofstream(p, std::ios::binary) << contents;
    return p.string();
  }
  [[nodiscard]] std::string missing(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

struct RunResult {
  int exitCode = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

/// Runs the report_check binary with `args`, capturing exit code and output.
RunResult runTool(const TempDir& dir, const std::string& args) {
  const std::string capture = dir.missing("capture.txt");
  const std::string cmd = std::string(ROBUST_REPORT_CHECK_BIN) + " " + args +
                          " > " + capture + " 2>&1";
  const int status = std::system(cmd.c_str());
  RunResult result;
  result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(capture, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = buffer.str();
  return result;
}

TEST(ReportCheck, ValidReportAgainstItselfPasses) {
  TempDir dir("ok");
  const std::string report = dir.file("report.json", kValidReport);
  const std::string baseline = dir.file("baseline.json", kValidReport);
  const RunResult r =
      runTool(dir, report + " --baseline " + baseline);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
}

TEST(ReportCheck, NonFiniteBenchmarkValuesStillWriteValidJson) {
  // JSON has no infinity or NaN literal: a rho that is +inf (an empty
  // feasible region) must not turn the run report into invalid JSON.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  robust::obs::RunReport report;
  report.tool = "test";
  report.benchmarks = {{"pos_inf", kInf, "1"},
                       {"neg_inf", -kInf, "1"},
                       {"nan", std::numeric_limits<double>::quiet_NaN(), "1"}};
  std::ostringstream text;
  robust::obs::writeRunReport(text, report);
  const robust::obs::json::Value doc = robust::obs::json::parse(text.str());
  const auto& rows = doc.find("benchmarks")->array;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].find("value")->number,
            std::numeric_limits<double>::max());
  EXPECT_EQ(rows[1].find("value")->number,
            std::numeric_limits<double>::lowest());
  EXPECT_EQ(rows[2].find("value")->number, 0.0);

  TempDir dir("nonfinite");
  const RunResult r = runTool(dir, dir.file("report.json", text.str()));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(ReportCheck, MissingBaselineExitsThreeWithItsOwnMessage) {
  TempDir dir("missing");
  const std::string report = dir.file("report.json", kValidReport);
  const RunResult r = runTool(
      dir, report + " --baseline " + dir.missing("never_written.json"));
  EXPECT_EQ(r.exitCode, 3) << r.output;
  EXPECT_NE(r.output.find("does not exist"), std::string::npos) << r.output;
  // The missing-artifact diagnostic must not be phrased as a corruption.
  EXPECT_EQ(r.output.find("malformed"), std::string::npos) << r.output;
}

TEST(ReportCheck, MalformedBaselineJsonExitsFour) {
  TempDir dir("badjson");
  const std::string report = dir.file("report.json", kValidReport);
  const std::string baseline =
      dir.file("baseline.json", "{ this is not json");
  const RunResult r = runTool(dir, report + " --baseline " + baseline);
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("not valid JSON"), std::string::npos) << r.output;
}

TEST(ReportCheck, BaselineWithoutBenchmarkRowsExitsFour) {
  TempDir dir("hollow");
  const std::string report = dir.file("report.json", kValidReport);
  // Valid JSON, but nothing a regression gate could compare against.
  const std::string baseline =
      dir.file("baseline.json", R"({"benchmarks": []})");
  const RunResult r = runTool(dir, report + " --baseline " + baseline);
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("no well-formed benchmark rows"),
            std::string::npos)
      << r.output;
}

TEST(ReportCheck, GenuineRegressionStillExitsOne) {
  TempDir dir("regress");
  const std::string report = dir.file("report.json", kValidReport);
  const std::string baseline = dir.file(
      "baseline.json",
      R"({"benchmarks": [{"name": "bench_a", "value": 10.0, "unit": "ns"}]})");
  const RunResult r = runTool(dir, report + " --baseline " + baseline);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("regressed"), std::string::npos) << r.output;
}

// A minimal but complete robust.stats snapshot (the STATS admin reply, as
// saved by robustd_stat --json).
constexpr const char* kValidStats = R"({
  "schema": "robust.stats",
  "schema_version": 1,
  "tool": "robustd",
  "server": {"sessions_opened": 2, "sessions_closed": 2,
             "sessions_active": 0, "frames": 9, "batches": 4,
             "instances": 128, "registers": 1, "disconnects": 0,
             "stats_requests": 1, "trace_dumps": 0, "pool_workers": 2,
             "pool_busy": 0, "virtual_time_floor": 4.5},
  "cache": {"hits": 1, "misses": 1, "evictions": 0, "entries": 1,
            "capacity": 64},
  "backpressure": {"stalls": 0, "max_inflight_bytes": 4194304,
                   "backlog_high_water_bytes": 512, "paused_sessions": 0},
  "rejects": {"format": 1, "domain": 0, "structure": 2, "truncated": 0,
              "other": 0, "total": 3},
  "tenants": {"alice": {"sessions": 1, "frames": 7, "batches": 4,
                        "instances": 128, "registers": 1, "cache_hits": 0,
                        "cache_misses": 1, "rejects_total": 0,
                        "virtual_time": 4.5, "charged_cost": 128.0,
                        "latency": {
    "analyze": {"count": 4, "sum_nanos": 4000, "p50_nanos": 1023,
                "p95_nanos": 2047, "p99_nanos": 2047},
    "compile": {"count": 1, "sum_nanos": 900, "p50_nanos": 1023,
                "p95_nanos": 1023, "p99_nanos": 1023},
    "queue": {"count": 5, "sum_nanos": 100, "p50_nanos": 31,
              "p95_nanos": 63, "p99_nanos": 63}}}},
  "flight": {"records": 12, "capacity": 512, "dumps": 0}
})";

TEST(ReportCheck, ValidStatsSnapshotPassesWithDottedRequires) {
  TempDir dir("stats_ok");
  const std::string stats = dir.file("stats.json", kValidStats);
  const RunResult r = runTool(
      dir, stats +
               " --require server.frames --require tenants.alice.batches"
               " --require flight.capacity");
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(ReportCheck, StatsMissingRequiredKeyExitsOne) {
  TempDir dir("stats_req");
  const std::string stats = dir.file("stats.json", kValidStats);
  const RunResult r = runTool(dir, stats + " --require tenants.bob");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("required stats key 'tenants.bob' is missing"),
            std::string::npos)
      << r.output;
}

TEST(ReportCheck, StatsSchemaViolationsAreCaught) {
  TempDir dir("stats_bad");
  // rejects.total disagrees with the category sum: a half-updated or
  // hand-edited document must not validate.
  std::string lying = kValidStats;
  const std::string needle = "\"total\": 3";
  lying.replace(lying.find(needle), needle.size(), "\"total\": 7");
  const std::string stats = dir.file("stats.json", lying);
  const RunResult r = runTool(dir, stats);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("rejects.total"), std::string::npos) << r.output;

  // A tenant whose latency section lost a digest fails too.
  std::string chopped = kValidStats;
  const std::string digest = "\"compile\"";
  chopped.replace(chopped.find(digest), digest.size(), "\"renamed\"");
  const std::string stats2 = dir.file("stats2.json", chopped);
  const RunResult r2 = runTool(dir, stats2);
  EXPECT_EQ(r2.exitCode, 1) << r2.output;
  EXPECT_NE(r2.output.find("latency.compile"), std::string::npos)
      << r2.output;
}

TEST(ReportCheck, StatsWithWrongSchemaVersionExitsOne) {
  TempDir dir("stats_ver");
  std::string wrong = kValidStats;
  const std::string needle = "\"schema_version\": 1";
  wrong.replace(wrong.find(needle), needle.size(), "\"schema_version\": 99");
  const std::string stats = dir.file("stats.json", wrong);
  const RunResult r = runTool(dir, stats);
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("schema_version"), std::string::npos) << r.output;
}

// A run report carrying a valid "robust.curve" section whose sample count
// matches the embedded curve.samples counter.
constexpr const char* kCurveReport = R"({
  "schema": "robust.run_report",
  "schema_version": 1,
  "tool": "degradation_curve",
  "info": {},
  "benchmarks": [{"name": "bench_a", "value": 100.0, "unit": "ns"}],
  "metrics": {"counters": {"curve.samples": 1000}, "gauges": {},
              "histograms": {}},
  "curve": {
    "schema": "robust.curve", "schema_version": 1,
    "samples": 1000, "finite": 900, "seed": 1, "confidence": 0.99,
    "dkw_epsilon": 0.05, "rho": 0.5, "fast_lane": true, "cache_hit": false,
    "points": [
      {"radius": 0.5, "probability": 0.001, "lower": 0.0, "upper": 0.006},
      {"radius": 1.5, "probability": 0.4, "lower": 0.37, "upper": 0.43},
      {"radius": 3.0, "probability": 0.9, "lower": 0.88, "upper": 0.92}
    ]
  }
})";

TEST(ReportCheck, CurveSectionValidatesAndSatisfiesRequire) {
  TempDir dir("curve_ok");
  const std::string report = dir.file("report.json", kCurveReport);
  const RunResult r = runTool(dir, report + " --require robust.curve");
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(ReportCheck, ReportWithoutCurveSectionFailsTheRequire) {
  TempDir dir("curve_missing");
  const std::string report = dir.file("report.json", kValidReport);
  const RunResult r = runTool(dir, report + " --require robust.curve");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("robust.curve"), std::string::npos) << r.output;
}

TEST(ReportCheck, CurveCdfInvariantsAreEnforced) {
  TempDir dir("curve_bad");
  // A decreasing probability is not a CDF.
  std::string decreasing = kCurveReport;
  const std::string needle = "\"probability\": 0.9";
  decreasing.replace(decreasing.find(needle), needle.size(),
                     "\"probability\": 0.3");
  const RunResult r =
      runTool(dir, dir.file("decreasing.json", decreasing));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("decreases"), std::string::npos) << r.output;

  // A band that does not bracket its estimate.
  std::string band = kCurveReport;
  const std::string lower = "\"lower\": 0.37";
  band.replace(band.find(lower), lower.size(), "\"lower\": 0.41");
  const RunResult r2 = runTool(dir, dir.file("band.json", band));
  EXPECT_EQ(r2.exitCode, 1) << r2.output;
  EXPECT_NE(r2.output.find("bracket"), std::string::npos) << r2.output;

  // The section's sample count must agree with the metrics counter.
  std::string counted = kCurveReport;
  const std::string counter = "\"curve.samples\": 1000";
  counted.replace(counted.find(counter), counter.size(),
                  "\"curve.samples\": 999");
  const RunResult r3 = runTool(dir, dir.file("counted.json", counted));
  EXPECT_EQ(r3.exitCode, 1) << r3.output;
  EXPECT_NE(r3.output.find("disagrees"), std::string::npos) << r3.output;
}

}  // namespace
