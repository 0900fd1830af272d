// perfbench: the repository benchmark. One process per run; every number
// comes from calls into robustalloc's public API or from the robustd
// daemon it spawns (README.md in this directory explains the workloads,
// the metrics and how to read the trace).
//
//   perfbench --workload stream-ooc|curve-eps
//             --seed N --seconds S --trace 0|1
//             --robustd PATH --workdir DIR [--trace-out PATH]
//             [--corrupt-expectation]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit code 0 when the run
// completed (a wrong answer is reported as failed operations, not as a
// crash); 2 on a usage error or an aborted run.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/instance_file.hpp"
#include "robust/core/stream.hpp"
#include "robust/curve/curve.hpp"
#include "robust/net/client.hpp"
#include "robust/net/wire.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/random/distributions.hpp"
#include "robust/util/args.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/mmap_file.hpp"
#include "robust/util/rng.hpp"

extern char** environ;

namespace {

using namespace robust;
using Clock = std::chrono::steady_clock;

std::int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double secondsBetween(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------ tracing

/// One span: a timed call the benchmark made into the program. Spans of
/// one operation share `op`; `parent` indexes the same log (-1 = root).
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// A per-thread span log, kept in memory and written when the run ends.
/// With tracing off open() returns -1 and nothing is recorded.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) {
      spans_.reserve(1 << 16);
    }
  }

  int open(const char* name, int parent = -1, std::uint64_t op = 0) {
    if (!on_) {
      return -1;
    }
    spans_.push_back(Span{name, nowNanos(), 0, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end = nowNanos();
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span named `name`: its duration minus the time
  /// its direct children cover (children of one span never overlap,
  /// since a log belongs to one thread).
  [[nodiscard]] std::vector<double> selfSeconds(std::string_view name) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        out.push_back(
            static_cast<double>(spans_[i].end - spans_[i].start - child[i]) *
            1e-9);
      }
    }
    return out;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, int parent = -1, std::uint64_t op = 0)
      : log_(log), id_(log.open(name, parent, op)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds), one tid
/// per log; args carry the op id and the parent span's index.
void writeTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace " + path);
  }
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      origin = std::min(origin, s.start);
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                    "\"parent\":%d}}",
                    first ? "" : ",\n", s.name, tid,
                    static_cast<double>(s.start - origin) * 1e-3,
                    static_cast<double>(s.end - s.start) * 1e-3,
                    static_cast<unsigned long long>(s.op), s.parent);
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
}

// ------------------------------------------------------------ results

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool gatesPassed = true;  ///< every post-run correctness gate held
  std::map<std::string, Metric> metrics;
};

/// Closed-loop measurement of one window: per-op latencies (failed ops
/// carry +inf) and the wall time with the inline check time removed.
struct Window {
  std::vector<double> latencies;  ///< seconds
  std::uint64_t failed = 0;
  double wallSeconds = 0.0;
  double work = 0.0;  ///< units of completed (correct) work
};


void mergeWindow(Window& into, const Window& w) {
  into.latencies.insert(into.latencies.end(), w.latencies.begin(),
                        w.latencies.end());
  into.failed += w.failed;
  into.work += w.work;
  into.wallSeconds += w.wallSeconds;
}

/// The tail percentile of every workload. p90 leaves at least ten samples
/// beyond it on each (stream-ooc, the slowest, completes about 260 sweeps
/// in a 30 s run).
constexpr double kTailQ = 0.90;

void addEndToEnd(RunOutcome& out, const std::vector<double>& setups,
                 const Window& w, double rssMiB) {
  std::vector<double> lat = w.latencies;
  // A failed op misses every latency limit: it is charged the whole
  // window, which no limit can exceed.
  for (double& v : lat) {
    if (!std::isfinite(v)) {
      v = w.wallSeconds;
    }
  }
  out.metrics["setup_s"] = {median(setups), "s"};
  out.metrics["throughput_per_s"] = {w.work / w.wallSeconds, "1/s"};
  out.metrics["latency_p50_ms"] = {percentile(lat, 0.5) * 1e3, "ms"};
  out.metrics["latency_tail_ms"] = {percentile(lat, kTailQ) * 1e3, "ms"};
  out.metrics["peak_rss_mib"] = {rssMiB, "MiB"};
  std::printf("setup:");
  for (double v : setups) {
    std::printf(" %.4f", v);
  }
  std::printf(" s (median of %zu)\n", setups.size());
  std::printf("latency: p50 and p%g over %zu ops (%zu beyond the tail)\n",
              kTailQ * 100.0, lat.size(),
              lat.size() - static_cast<std::size_t>(std::ceil(
                               kTailQ * static_cast<double>(lat.size()))));
}

/// VmHWM of this process: the process under test for both workloads.
double vmHwmMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------- host calibrations

/// Single-thread STREAM triad a = b + s*c over arrays far larger than the
/// last-level cache; bytes counted are 3 x 8 per element. Median of 5.
double triadGbps() {
  constexpr std::size_t kN = std::size_t{1} << 21;
  std::vector<double> a(kN, 0.0);
  std::vector<double> b(kN, 1.0);
  std::vector<double> c(kN, 2.0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = 1.0 + rep;
    const std::int64_t t0 = nowNanos();
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = b[i] + s * c[i];
    }
    const std::int64_t t1 = nowNanos();
    rates.push_back(3.0 * 8.0 * kN / secondsBetween(t0, t1) * 1e-9);
  }
  volatile double sink = a[kN / 3];
  (void)sink;
  return median(rates);
}

/// num::simd::dotRowsBlocked on a 256 x 64 matrix: 2*rows*dim flops/call.
double dotRowsGflops() {
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kDim = 64;
  Pcg32 rng(11);
  std::vector<double> m(kRows * kDim);
  std::vector<double> x(kDim);
  for (double& v : m) v = rng.uniform(0.1, 2.0);
  for (double& v : x) v = rng.uniform(0.5, 1.5);
  std::vector<double> out(kRows);
  double sink = 0.0;
  std::uint64_t calls = 0;
  const std::int64_t t0 = nowNanos();
  std::int64_t t1 = t0;
  while (t1 - t0 < 150'000'000) {
    for (int k = 0; k < 256; ++k) {
      num::simd::dotRowsBlocked(m.data(), kRows, x, out.data());
      sink += out[k % kRows];
      x[k % kDim] += 1e-12;
    }
    calls += 256;
    t1 = nowNanos();
  }
  volatile double keep = sink;
  (void)keep;
  return 2.0 * kRows * kDim * static_cast<double>(calls) /
         secondsBetween(t0, t1) * 1e-9;
}

/// rnd::standardNormalPair draws per second.
double normalPairsPerSec() {
  Pcg32 rng(13);
  double sink = 0.0;
  std::uint64_t pairs = 0;
  const std::int64_t t0 = nowNanos();
  std::int64_t t1 = t0;
  while (t1 - t0 < 100'000'000) {
    for (int k = 0; k < 4096; ++k) {
      double z0 = 0.0;
      double z1 = 0.0;
      rnd::standardNormalPair(rng, z0, z1);
      sink += z0 + z1;
    }
    pairs += 4096;
    t1 = nowNanos();
  }
  volatile double keep = sink;
  (void)keep;
  return static_cast<double>(pairs) / secondsBetween(t0, t1);
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

struct Host {
  double triad = 0.0;
  double dotGflops = 0.0;
};

Host printHostRecord(std::size_t nproc) {
  Host host;
  host.triad = triadGbps();
  host.dotGflops = dotRowsGflops();
  std::printf(
      "host {\"cpu\":\"%s\",\"nproc\":%zu,\"simd\":\"%s\",\"build\":\"%s\","
      "\"host.triad_gbps\":%.4f,\"numeric.dot_rows_gflops\":%.4f}\n",
      jsonEscape(cpuModel()).c_str(), nproc,
      num::simd::toString(num::simd::activeTarget()), PERFBENCH_BUILD_TYPE,
      host.triad, host.dotGflops);
  return host;
}

// ------------------------------------------------------------ config

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;  ///< flip one expected answer: the gate must fail
  std::string robustd;
  std::string workdir;
  std::string traceOut;
  std::size_t nproc = 1;
};

// Worker threads per workload, explicit and capped by nproc (never the
// threads = 0 hardware default). stream-ooc runs 2: at 4 its sweeps
// compete for memory bandwidth and the run-to-run spread was several
// times larger on a shared 4-vCPU host.
constexpr std::size_t kStreamThreads = 2;
constexpr std::size_t kCurveThreads = 4;

/// Runs `op` in a closed loop for `seconds` (or until `abort` is set).
/// op(i, log, parentSpan, latency, work, check) returns whether the operation
/// succeeded and its answer checked out; `check` is the time the inline
/// check took. Checks run after the latency stamp, and their time is
/// removed from the wall clock, so neither metric includes them. `nextOp`
/// numbers operations across windows.
template <typename Op>
Window closedLoop(double seconds, SpanLog& log, Op&& op,
                  std::uint64_t& nextOp,
                  const std::atomic<bool>* abort = nullptr) {
  Window w;
  double checkSeconds = 0.0;
  const std::int64_t start = nowNanos();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  bool first = true;
  while ((nowNanos() < deadline || first) &&
         (abort == nullptr || !abort->load())) {
    first = false;
    const std::uint64_t i = nextOp++;
    const Scoped span(log, "op", -1, i);
    double latency = 0.0;
    double check = 0.0;
    double work = 0.0;
    const bool ok = op(i, log, span.id(), latency, work, check);
    checkSeconds += check;
    w.latencies.push_back(ok ? latency
                             : std::numeric_limits<double>::infinity());
    if (ok) {
      w.work += work;
    } else {
      ++w.failed;
    }
  }
  w.wallSeconds = secondsBetween(start, nowNanos()) - checkSeconds;
  return w;
}

/// What measure() returns: every operation of the run, the traced
/// windows alone, and the tracing overhead in percent.
struct Measured {
  Window all;
  Window traced;
  double overheadPct = 0.0;
};

/// One untraced window of `seconds`, or, in trace mode, alternating
/// windows of about half a second: untraced, then traced
/// (spans and obs recording on). Alternating keeps slow drift in host
/// speed out of the overhead figure. run(seconds, traced) measures one
/// window; the obs counters cover exactly the traced windows.
template <typename Run>
Measured measure(const Config& cfg, Run&& run) {
  Measured m;
  if (!cfg.trace) {
    m.all = run(cfg.seconds, false);
    return m;
  }
  Window plain;
  const int pairs = std::max(1, static_cast<int>(std::lround(cfg.seconds)));
  const double window = cfg.seconds / (2.0 * pairs);
  obs::resetMetrics();
  for (int k = 0; k < pairs; ++k) {
    mergeWindow(plain, run(window, false));
    obs::setEnabled(true);
    mergeWindow(m.traced, run(window, true));
    obs::setEnabled(false);
  }
  m.all = m.traced;
  mergeWindow(m.all, plain);
  const double plainRate = plain.work / plain.wallSeconds;
  m.overheadPct =
      100.0 * (plainRate - m.traced.work / m.traced.wallSeconds) / plainRate;
  return m;
}

template <typename F>
double timedCheck(F&& f, bool& ok) {
  const std::int64_t t0 = nowNanos();
  ok = f() && ok;
  return secondsBetween(t0, nowNanos());
}

/// Setup repeats per run: setup_s is their median. stream-ooc's set-up
/// writes a 128 MiB file and takes about 0.4 s, so it repeats fewer times.
constexpr int kCurveSetups = 15;
constexpr int kStreamSetups = 7;

// ------------------------------------------------ the bench problems

/// metricBenchProblem (perf_kernels, stream_throughput, degradation_curve)
/// replicated draw-for-draw: affine atMost rows, tolerances spread over
/// [1.05, 4.0] x the origin value. Seed 6 is the committed family.
core::ProblemSpec metricBenchSpec(std::size_t rows, std::size_t dims) {
  Pcg32 rng(6);
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(dims);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
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
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)),
        core::ToleranceBounds::atMost(atOrigin * rng.uniform(1.05, 4.0))});
  }
  return spec;
}

// ========================================================== stream-ooc

constexpr std::size_t kStreamRows = 4096;
constexpr std::size_t kStreamDim = 512;
constexpr std::uint64_t kStreamInstances = 32768;  // 128 MiB payload
constexpr std::uint64_t kHeadSample = 256;

/// `etc_pack gen` semantics: the family origin jittered by +-1% per
/// component, instance i drawn from Pcg32(seed, i).
void writeStreamFile(const std::string& path, std::uint64_t seed) {
  std::vector<double> origin(kStreamDim);
  Pcg32 base(6);
  for (double& v : origin) {
    v = base.uniform(0.5, 1.5);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot create " + path);
  }
  core::InstanceFileWriter writer(out, kStreamDim, {}, path);
  std::vector<double> row(kStreamDim);
  for (std::uint64_t i = 0; i < kStreamInstances; ++i) {
    Pcg32 rng(seed, i);
    for (std::size_t k = 0; k < kStreamDim; ++k) {
      row[k] = origin[k] * rng.uniform(0.99, 1.01);
    }
    writer.append(row);
  }
  writer.finish();
  out.close();
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

bool sameAnswer(const core::StreamResult& a, const core::StreamResult& b) {
  return bitEq(a.metric, b.metric) && a.argminInstance == b.argminInstance &&
         a.bindingFeature == b.bindingFeature && a.floored == b.floored;
}

/// The serial reference: analyzeBatchMetric(threads=1) folded with the
/// first-strict-min rule.
core::StreamResult serialFold(const core::CompiledProblem& problem,
                              std::span<const double> values) {
  const std::size_t dim = problem.dimension();
  const std::size_t n = values.size() / dim;
  std::vector<core::AnalysisInstance> instances(n);
  for (std::size_t i = 0; i < n; ++i) {
    instances[i].origin = {values.data() + i * dim, dim};
  }
  const std::vector<core::MetricResult> out =
      problem.analyzeBatchMetric(instances, /*threads=*/1);
  core::StreamResult r;
  r.metric = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i].metric < r.metric) {
      r.metric = out[i].metric;
      r.argminInstance = i;
      r.bindingFeature = out[i].bindingFeature;
      r.floored = out[i].floored;
    }
  }
  return r;
}

struct StreamState {
  std::string path;
  std::unique_ptr<core::CompiledProblem> problem;
  core::StreamOptions options;
  core::StreamResult warm;  ///< the warm-up sweep's answer
};

StreamState setupStream(const Config& cfg, SpanLog& log, double& seconds) {
  StreamState st;
  const std::int64_t t0 = nowNanos();
  const Scoped setup(log, "setup");
  st.path = cfg.workdir + "/perturbations.rbi";
  {
    const Scoped s(log, "setup.input", setup.id());
    writeStreamFile(st.path, cfg.seed);
  }
  {
    const Scoped s(log, "setup.ready", setup.id());
    st.problem = std::make_unique<core::CompiledProblem>(
        core::CompiledProblem::compile(
            metricBenchSpec(kStreamRows, kStreamDim)));
    st.options.threads = std::min(kStreamThreads, cfg.nproc);
  }
  {
    const Scoped s(log, "setup.warmup", setup.id());
    st.warm = core::analyzeStream(*st.problem, st.path, st.options);
  }
  seconds = secondsBetween(t0, nowNanos());
  return st;
}

/// util::InstanceFileReader::read over the whole file in 4096-instance
/// windows, touching every value: the plain page-in rate.
double mmapReadGbps(const std::string& path) {
  const core::InstanceFileReader reader(path);
  util::MmapFile::View view;
  double sink = 0.0;
  std::uint64_t bytes = 0;
  const std::int64_t t0 = nowNanos();
  std::int64_t t1 = t0;
  while (t1 - t0 < 300'000'000 || bytes == 0) {
    for (std::uint64_t first = 0; first < reader.instances(); first += 4096) {
      const std::uint64_t n = std::min<std::uint64_t>(
          4096, reader.instances() - first);
      const std::span<const double> v = reader.read(first, n, view);
      double acc = 0.0;
      for (double x : v) {
        acc += x;
      }
      sink += acc;
      bytes += v.size_bytes();
    }
    t1 = nowNanos();
  }
  volatile double keep = sink;
  (void)keep;
  return static_cast<double>(bytes) / secondsBetween(t0, t1) * 1e-9;
}

/// analyzeStreamValues on the file's first 8192 instances, in memory.
double streamValuesInstPerSec(const StreamState& st) {
  const core::InstanceFileReader reader(st.path);
  util::MmapFile::View view;
  const std::span<const double> mapped = reader.read(0, 8192, view);
  const std::vector<double> chunk(mapped.begin(), mapped.end());
  std::uint64_t instances = 0;
  const std::int64_t t0 = nowNanos();
  std::int64_t t1 = t0;
  while (t1 - t0 < 300'000'000 || instances == 0) {
    const core::StreamResult r =
        core::analyzeStreamValues(*st.problem, chunk, st.options);
    instances += r.instances;
    t1 = nowNanos();
  }
  return static_cast<double>(instances) / secondsBetween(t0, t1);
}

// =========================================================== curve-eps

constexpr std::size_t kCurveRows = 256;
constexpr std::size_t kCurveDim = 64;
constexpr double kCurveEpsilon = 0.01;
constexpr double kCurveConfidence = 0.99;

/// DKW: N with sqrt(ln(2/alpha) / 2N) <= epsilon at 1 - alpha confidence.
std::size_t dkwSamples() {
  return static_cast<std::size_t>(
      std::ceil(std::log(2.0 / (1.0 - kCurveConfidence)) /
                (2.0 * kCurveEpsilon * kCurveEpsilon)));
}

std::uint64_t curveSeed(std::uint64_t seed, std::uint64_t op) {
  return familySeed(seed, 0x6570 + op);
}

struct CurveState {
  std::unique_ptr<core::CompiledProblem> problem;
  curve::CurveOptions options;
};

/// Invariants every delivered curve must satisfy: the epsilon the user
/// asked for, a sorted radius list (so the CDF is monotone), every radius
/// at or above rho, a monotone digest, and no cache hit (fresh seeds).
bool curveInvariants(const curve::CurveResult& r, std::size_t samples) {
  if (r.samples != samples || r.radii.size() != samples ||
      !(r.dkwEpsilon <= kCurveEpsilon) || r.cacheHit || !r.fastLane) {
    return false;
  }
  for (std::size_t i = 0; i < r.radii.size(); ++i) {
    if (!(r.radii[i] >= r.rho) || (i > 0 && !(r.radii[i] >= r.radii[i - 1]))) {
      return false;
    }
  }
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    if (!(r.points[i].probability >= r.points[i - 1].probability)) {
      return false;
    }
  }
  return true;
}

/// FNV-1a 64 over the radii's bit patterns: the kept curves are compared
/// bit for bit without holding their radii, which would count toward
/// peak_rss_mib.
std::uint64_t radiiDigest(const std::vector<double>& radii) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double r : radii) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(r);
    for (int b = 0; b < 8; ++b) {
      h = (h ^ (bits & 0xffu)) * 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  return h;
}

CurveState setupCurve(const Config& cfg, SpanLog& log, double& seconds,
                      std::uint64_t setupIndex) {
  CurveState st;
  const std::int64_t t0 = nowNanos();
  const Scoped setup(log, "setup");
  core::ProblemSpec spec;
  {
    const Scoped s(log, "setup.input", setup.id());
    spec = metricBenchSpec(kCurveRows, kCurveDim);
  }
  {
    const Scoped s(log, "setup.ready", setup.id());
    st.problem = std::make_unique<core::CompiledProblem>(
        core::CompiledProblem::compile(std::move(spec)));
    st.options.samples = dkwSamples();
    st.options.confidence = kCurveConfidence;
    st.options.threads = std::min(kCurveThreads, cfg.nproc);
  }
  {
    const Scoped s(log, "setup.warmup", setup.id());
    curve::CurveOptions o = st.options;
    o.seed = familySeed(cfg.seed, 0x7761726d + setupIndex);
    const curve::CurveResult warm = curve::computeCurve(*st.problem, o);
    if (!curveInvariants(warm, o.samples)) {
      throw std::runtime_error("warm-up curve violates its invariants");
    }
  }
  seconds = secondsBetween(t0, nowNanos());
  return st;
}

// ====================================================== the robustd probe

// robustd_load's three spec families (dim 24, 8 features; odd families
// carry a hard budget constraint) at robustd_load's default seed. The
// specs stay fixed so the constrained family's cost does not move with
// --seed; the batches are drawn from --seed.
constexpr std::uint64_t kSpecSeed = 42;
constexpr std::size_t kServeDim = 24;
constexpr std::size_t kServeFeatures = 8;
constexpr std::size_t kSpecFamilies = 3;

core::ProblemSpec makeSpec(std::uint64_t seed, std::size_t family) {
  auto rng = makeStream(seed, 1000 + family);
  core::ProblemSpec spec;
  spec.parameter.name = "pi (load family " + std::to_string(family) + ")";
  spec.parameter.origin.resize(kServeDim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(1.0, 4.0);
  }
  for (std::size_t f = 0; f < kServeFeatures; ++f) {
    num::Vec weights(kServeDim);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    const double constant = rng.uniform(-1.0, 1.0);
    double phiOrig = constant;
    for (std::size_t j = 0; j < kServeDim; ++j) {
      phiOrig += weights[j] * spec.parameter.origin[j];
    }
    const double slack = rng.uniform(2.0, 6.0);
    spec.features.push_back(core::PerformanceFeature{
        "phi_" + std::to_string(f),
        core::ImpactFunction::affine(std::move(weights), constant),
        core::ToleranceBounds::between(phiOrig - slack, phiOrig + slack)});
  }
  if (family % 2 == 1) {
    core::LinearConstraint budget;
    budget.name = "budget";
    budget.coeffs.assign(kServeDim, 1.0);
    double load = 0.0;
    for (double v : spec.parameter.origin) {
      load += v;
    }
    budget.bound = load + 0.05 * load;
    spec.constraints.push_back(std::move(budget));
  }
  return spec;
}

struct Batch {
  std::size_t family = 0;
  std::vector<double> origins;
  std::vector<net::WireResult> expect;  ///< filled by the offline oracle

  [[nodiscard]] std::uint32_t instances() const {
    return static_cast<std::uint32_t>(origins.size() / kServeDim);
  }
};

// The robustd probe of every traced run: four connections (one client
// thread and tenant each) send batches of all three families round-robin,
// from a pool of 96 distinct batches per connection. The unconstrained
// families send 1024 instances per batch. The constrained family takes the
// full evaluate() lane, nearly 900 times the cost per instance, so its
// batches carry one instance: it then takes a minority of the daemon's time
// and the metric fast path, framing and codecs carry the rest. README.md
// explains why robustd is a probe and not an end-to-end workload.
constexpr std::size_t kServeConns = 4;
constexpr std::size_t kServeBatchesPerConn = 96;
constexpr std::size_t kServeInstances = 1024;
constexpr std::size_t kConstrainedInstances = 1;
constexpr std::size_t kServeWorkers = 2;
constexpr double kRobustdProbeSeconds = 3.0;

std::size_t familyInstances(std::size_t family) {
  return family % 2 == 1 ? kConstrainedInstances : kServeInstances;
}

/// `perConn` batches per connection, round-robin over the spec families.
std::vector<std::vector<Batch>> makeBatches(
    std::uint64_t seed, std::size_t conns, std::size_t perConn,
    const std::vector<core::ProblemSpec>& specs) {
  std::vector<std::vector<Batch>> out(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    for (std::size_t b = 0; b < perConn; ++b) {
      Batch batch;
      batch.family = b % kSpecFamilies;
      const std::size_t instances = familyInstances(batch.family);
      const auto& origin = specs[batch.family].parameter.origin;
      auto rng = makeStream(seed, 2, c * 100000 + b);
      batch.origins.resize(instances * kServeDim);
      for (std::size_t i = 0; i < instances; ++i) {
        for (std::size_t j = 0; j < kServeDim; ++j) {
          batch.origins[i * kServeDim + j] =
              origin[j] + rng.uniform(-0.5, 0.5);
        }
      }
      out[c].push_back(std::move(batch));
    }
  }
  return out;
}

/// The offline oracle: exactly the calls robustd makes per batch.
std::vector<net::WireResult> offlineAnswers(
    const core::CompiledProblem& problem, const std::vector<double>& origins) {
  const std::size_t n = origins.size() / kServeDim;
  std::vector<core::AnalysisInstance> batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].origin = {origins.data() + i * kServeDim, kServeDim};
  }
  const std::vector<core::MetricResult> metrics =
      problem.analyzeBatchMetric(batch, /*threads=*/1);
  std::vector<net::WireResult> expect(n);
  const bool constrained = !problem.constraints().empty();
  for (std::size_t i = 0; i < n; ++i) {
    expect[i].rho = metrics[i].metric;
    expect[i].bindingFeature =
        static_cast<std::uint32_t>(metrics[i].bindingFeature);
    expect[i].floored = metrics[i].floored;
    expect[i].infeasibleOrigin =
        constrained && !problem.originFeasible(batch[i].origin);
  }
  return expect;
}

using Families = std::vector<std::unique_ptr<core::CompiledProblem>>;

/// The spec families compiled locally, for the offline oracle.
Families compileFamilies() {
  Families problems;
  for (std::size_t f = 0; f < kSpecFamilies; ++f) {
    problems.push_back(std::make_unique<core::CompiledProblem>(
        core::CompiledProblem::compile(makeSpec(kSpecSeed, f))));
  }
  return problems;
}

void fillExpected(std::vector<std::vector<Batch>>& batches,
                  const Families& problems) {
  for (auto& pool : batches) {
    for (Batch& b : pool) {
      b.expect = offlineAnswers(*problems[b.family], b.origins);
    }
  }
}

bool sameReplies(const std::vector<net::WireResult>& got,
                 const std::vector<net::WireResult>& expect) {
  if (got.size() != expect.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i].rho, &expect[i].rho, sizeof(double)) != 0 ||
        got[i].bindingFeature != expect[i].bindingFeature ||
        got[i].floored != expect[i].floored ||
        got[i].infeasibleOrigin != expect[i].infeasibleOrigin) {
      return false;
    }
  }
  return true;
}

/// A robustd child on a private Unix socket. The destructor kills and
/// reaps a daemon that was not stopped, so no path leaves one running.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket,
         std::size_t workers)
      : socket_(socket) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const std::string workerArg = std::to_string(workers);
    std::vector<std::string> argv = {exe,       "--unix",    socket,
                                     "--workers", workerArg};
    std::vector<char*> raw;
    for (std::string& a : argv) {
      raw.push_back(a.data());
    }
    raw.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                                 raw.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      ::close(out_);
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + exe + ": " +
                               std::strerror(rc));
    }
    try {
      waitReady();
    } catch (...) {
      kill();  // a throwing constructor runs no destructor
      throw;
    }
  }

  ~Daemon() { kill(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// SIGINT (graceful stop) and reap; returns the exit code (-1 when it
  /// died from a signal). robustd exits 0 only when its session ledger
  /// balances.
  int stop() {
    ::kill(pid_, SIGINT);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    drain();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  void waitReady() {
    const std::int64_t deadline = nowNanos() + 20'000'000'000;
    std::string seen;
    while (seen.find("listening") == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      const int left =
          static_cast<int>(std::max<std::int64_t>(0, deadline - nowNanos()) /
                           1'000'000);
      if (::poll(&p, 1, left) <= 0) {
        throw std::runtime_error("robustd did not report ready");
      }
      char buf[256];
      const ssize_t n = ::read(out_, buf, sizeof(buf));
      if (n <= 0) {
        throw std::runtime_error("robustd exited before it was ready");
      }
      seen.append(buf, static_cast<std::size_t>(n));
    }
    // robustd installs its SIGINT handler just after it reports ready; a
    // stop request must not beat it, or the default action kills the
    // daemon before its ledger check.
    while (!catchesSigint()) {
      if (nowNanos() > deadline) {
        throw std::runtime_error("robustd never installed its SIGINT handler");
      }
      std::this_thread::yield();
    }
  }

  [[nodiscard]] bool catchesSigint() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("SigCgt:", 0) == 0) {
        return ((std::stoull(line.substr(7), nullptr, 16) >> (SIGINT - 1)) &
                1u) != 0;
      }
    }
    return false;
  }

  /// SIGKILL and reap a daemon that is still running; close the pipe.
  void kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_ >= 0) {
      ::close(out_);
      out_ = -1;
    }
  }

  void drain() {
    char buf[512];
    while (::read(out_, buf, sizeof(buf)) > 0) {
    }
  }

  std::string socket_;
  pid_t pid_ = -1;
  int out_ = -1;
};

struct ServerCounters {
  double frames = 0;
  double stalls = 0;
  double rejects = 0;
  double analyzeCount = 0;
  double analyzeSum = 0;
  double queueCount = 0;
  double queueSum = 0;
  double queueP99 = 0;  ///< max over tenants, nanoseconds (bucket bound)
};

double num(const obs::json::Value& v, std::initializer_list<const char*> path) {
  const obs::json::Value* cur = &v;
  for (const char* key : path) {
    cur = cur->find(key);
    if (cur == nullptr) {
      throw std::runtime_error(std::string("STATS lacks ") + key);
    }
  }
  return cur->number;
}

ServerCounters readStats(net::Client& client) {
  const obs::json::Value doc = obs::json::parse(client.stats());
  ServerCounters c;
  c.frames = num(doc, {"server", "frames"});
  c.stalls = num(doc, {"backpressure", "stalls"});
  c.rejects = num(doc, {"rejects", "total"});
  const obs::json::Value* tenants = doc.find("tenants");
  if (tenants != nullptr) {
    for (const auto& [name, t] : tenants->object) {
      c.analyzeCount += num(t, {"latency", "analyze", "count"});
      c.analyzeSum += num(t, {"latency", "analyze", "sum_nanos"});
      c.queueCount += num(t, {"latency", "queue", "count"});
      c.queueSum += num(t, {"latency", "queue", "sum_nanos"});
      c.queueP99 = std::max(c.queueP99, num(t, {"latency", "queue",
                                                "p99_nanos"}));
    }
  }
  return c;
}

struct Conn {
  net::Client client;
  std::vector<std::uint64_t> keys;  ///< per spec family
};

struct ServeState {
  std::unique_ptr<Daemon> daemon;
  std::vector<Conn> conns;
  std::vector<std::vector<Batch>> batches;
};

/// Generates the batch pools, spawns robustd, and connects every tenant
/// with HELLO and one REGISTER per spec family.
ServeState setupServe(const Config& cfg) {
  ServeState st;
  std::vector<core::ProblemSpec> specs;
  for (std::size_t f = 0; f < kSpecFamilies; ++f) {
    specs.push_back(makeSpec(kSpecSeed, f));
  }
  st.batches = makeBatches(cfg.seed, kServeConns, kServeBatchesPerConn, specs);
  st.daemon = std::make_unique<Daemon>(cfg.robustd, cfg.workdir + "/d.sock",
                                       kServeWorkers);
  st.conns.resize(kServeConns);
  for (std::size_t c = 0; c < kServeConns; ++c) {
    Conn& conn = st.conns[c];
    conn.client.connectUnix(st.daemon->socket());
    conn.client.hello("bulk" + std::to_string(c),
                      static_cast<std::uint32_t>(kServeInstances));
    for (const core::ProblemSpec& spec : specs) {
      conn.keys.push_back(conn.client.registerProblem(spec).key);
    }
  }
  return st;
}

/// BYE every session, SIGINT the daemon, require exit 0.
bool teardownServe(ServeState& st) {
  bool ok = true;
  for (Conn& conn : st.conns) {
    try {
      conn.client.bye();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: bye failed: %s\n", e.what());
      ok = false;
    }
  }
  const int code = st.daemon->stop();
  if (code != 0) {
    std::fprintf(stderr, "perfbench: robustd exited %d\n", code);
    ok = false;
  }
  return ok;
}

// ============================================================ runners

/// Every per-layer metric a traced run reports, with its unit. Metrics of
/// a path the workload does not run are measured by a standalone probe
/// (rates and costs) or read 0 (counts and server-side times): README.md
/// lists which is which.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"host.triad_gbps", "GB/s"},
    {"numeric.dot_rows_gflops", "GFLOP/s"},
    {"random.normal_pairs_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
    {"setup.input_ms", "ms"},
    {"setup.ready_ms", "ms"},
    {"setup.warmup_ms", "ms"},
    {"util.mmap.read_gbps", "GB/s"},
    {"io.mmap.bytes_mapped", "B"},
    {"core.stream.values_inst_per_s", "1/s"},
    {"core.stream.screened_fraction", "ratio"},
    {"core.stream.shards", "count"},
    {"core.stream.queue_high_water", "count"},
    {"core.rows_evaluated", "count"},
    {"core.prune.rows_skipped", "count"},
    {"core.stream.payload_gbps", "GB/s"},
    {"curve.samples_per_curve", "count"},
    {"curve.rows_visited_fraction", "ratio"},
    {"curve.serial_ns_per_sample", "ns"},
    {"curve.scaling_eff", "ratio"},
    {"curve.fallback_samples", "count"},
    {"curve.cache.hits", "count"},
    {"util.pool.tasks", "count"},
    {"util.pool.task_ns_p50", "ns"},
    {"util.pool.queue_high_water", "count"},
    {"core.metric.batch_us", "us"},
    {"net.server.analyze_us_mean", "us"},
    {"net.server.queue_us_mean", "us"},
    {"net.server.queue_us_p99", "us"},
    {"net.frame_overhead_us", "us"},
    {"net.server.frames", "count"},
    {"net.server.backpressure_stalls", "count"},
    {"net.server.rejects", "count"},
    {"net.wire.encode_analyze_gbps", "GB/s"},
    {"net.wire.decode_result_gbps", "GB/s"},
};

void put(RunOutcome& out, const char* name, double value) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (std::strcmp(n, name) == 0) {
      out.metrics[name] = {value, unit};
      return;
    }
  }
  throw std::logic_error(std::string("unlisted layer metric ") + name);
}

void addCommonLayer(RunOutcome& out, double overheadPct, const SpanLog& log) {
  put(out, "random.normal_pairs_per_s", normalPairsPerSec());
  put(out, "trace.overhead_pct", overheadPct);
  put(out, "setup.input_ms", median(log.selfSeconds("setup.input")) * 1e3);
  put(out, "setup.ready_ms", median(log.selfSeconds("setup.ready")) * 1e3);
  put(out, "setup.warmup_ms", median(log.selfSeconds("setup.warmup")) * 1e3);
}

/// The thread-pool layer over a traced window of `ops` operations.
void addPoolLayer(RunOutcome& out, const obs::MetricsSnapshot& snap,
                  double ops) {
  const obs::HistogramValue* task = snap.histogram("util.pool_task_ns");
  put(out, "util.pool.tasks",
      ops > 0 ? static_cast<double>(snap.counter("util.pool_tasks")) / ops
              : 0.0);
  put(out, "util.pool.task_ns_p50",
      task != nullptr ? static_cast<double>(task->quantileUpperNanos(0.5))
                      : 0.0);
  put(out, "util.pool.queue_high_water",
      static_cast<double>(snap.gauge("util.pool_queue_highwater")));
}

/// Stream-layer probes on a stream-ooc input: the plain mmap read rate
/// and analyzeStreamValues on an in-memory chunk.
void streamProbes(RunOutcome& out, const StreamState& st) {
  put(out, "util.mmap.read_gbps", mmapReadGbps(st.path));
  put(out, "core.stream.values_inst_per_s", streamValuesInstPerSec(st));
}

/// Serial cost per curve sample and thread-scaling efficiency, uncached.
void curveProbes(RunOutcome& out, const Config& cfg, const CurveState& st) {
  std::vector<double> serial;
  std::vector<double> parallel;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    curve::CurveOptions o = st.options;
    o.useCache = false;
    o.seed = familySeed(cfg.seed, 0x5ca1e + rep);
    std::int64_t t0 = nowNanos();
    (void)curve::computeCurve(*st.problem, o);
    parallel.push_back(secondsBetween(t0, nowNanos()));
    o.threads = 1;
    t0 = nowNanos();
    (void)curve::computeCurve(*st.problem, o);
    serial.push_back(secondsBetween(t0, nowNanos()));
  }
  put(out, "curve.serial_ns_per_sample",
      median(serial) / static_cast<double>(st.options.samples) * 1e9);
  put(out, "curve.scaling_eff",
      median(serial) /
          (static_cast<double>(st.options.threads) * median(parallel)));
}

/// Offline costs of the serve path on a batch pool whose expected answers
/// are filled: the daemon's per-batch arithmetic (analyzeBatchMetric with
/// threads=1 plus originFeasible) and the ANALYZE/RESULT codecs.
void serveProbes(RunOutcome& out, const Families& problems,
                 const std::vector<Batch>& pool) {
  // Runs body over the pool for at least `nanos`; returns seconds per call.
  const auto perCall = [&pool](std::int64_t nanos, auto&& body) {
    std::uint64_t n = 0;
    const std::int64_t t0 = nowNanos();
    std::int64_t t1 = t0;
    while (t1 - t0 < nanos || n < pool.size()) {
      body(pool[n % pool.size()], n);
      ++n;
      t1 = nowNanos();
    }
    return secondsBetween(t0, t1) / static_cast<double>(n);
  };
  std::uint64_t sink = 0;
  std::array<double, kSpecFamilies> familySeconds{};
  put(out, "core.metric.batch_us",
      perCall(300'000'000, [&](const Batch& b, std::uint64_t) {
        const std::int64_t t0 = nowNanos();
        sink += offlineAnswers(*problems[b.family], b.origins).size();
        familySeconds[b.family] += secondsBetween(t0, nowNanos());
      }) * 1e6);
  const double total = familySeconds[0] + familySeconds[1] + familySeconds[2];
  std::printf("robustd probe: batch arithmetic time share by family: 0 %.3f, "
              "1 (constrained) %.3f, 2 %.3f\n",
              familySeconds[0] / total, familySeconds[1] / total,
              familySeconds[2] / total);

  std::vector<std::uint8_t> buf;
  double encodedBytes = 0.0;
  double encodeCalls = 0.0;
  const double encodeSeconds =
      perCall(200'000'000, [&](const Batch& b, std::uint64_t n) {
        buf.clear();
        net::encodeAnalyze(n, b.instances(), b.origins, buf);
        encodedBytes += static_cast<double>(buf.size());
        encodeCalls += 1.0;
      });
  sink += buf.size();
  put(out, "net.wire.encode_analyze_gbps",
      encodedBytes / encodeCalls / encodeSeconds * 1e-9);

  std::vector<std::uint8_t> encoded;  // family 0: a full-size reply
  net::encodeResult(pool[0].expect, encoded);
  const net::WireLimits limits;
  const util::Diagnostics diag("perfbench");
  const double decodeSeconds = perCall(200'000'000, [&](const Batch&,
                                                        std::uint64_t) {
    sink += net::decodeResult(encoded, limits, diag).size();
  });
  put(out, "net.wire.decode_result_gbps",
      static_cast<double>(encoded.size()) / decodeSeconds * 1e-9);
  if (sink == 0) {
    throw std::runtime_error("serve probes produced no results");
  }
}

/// core.rows_evaluated per batch over one pass of the pool through the
/// daemon's calls, obs on. Only the constrained family's full evaluate()
/// lane counts evaluated rows; the metric fast path counts none.
double rowsEvaluatedPerBatch(const Families& problems,
                             const std::vector<Batch>& pool) {
  obs::setEnabled(true);
  const std::uint64_t before =
      obs::snapshotMetrics().counter("core.rows_evaluated");
  for (const Batch& b : pool) {
    (void)offlineAnswers(*problems[b.family], b.origins);
  }
  const std::uint64_t after =
      obs::snapshotMetrics().counter("core.rows_evaluated");
  obs::setEnabled(false);
  return static_cast<double>(after - before) /
         static_cast<double>(pool.size());
}

void writeTraceIfAsked(const Config& cfg,
                       const std::vector<const SpanLog*>& logs) {
  if (cfg.trace && !cfg.traceOut.empty()) {
    writeTrace(cfg.traceOut, logs);
    std::printf("trace: %s\n", cfg.traceOut.c_str());
  }
}

RunOutcome runStream(const Config& cfg) {
  SpanLog log(cfg.trace);
  std::vector<double> setups;
  StreamState st;
  for (int k = 0; k < kStreamSetups; ++k) {
    double s = 0.0;
    st = setupStream(cfg, log, s);
    setups.push_back(s);
  }
  const core::StreamResult reference = st.warm;
  const auto sweep = [&](std::uint64_t, SpanLog& spans, int parent,
                         double& latency, double& work, double& check) {
    const std::int64_t t0 = nowNanos();
    core::StreamResult r;
    {
      const Scoped call(spans, "analyzeStream", parent);
      r = core::analyzeStream(*st.problem, st.path, st.options);
    }
    latency = secondsBetween(t0, nowNanos());
    work = static_cast<double>(r.instances);
    bool ok = r.instances == kStreamInstances;
    check = timedCheck([&] { return sameAnswer(r, reference); }, ok);
    return ok;
  };
  SpanLog off(false);
  std::uint64_t nextOp = 0;
  const Measured m = measure(cfg, [&](double seconds, bool traced) {
    return closedLoop(seconds, traced ? log : off, sweep, nextOp);
  });
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();

  RunOutcome out;
  out.attempted = m.all.latencies.size();
  out.failed = m.all.failed;

  // Gates outside the timed region: the file head against the serial
  // fold, and the reported argmin re-evaluated on its own.
  {
    const core::InstanceFileReader reader(st.path);
    util::MmapFile::View view;
    const std::span<const double> head = reader.read(0, kHeadSample, view);
    const core::StreamResult serial = serialFold(*st.problem, head);
    const core::StreamResult streamed =
        core::analyzeStreamValues(*st.problem, head, st.options);
    core::StreamResult expect = serial;
    if (cfg.corrupt) {
      expect.metric = std::nextafter(expect.metric, 0.0);
    }
    const bool headOk = sameAnswer(streamed, expect);
    bool argminOk = reference.argminInstance < kStreamInstances &&
                    reference.metric <= serial.metric;
    if (argminOk) {
      core::AnalysisInstance inst;
      inst.origin = reader.read(reference.argminInstance, 1, view);
      const core::MetricResult m = st.problem->evaluateMetric(inst);
      argminOk = bitEq(m.metric, reference.metric) &&
                 m.bindingFeature == reference.bindingFeature;
    }
    if (!headOk || !argminOk) {
      std::fprintf(stderr,
                   "perfbench: stream gate failed (head %d, argmin %d)\n",
                   headOk, argminOk);
      out.gatesPassed = false;
      out.failed = out.attempted;  // every sweep returned that answer
    }
  }

  std::printf("stream: %llu x %zu instances per sweep against %zu x %zu "
              "rows, %zu threads\n",
              static_cast<unsigned long long>(kStreamInstances), kStreamDim,
              kStreamRows, kStreamDim, st.options.threads);
  if (!cfg.trace) {
    addEndToEnd(out, setups, m.all, vmHwmMiB());
    return out;
  }
  const double instances =
      static_cast<double>(snap.counter("core.stream.instances"));
  const double sweeps = instances / kStreamInstances;
  const auto perSweep = [&](const char* counter) {
    return sweeps > 0 ? static_cast<double>(snap.counter(counter)) / sweeps
                      : 0.0;
  };
  addCommonLayer(out, m.overheadPct, log);
  addPoolLayer(out, snap, sweeps);
  streamProbes(out, st);
  put(out, "io.mmap.bytes_mapped", perSweep("io.mmap.bytes_mapped"));
  put(out, "core.stream.screened_fraction",
      instances > 0 ? static_cast<double>(
                          snap.counter("core.stream.instances_screened")) /
                          instances
                    : 0.0);
  put(out, "core.stream.shards", perSweep("core.stream.shards"));
  put(out, "core.stream.queue_high_water",
      static_cast<double>(snap.gauge("core.stream.queue_high_water")));
  put(out, "core.rows_evaluated", perSweep("core.rows_evaluated"));
  put(out, "core.prune.rows_skipped", perSweep("core.prune.rows_skipped"));
  // Computed, not measured: payload bytes swept over the traced window.
  put(out, "core.stream.payload_gbps",
      instances * kStreamDim * 8.0 / m.traced.wallSeconds * 1e-9);
  writeTraceIfAsked(cfg, {&log});
  return out;
}

RunOutcome runCurve(const Config& cfg) {
  SpanLog log(cfg.trace);
  std::vector<double> setups;
  CurveState st;
  for (int k = 0; k < kCurveSetups; ++k) {
    double s = 0.0;
    st = setupCurve(cfg, log, s, static_cast<std::uint64_t>(k));
    setups.push_back(s);
  }
  curve::clearCurveCache();
  // Every 16th curve's (seed, radii digest) is kept for the threads=1
  // recompute after the run.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
  const std::size_t samples = st.options.samples;
  const auto curveOp = [&](std::uint64_t i, SpanLog& spans, int parent,
                           double& latency, double& work, double& check) {
    curve::CurveOptions o = st.options;
    o.seed = curveSeed(cfg.seed, i);
    const std::int64_t t0 = nowNanos();
    curve::CurveResult r;
    {
      const Scoped call(spans, "computeCurve", parent);
      r = curve::computeCurve(*st.problem, o);
    }
    latency = secondsBetween(t0, nowNanos());
    work = 1.0;
    bool ok = true;
    check = timedCheck(
        [&] {
          const bool valid = curveInvariants(r, samples);
          if (i % 16 == 0 && kept.size() < 24) {
            kept.emplace_back(o.seed, radiiDigest(r.radii));
          }
          return valid;
        },
        ok);
    return ok;
  };
  SpanLog off(false);
  std::uint64_t nextOp = 0;
  const Measured m = measure(cfg, [&](double seconds, bool traced) {
    return closedLoop(seconds, traced ? log : off, curveOp, nextOp);
  });
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();

  RunOutcome out;
  out.attempted = m.all.latencies.size();
  out.failed = m.all.failed;
  // Gate: kept curves bit-equal to a serial, uncached recompute.
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < kept.size(); ++k) {
    curve::CurveOptions o = st.options;
    o.seed = kept[k].first;
    o.threads = 1;
    o.useCache = false;
    curve::CurveResult serial = curve::computeCurve(*st.problem, o);
    if (cfg.corrupt && k == 0) {
      serial.radii[0] = std::nextafter(serial.radii[0], 0.0);
    }
    const bool same = curveInvariants(serial, samples) &&
                      radiiDigest(serial.radii) == kept[k].second;
    bad += same ? 0 : 1;
  }
  if (bad > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu curves differ from the serial recompute\n",
                 static_cast<unsigned long long>(bad));
    out.gatesPassed = false;
    out.failed += bad;
  }
  std::printf("curve: N=%zu samples per curve (DKW eps %.3g at %.0f%%), %zu "
              "threads, %zu curves rechecked serially\n",
              samples, kCurveEpsilon, kCurveConfidence * 100,
              st.options.threads, kept.size());

  if (!cfg.trace) {
    addEndToEnd(out, setups, m.all, vmHwmMiB());
    return out;
  }
  const double sampled = static_cast<double>(snap.counter("curve.samples"));
  const double curves = sampled / static_cast<double>(samples);
  addCommonLayer(out, m.overheadPct, log);
  addPoolLayer(out, snap, curves);
  curveProbes(out, cfg, st);
  put(out, "curve.samples_per_curve", curves > 0 ? sampled / curves : 0.0);
  put(out, "curve.rows_visited_fraction",
      sampled > 0 ? static_cast<double>(snap.counter("curve.rows_visited")) /
                        (sampled * kCurveRows)
                  : 0.0);
  put(out, "curve.fallback_samples",
      static_cast<double>(snap.counter("curve.fallback_samples")));
  put(out, "curve.cache.hits",
      static_cast<double>(snap.counter("curve.cache.hits")));
  writeTraceIfAsked(cfg, {&log});
  return out;
}

/// The robustd layer of a traced run, on either workload: one daemon
/// session of kRobustdProbeSeconds under the serve load. STATS are taken
/// before and after it for the server-side deltas, every reply is compared
/// with the offline oracle, and the daemon must report zero rejects and exit
/// 0 on SIGINT. A failed check fails the run. The probe's operations count
/// toward the run's attempted and failed operations.
void robustdProbe(const Config& cfg, RunOutcome& out) {
  ServeState st = setupServe(cfg);

  // The offline oracle, outside the timed window.
  const Families problems = compileFamilies();
  fillExpected(st.batches, problems);
  if (cfg.corrupt) {
    Batch& b = st.batches[0][1];
    b.expect[0].rho = std::nextafter(b.expect[0].rho, 0.0);
  }

  // One closed loop per connection, all concurrent, each with its own span
  // log for the round trips.
  std::atomic<bool> crashed{false};
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<Window> windows(kServeConns);
  // Round-trip seconds per connection and spec family.
  std::vector<std::array<double, kSpecFamilies>> familySeconds(kServeConns);
  const ServerCounters before = readStats(st.conns[0].client);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServeConns; ++c) {
    logs.push_back(std::make_unique<SpanLog>(true));
  }
  for (std::size_t c = 0; c < kServeConns; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = st.conns[c];
      const std::vector<Batch>& pool = st.batches[c];
      const auto request = [&](std::uint64_t i, SpanLog& spans, int parent,
                               double& latency, double& work, double& check) {
        const Batch& b = pool[i % pool.size()];
        std::vector<net::WireResult> got;
        const std::int64_t t0 = nowNanos();
        try {
          const Scoped call(spans, "analyze", parent);
          got = conn.client.analyze(conn.keys[b.family], b.instances(),
                                    b.origins);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: analyze: %s\n", e.what());
          crashed = true;
          return false;
        }
        latency = secondsBetween(t0, nowNanos());
        work = static_cast<double>(b.instances());
        familySeconds[c][b.family] += latency;
        bool ok = true;
        check = timedCheck([&] { return sameReplies(got, b.expect); }, ok);
        return ok;
      };
      std::uint64_t nextOp = 0;
      windows[c] = closedLoop(kRobustdProbeSeconds, *logs[c], request, nextOp,
                              &crashed);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const ServerCounters after = readStats(st.conns[0].client);
  const bool stopped = teardownServe(st);

  std::uint64_t failed = 0;
  for (const Window& w : windows) {
    out.attempted += w.latencies.size();
    failed += w.failed;
  }
  out.failed += failed;
  if (!stopped || after.rejects != 0 || crashed || failed != 0) {
    std::fprintf(stderr,
                 "perfbench: robustd gate failed (exit 0: %d, rejects %.0f, "
                 "failed requests %llu)\n",
                 stopped, after.rejects,
                 static_cast<unsigned long long>(failed));
    out.gatesPassed = false;
  }
  std::array<double, kSpecFamilies> share{};
  for (const auto& perConn : familySeconds) {
    for (std::size_t f = 0; f < kSpecFamilies; ++f) {
      share[f] += perConn[f];
    }
  }
  const double rttTotal = share[0] + share[1] + share[2];
  std::printf("robustd probe: %zu connections, %zu-instance batches (%zu for "
              "the constrained family), --workers %zu, %.0f s; round-trip "
              "time share by family: 0 %.3f, 1 (constrained) %.3f, 2 %.3f\n",
              kServeConns, kServeInstances, kConstrainedInstances,
              kServeWorkers, kRobustdProbeSeconds, share[0] / rttTotal,
              share[1] / rttTotal, share[2] / rttTotal);

  const double analyzeCount = after.analyzeCount - before.analyzeCount;
  const double queueCount = after.queueCount - before.queueCount;
  const double analyzeUs =
      analyzeCount > 0
          ? (after.analyzeSum - before.analyzeSum) / analyzeCount * 1e-3
          : 0.0;
  const double queueUs =
      queueCount > 0 ? (after.queueSum - before.queueSum) / queueCount * 1e-3
                     : 0.0;
  // Mean round trip, so all three terms average over the same requests
  // (the load mixes 1024- and 1-instance batches, and a median would pick
  // one kind while the server means average over both).
  double rttSum = 0.0;
  double rttCount = 0.0;
  for (const auto& clog : logs) {
    for (double v : clog->selfSeconds("analyze")) {
      rttSum += v;
      rttCount += 1.0;
    }
  }
  put(out, "net.server.analyze_us_mean", analyzeUs);
  put(out, "net.server.queue_us_mean", queueUs);
  put(out, "net.server.queue_us_p99", after.queueP99 * 1e-3);
  put(out, "net.frame_overhead_us",
      rttCount > 0 ? rttSum / rttCount * 1e6 - analyzeUs - queueUs : 0.0);
  put(out, "net.server.frames", after.frames - before.frames);
  put(out, "net.server.backpressure_stalls", after.stalls - before.stalls);
  put(out, "net.server.rejects", after.rejects - before.rejects);
  serveProbes(out, problems, st.batches[0]);
  // stream-ooc reports its own count per sweep.
  if (out.metrics.count("core.rows_evaluated") == 0) {
    put(out, "core.rows_evaluated",
        rowsEvaluatedPerBatch(problems, st.batches[0]));
  }
}

/// The probes of the paths a traced run's workload did not exercise, on
/// those paths' own inputs, and the robustd probe; counts of unexercised
/// paths read 0.
void completeLayers(RunOutcome& out, const Config& cfg) {
  if (out.metrics.count("util.mmap.read_gbps") == 0) {
    SpanLog off(false);
    double ignored = 0.0;
    streamProbes(out, setupStream(cfg, off, ignored));
  }
  if (out.metrics.count("curve.serial_ns_per_sample") == 0) {
    SpanLog off(false);
    double ignored = 0.0;
    curveProbes(out, cfg, setupCurve(cfg, off, ignored, 0));
  }
  robustdProbe(cfg, out);
  for (const auto& [name, unit] : kLayerMetrics) {
    out.metrics.emplace(name, Metric{0.0, unit});
  }
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("a metric is not finite");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  Config cfg;
  cfg.workload = args.getString("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  cfg.seconds = args.getDouble("seconds", 10.0);
  cfg.trace = args.getInt("trace", 0) != 0;
  cfg.corrupt = args.has("corrupt-expectation");
  cfg.robustd = args.getString("robustd", "");
  cfg.workdir = args.getString("workdir", "");
  cfg.traceOut = args.getString("trace-out", "");
  const bool known =
      cfg.workload == "stream-ooc" || cfg.workload == "curve-eps";
  if (!known || cfg.workdir.empty() || !(cfg.seconds > 0) ||
      cfg.robustd.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload stream-ooc|curve-eps "
                 "--seed N --seconds S --trace 0|1 "
                 "--workdir DIR --robustd PATH [--trace-out PATH] "
                 "[--corrupt-expectation]\n");
    return 2;
  }
  obs::setEnabled(false);
  try {
    cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::printf("workload %s seed %llu: %g s%s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? ", traced" : "");
    RunOutcome out =
        cfg.workload == "stream-ooc" ? runStream(cfg) : runCurve(cfg);
    // The calibrations run after the workload has read its VmHWM, so
    // their arrays never count toward peak_rss_mib.
    const Host host = printHostRecord(cfg.nproc);
    if (cfg.trace) {
      put(out, "host.triad_gbps", host.triad);
      put(out, "numeric.dot_rows_gflops", host.dotGflops);
      completeLayers(out, cfg);
    }
    std::string json = "{\"correct\": ";
    json += (out.failed == 0 && out.gatesPassed) ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : out.metrics) {
      json += first ? "" : ", ";
      json += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
