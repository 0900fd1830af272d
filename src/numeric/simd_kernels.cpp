// The radius micro-kernels behind robust/numeric/simd.hpp.
//
// This TU is compiled with -ffp-contract=off (see src/numeric/CMakeLists)
// so the compiler can never fuse the mul+add pairs below into FMAs: fusing
// would change rounding and break the bit-identity of Scalar vs Avx2
// results. The ROBUST_NATIVE CMake option additionally hands this TU (and
// only this TU) -mavx2 -mfma so the compiler may widen the scalar fallback
// too; the explicit lane schedule keeps the produced bits identical either
// way.
//
// Lane schedule (the determinism contract of every kernel): four
// accumulator lanes are fed in stride-4 element order —
//
//   lane k consumes elements k, k+4, k+8, ...
//
// — a partial final block feeds absent lanes a literal +0.0 product (the
// AVX2 path realizes this with a masked load; the scalar path replays it
// verbatim), and lanes reduce as (l0 + l2) + (l1 + l3). AVX2 realizes the
// same reduction as low128 + high128 followed by the in-register pair sum,
// which is the identical association.
#include "robust/numeric/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "robust/util/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ROBUST_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define ROBUST_SIMD_HAVE_AVX2 0
#endif

// An empty asm that pins the four lane accumulators to registers each
// iteration. This blocks auto-vectorization of the scalar kernels (so the
// Scalar target measures genuinely scalar code even when ROBUST_NATIVE
// hands this TU -mavx2) without touching the arithmetic: operation order
// and rounding follow the documented lane schedule either way.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ROBUST_LANES_BARRIER(l0, l1, l2, l3) \
  asm volatile("" : "+x"(l0), "+x"(l1), "+x"(l2), "+x"(l3))
#else
#define ROBUST_LANES_BARRIER(l0, l1, l2, l3) (void)0
#endif

namespace robust::num::simd {

namespace {

constexpr std::size_t kLanes = 4;

// ---------------------------------------------------------------------------
// Scalar lane-schedule kernels (the portable reference; also the fallback).
// ---------------------------------------------------------------------------

/// One row dot product in the fixed lane schedule.
double dotScalar(const double* a, const double* x, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    acc0 += a[i] * x[i];
    acc1 += a[i + 1] * x[i + 1];
    acc2 += a[i + 2] * x[i + 2];
    acc3 += a[i + 3] * x[i + 3];
    ROBUST_LANES_BARRIER(acc0, acc1, acc2, acc3);
  }
  if (full < n) {
    const std::size_t rem = n - full;
    // Absent lanes add a literal +0.0, exactly like the masked AVX2 load.
    acc0 += a[full] * x[full];
    acc1 += rem > 1 ? a[full + 1] * x[full + 1] : 0.0;
    acc2 += rem > 2 ? a[full + 2] * x[full + 2] : 0.0;
    acc3 += 0.0;
  }
  return (acc0 + acc2) + (acc1 + acc3);
}

double norm1Scalar(const double* a, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    acc0 += std::fabs(a[i]);
    acc1 += std::fabs(a[i + 1]);
    acc2 += std::fabs(a[i + 2]);
    acc3 += std::fabs(a[i + 3]);
    ROBUST_LANES_BARRIER(acc0, acc1, acc2, acc3);
  }
  if (full < n) {
    const std::size_t rem = n - full;
    acc0 += std::fabs(a[full]);
    acc1 += rem > 1 ? std::fabs(a[full + 1]) : 0.0;
    acc2 += rem > 2 ? std::fabs(a[full + 2]) : 0.0;
    acc3 += 0.0;
  }
  return (acc0 + acc2) + (acc1 + acc3);
}

double sumSquaresScalar(const double* a, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    acc0 += a[i] * a[i];
    acc1 += a[i + 1] * a[i + 1];
    acc2 += a[i + 2] * a[i + 2];
    acc3 += a[i + 3] * a[i + 3];
    ROBUST_LANES_BARRIER(acc0, acc1, acc2, acc3);
  }
  if (full < n) {
    const std::size_t rem = n - full;
    acc0 += a[full] * a[full];
    acc1 += rem > 1 ? a[full + 1] * a[full + 1] : 0.0;
    acc2 += rem > 2 ? a[full + 2] * a[full + 2] : 0.0;
    acc3 += 0.0;
  }
  return (acc0 + acc2) + (acc1 + acc3);
}

double squaredDistanceScalar(const double* a, const double* b,
                             std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
    ROBUST_LANES_BARRIER(acc0, acc1, acc2, acc3);
  }
  if (full < n) {
    const std::size_t rem = n - full;
    // Absent lanes square a literal +0.0 difference, exactly like the
    // masked AVX2 load of +0.0 on both sides.
    const double d0 = a[full] - b[full];
    const double d1 = rem > 1 ? a[full + 1] - b[full + 1] : 0.0;
    const double d2 = rem > 2 ? a[full + 2] - b[full + 2] : 0.0;
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += 0.0;
  }
  return (acc0 + acc2) + (acc1 + acc3);
}

double normInfScalar(const double* a, std::size_t n) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    m0 = std::max(m0, std::fabs(a[i]));
    m1 = std::max(m1, std::fabs(a[i + 1]));
    m2 = std::max(m2, std::fabs(a[i + 2]));
    m3 = std::max(m3, std::fabs(a[i + 3]));
    ROBUST_LANES_BARRIER(m0, m1, m2, m3);
  }
  for (std::size_t i = full; i < n; ++i) {
    m0 = std::max(m0, std::fabs(a[i]));  // max is order-independent
  }
  return std::max(std::max(m0, m2), std::max(m1, m3));
}

#if ROBUST_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// AVX2 kernels: the same lane schedule, four lanes per ymm register.
// Compiled via function target attributes so the default (portable) build
// still carries them; activeTarget() gates execution on cpuid.
// ---------------------------------------------------------------------------

/// Sliding window over {-1,-1,-1,-1,0,0,0,0}: loading at offset 4-rem
/// yields a mask whose first `rem` lanes are active.
alignas(32) constexpr std::int64_t kMaskTable[8] = {-1, -1, -1, -1,
                                                    0,  0,  0,  0};

__attribute__((target("avx2"))) inline __m256i tailMask(std::size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + (kLanes - rem)));
}

/// (l0 + l2) + (l1 + l3): low128 + high128, then the in-register pair sum.
__attribute__((target("avx2"))) inline double reduceAdd(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);       // [l0, l1]
  const __m128d hi = _mm256_extractf128_pd(acc, 1);     // [l2, l3]
  const __m128d pair = _mm_add_pd(lo, hi);              // [l0+l2, l1+l3]
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

__attribute__((target("avx2"))) inline __m256d absPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

__attribute__((target("avx2"))) double dotAvx2(const double* a,
                                               const double* x,
                                               std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(x + i)));
  }
  if (full < n) {
    const __m256i mask = tailMask(n - full);
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_maskload_pd(a + full, mask),
                                      _mm256_maskload_pd(x + full, mask)));
  }
  return reduceAdd(acc);
}

/// Four rows at once against a shared x: a register-blocked A.x tile.
__attribute__((target("avx2"))) void dotRows4Avx2(const double* r0,
                                                  const double* r1,
                                                  const double* r2,
                                                  const double* r3,
                                                  const double* x,
                                                  std::size_t n, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(r0 + i), xv));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(r1 + i), xv));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(r2 + i), xv));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(r3 + i), xv));
  }
  if (full < n) {
    const __m256i mask = tailMask(n - full);
    const __m256d xv = _mm256_maskload_pd(x + full, mask);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_maskload_pd(r0 + full, mask),
                                         xv));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_maskload_pd(r1 + full, mask),
                                         xv));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_maskload_pd(r2 + full, mask),
                                         xv));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_maskload_pd(r3 + full, mask),
                                         xv));
  }
  out[0] = reduceAdd(a0);
  out[1] = reduceAdd(a1);
  out[2] = reduceAdd(a2);
  out[3] = reduceAdd(a3);
}

__attribute__((target("avx2"))) double norm1Avx2(const double* a,
                                                 std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    acc = _mm256_add_pd(acc, absPd(_mm256_loadu_pd(a + i)));
  }
  if (full < n) {
    acc = _mm256_add_pd(
        acc, absPd(_mm256_maskload_pd(a + full, tailMask(n - full))));
  }
  return reduceAdd(acc);
}

__attribute__((target("avx2"))) double sumSquaresAvx2(const double* a,
                                                      std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    const __m256d v = _mm256_loadu_pd(a + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  if (full < n) {
    const __m256d v = _mm256_maskload_pd(a + full, tailMask(n - full));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  return reduceAdd(acc);
}

__attribute__((target("avx2"))) double squaredDistanceAvx2(const double* a,
                                                           const double* b,
                                                           std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  if (full < n) {
    const __m256i mask = tailMask(n - full);
    const __m256d d = _mm256_sub_pd(_mm256_maskload_pd(a + full, mask),
                                    _mm256_maskload_pd(b + full, mask));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  return reduceAdd(acc);
}

__attribute__((target("avx2"))) double normInfAvx2(const double* a,
                                                   std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t full = n / kLanes * kLanes;
  for (std::size_t i = 0; i < full; i += kLanes) {
    acc = _mm256_max_pd(acc, absPd(_mm256_loadu_pd(a + i)));
  }
  if (full < n) {
    acc = _mm256_max_pd(
        acc, absPd(_mm256_maskload_pd(a + full, tailMask(n - full))));
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  return std::max(_mm_cvtsd_f64(pair),
                  _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair)));
}

bool cpuHasAvx2() {
  return __builtin_cpu_supports("avx2") != 0;
}

#else

bool cpuHasAvx2() { return false; }

#endif  // ROBUST_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

Target resolveInitialTarget() {
  const Target preferred = cpuHasAvx2() ? Target::Avx2 : Target::Scalar;
  if (const char* env = std::getenv("ROBUST_SIMD")) {
    const std::string_view v(env);
    if (v == "scalar") {
      return Target::Scalar;
    }
    if (v == "avx2") {
      return preferred;  // honoured only when actually available
    }
  }
  return preferred;
}

std::atomic<int>& targetStore() noexcept {
  static std::atomic<int> target{static_cast<int>(resolveInitialTarget())};
  return target;
}

/// `count` row dot products against x, row r at rowAt(r): four rows per
/// pass on the AVX2 target, each bit-identical to dotBlocked.
template <class RowAt>
void dotRows(RowAt rowAt, std::size_t count, std::span<const double> x,
             double* out) {
  const std::size_t dim = x.size();
#if ROBUST_SIMD_HAVE_AVX2
  if (activeTarget() == Target::Avx2) {
    std::size_t r = 0;
    for (; r + 4 <= count; r += 4) {
      dotRows4Avx2(rowAt(r), rowAt(r + 1), rowAt(r + 2), rowAt(r + 3),
                   x.data(), dim, out + r);
    }
    for (; r < count; ++r) {
      out[r] = dotAvx2(rowAt(r), x.data(), dim);
    }
    return;
  }
#endif
  for (std::size_t r = 0; r < count; ++r) {
    out[r] = dotScalar(rowAt(r), x.data(), dim);
  }
}

}  // namespace

const char* toString(Target target) noexcept {
  return target == Target::Avx2 ? "avx2" : "scalar";
}

bool avx2Available() noexcept { return cpuHasAvx2(); }

Target activeTarget() noexcept {
  return static_cast<Target>(targetStore().load(std::memory_order_relaxed));
}

void setTarget(Target target) noexcept {
  if (target == Target::Avx2 && !avx2Available()) {
    target = Target::Scalar;
  }
  targetStore().store(static_cast<int>(target), std::memory_order_relaxed);
}

double dotBlocked(std::span<const double> a, std::span<const double> x) {
  ROBUST_REQUIRE(a.size() == x.size(), "dotBlocked: dimension mismatch");
#if ROBUST_SIMD_HAVE_AVX2
  if (activeTarget() == Target::Avx2) {
    return dotAvx2(a.data(), x.data(), a.size());
  }
#endif
  return dotScalar(a.data(), x.data(), a.size());
}

void dotRowsBlocked(const double* rowMajor, std::size_t rows,
                    std::span<const double> x, double* out) {
  dotRows([&](std::size_t r) { return rowMajor + r * x.size(); }, rows, x,
          out);
}

void dotRowsGathered(const double* const* rows, std::size_t count,
                     std::span<const double> x, double* out) {
  dotRows([&](std::size_t r) { return rows[r]; }, count, x, out);
}

double squaredDistanceBlocked(std::span<const double> a,
                              std::span<const double> b) {
  ROBUST_REQUIRE(a.size() == b.size(),
                 "squaredDistanceBlocked: dimension mismatch");
#if ROBUST_SIMD_HAVE_AVX2
  if (activeTarget() == Target::Avx2) {
    return squaredDistanceAvx2(a.data(), b.data(), a.size());
  }
#endif
  return squaredDistanceScalar(a.data(), b.data(), a.size());
}

double norm1Blocked(std::span<const double> a) {
#if ROBUST_SIMD_HAVE_AVX2
  if (activeTarget() == Target::Avx2) {
    return norm1Avx2(a.data(), a.size());
  }
#endif
  return norm1Scalar(a.data(), a.size());
}

double norm2Blocked(std::span<const double> a) {
#if ROBUST_SIMD_HAVE_AVX2
  if (activeTarget() == Target::Avx2) {
    return std::sqrt(sumSquaresAvx2(a.data(), a.size()));
  }
#endif
  return std::sqrt(sumSquaresScalar(a.data(), a.size()));
}

double normInfBlocked(std::span<const double> a) {
#if ROBUST_SIMD_HAVE_AVX2
  if (activeTarget() == Target::Avx2) {
    return normInfAvx2(a.data(), a.size());
  }
#endif
  return normInfScalar(a.data(), a.size());
}

}  // namespace robust::num::simd
