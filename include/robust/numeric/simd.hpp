// Vectorizable radius micro-kernels with a portable scalar fallback.
//
// Every robustness number bottoms out in the same arithmetic: per-feature
// dot products w . pi against the dense affine rows of a compiled problem,
// a dual-norm division (the Eq. 1 point-to-hyperplane distance), and a min
// reduction to rho (Eq. 2). The kernels here are the throughput lane for
// that arithmetic: register-blocked multi-row fused dot products (4 rows of
// a row-major weight matrix against one instance vector — an A.x block) and
// blocked norm reductions, dispatched at runtime to AVX2 where the binary
// and the CPU both support it.
//
// Determinism contract: every kernel accumulates in a FIXED block-pairwise
// order — four lane accumulators fed in stride-4 element order, reduced as
// (l0 + l2) + (l1 + l3) — and never uses fused multiply-add (the kernel TU
// is built with -ffp-contract=off). The scalar fallback replays the exact
// same lane schedule, including the masked tail (absent lanes contribute a
// literal +0.0 product, exactly like the AVX2 masked load), so results are
// bit-identical across dispatch targets, runs, and thread counts. The
// blocked order intentionally differs from the legacy element-order loops
// in vector_ops.cpp: bit-anchored paths (CompiledProblem::evaluate and the
// PR 2/3 bit-identity suites) keep the legacy loops; the kernel lane is
// differentially tested against them at <= 1e-12 relative instead.
#pragma once

#include <cstddef>
#include <span>

namespace robust::num::simd {

/// A dispatch target. Scalar is always available; Avx2 requires both
/// compiler support (x86-64 gcc/clang function targets) and the running
/// CPU to advertise AVX2.
enum class Target { Scalar, Avx2 };

/// Human-readable target name ("scalar", "avx2").
[[nodiscard]] const char* toString(Target target) noexcept;

/// True when this binary carries the AVX2 kernels AND the CPU supports
/// them. Independent of the currently selected target.
[[nodiscard]] bool avx2Available() noexcept;

/// The currently selected target. Resolved once at first use: Avx2 when
/// available, unless the ROBUST_SIMD environment variable ("scalar" or
/// "avx2") overrides the choice. Forcing "avx2" on a machine without it
/// falls back to Scalar.
[[nodiscard]] Target activeTarget() noexcept;

/// Overrides the dispatch target for the whole process (tests and benches;
/// results are bit-identical either way, only throughput changes).
/// Selecting Avx2 when !avx2Available() selects Scalar instead.
void setTarget(Target target) noexcept;

/// Blocked dot product a . x (sizes must match).
[[nodiscard]] double dotBlocked(std::span<const double> a,
                                std::span<const double> x);

/// Register-blocked A . x: `rows` dot products of consecutive row-major
/// rows (leading dimension `dim` = x.size()) against one vector, written to
/// out[0..rows). Each out[r] is bit-identical to dotBlocked(row r, x).
void dotRowsBlocked(const double* rowMajor, std::size_t rows,
                    std::span<const double> x, double* out);

/// dotRowsBlocked over gathered rows: out[j] = rows[j] . x for j in
/// [0, count), each row `x.size()` long. Each out[j] is bit-identical to
/// dotBlocked(rows[j], x); the AVX2 target feeds four rows per pass.
void dotRowsGathered(const double* const* rows, std::size_t count,
                     std::span<const double> x, double* out);

/// Blocked squared L2 distance sum_k (a_k - b_k)^2 (sizes must match), in
/// the same lane schedule as norm2Blocked's sum of squares. Plain
/// accumulation: a non-finite component makes the sum non-finite, and
/// finite inputs can overflow it to +inf.
[[nodiscard]] double squaredDistanceBlocked(std::span<const double> a,
                                            std::span<const double> b);

/// Blocked l1 norm (sum of absolute values).
[[nodiscard]] double norm1Blocked(std::span<const double> a);

/// Blocked l2 norm, sqrt of the block-pairwise sum of squares. Plain
/// accumulation: unlike num::norm2 it does not rescale, so it can overflow
/// for |a_i| near 1e154 — callers on the kernel lane accept that.
[[nodiscard]] double norm2Blocked(std::span<const double> a);

/// Blocked l-infinity norm. max is order-independent, so this is bit-equal
/// to num::normInf for every input without NaNs.
[[nodiscard]] double normInfBlocked(std::span<const double> a);

}  // namespace robust::num::simd
