// leaf::simd kernel contracts — the fixed 8-lane virtual-vector layer.
//
// Every kernel here exists twice: a vectorized implementation
// (kernels_vector.cpp — SSE2 / AVX2 / NEON intrinsics, compiled only with
// -DLEAF_SIMD=ON) and a scalar reference (kernels_scalar.cpp, compiled
// with auto-vectorization disabled so benchmarks compare honest scalar
// code).  Both implement the *identical* floating-point operation DAG:
//
//   * A reduction kernel accumulates into 8 virtual lanes — element i
//     belongs to lane i % 8 — and collapses them with one fixed tree:
//         ((L0+L1)+(L2+L3)) + ((L4+L5)+(L6+L7))           (reduce8)
//     SSE2/NEON hold the lanes as four 2-wide registers {L0,L1}..{L6,L7},
//     AVX2 as two 4-wide registers {L0..L3},{L4..L7}; in every case the
//     per-lane accumulation order (ascending i) and the reduction tree
//     are the same, so the result is bit-identical across ISAs, across
//     -DLEAF_SIMD=ON/OFF builds, and at any LEAF_THREADS.
//   * An elementwise kernel (axpy, per-row distances) has no cross-lane
//     reduction at all; per-element operation order is the natural one.
//
// Because IEEE-754 ops are deterministic given an operation DAG, "same
// DAG" is the whole determinism story — which is why both TUs are built
// with -ffp-contract=off (an FMA would change the DAG on exactly one
// side) and why kernels live out-of-line instead of in headers.
//
// Adding a kernel: declare it in both namespaces below, write the scalar
// reference first (it *defines* the contract), mirror its lane/tail/tree
// structure with intrinsics, add it to the bench_micro --kernels suite
// and the bit-identity property test in tests/test_simd.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace leaf::simd {

/// Virtual vector width.  Fixed at 8 regardless of the physical ISA so
/// results never depend on which instruction set executed the kernel.
inline constexpr std::size_t kLanes = 8;

/// Fixed lane-reduction tree shared by every reduction kernel and both
/// implementations.  Do not "simplify": the exact association order is
/// the cross-ISA determinism contract.
inline double reduce8(const double lanes[kLanes]) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Result of the finite-pair squared-error reduction (metrics::nrmse):
/// sum of (pred-truth)^2 over pairs where both sides are finite, and the
/// number of such pairs.
struct ErrorAcc {
  double sum_sq = 0.0;
  std::uint64_t finite = 0;
};

/// Lowest / highest bin index touched by a histogram accumulation
/// (lo > hi means no rows).  Min/max are order-independent, so these are
/// trivially deterministic.
struct HistBounds {
  int lo_bin = 0;
  int hi_bin = -1;
};

/// Below this many rows a histogram accumulates sequentially into a
/// single lane instead of 8 lane-private histograms: zeroing 8 copies of
/// the accumulator would dwarf the row work.  The cutoff is part of the
/// kernel contract — both implementations switch at the same size, so it
/// can never cause divergence.
inline constexpr std::size_t kHistLaneCutoff = 64;

namespace scalar {

double sum(const double* a, std::size_t n);
double dot(const double* a, const double* b, std::size_t n);
/// y[i] += alpha * x[i] (elementwise; bit-identical to the classic loop).
void axpy(double alpha, const double* x, double* y, std::size_t n);
/// Row-major matrix-vector product: out[r] = dot(w + r * n, x, n) for
/// r < rows.  Each out[r] is bit-identical to the dot kernel (the same
/// 8-lane DAG), so one call replaces `rows` dispatched dot calls.
void matvec(const double* w, std::size_t rows, const double* x, std::size_t n,
            double* out);
/// Row-strided axpy: for r < rows, in ascending r, when alpha[r] != 0:
/// y_r[i] += alpha[r] * x_r[i] for i < n, where x_r = x + r * x_stride
/// and y_r = y + r * y_stride.  A stride of 0 reuses one vector (x: a
/// rank-1 update of the rows of y; y: a sum of scaled rows of x).  Each
/// y element sees exactly the additions of the equivalent axpy loop, in
/// the same order.  Rows whose alpha is zero (+0.0 or -0.0) are skipped,
/// not multiplied: their y stays bit-for-bit untouched even when it holds
/// -0.0 or the matching x row holds Inf/NaN.  x and y must not overlap.
void axpy_rows(const double* alpha, std::size_t rows, const double* x,
               std::size_t x_stride, double* y, std::size_t y_stride,
               std::size_t n);
double l2_distance2(const double* a, const double* b, std::size_t n);
ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n);
/// Squared L2 distances of a query `z` (ncols entries) to `rows` points
/// stored column-major (`cols[c * rows + r]`): out[r] = sum_c (x_rc-z_c)^2.
/// Per-distance accumulation is sequential over c, so each out[r] is
/// bit-identical to the classic row-major loop.
void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out);
/// Weighted histogram build for one feature of a tree node: for each of
/// the n node rows, bin b = codes[rows[i]] accumulates w[i] into sum_w[b]
/// and wy[i] into sum_wy[b] (SoA accumulators, zeroed here).  Large nodes
/// use 8 lane-private histograms merged per-bin with reduce8; nodes below
/// kHistLaneCutoff accumulate sequentially.  Returns the touched bin
/// range.
HistBounds hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                           const double* w, const double* wy, std::size_t n,
                           int num_bins, double* sum_w, double* sum_wy);

}  // namespace scalar

namespace vector {

/// Physical ISA the vector path was compiled for: "avx2", "sse2", "neon",
/// or "lanes" (no intrinsics available; generic 8-lane code).  In a
/// -DLEAF_SIMD=OFF build these symbols forward to scalar:: and the isa is
/// "scalar".
const char* isa();

double sum(const double* a, std::size_t n);
double dot(const double* a, const double* b, std::size_t n);
void axpy(double alpha, const double* x, double* y, std::size_t n);
void matvec(const double* w, std::size_t rows, const double* x, std::size_t n,
            double* out);
void axpy_rows(const double* alpha, std::size_t rows, const double* x,
               std::size_t x_stride, double* y, std::size_t y_stride,
               std::size_t n);
double l2_distance2(const double* a, const double* b, std::size_t n);
ErrorAcc squared_error(const double* pred, const double* truth,
                       std::size_t n);
void l2_distances_cols(const double* cols, std::size_t rows, const double* z,
                       std::size_t ncols, double* out);
HistBounds hist_accumulate(const std::uint8_t* codes, const std::size_t* rows,
                           const double* w, const double* wy, std::size_t n,
                           int num_bins, double* sum_w, double* sum_wy);

}  // namespace vector

}  // namespace leaf::simd
