// leaf::simd — the fixed-lane determinism contract.
//
// The load-bearing property is that vector:: and scalar:: produce
// *bit-identical* results for every kernel, every size (tails included),
// and non-finite inputs: that is what makes -DLEAF_SIMD=ON/OFF builds and
// different ISAs interchangeable.  Golden tests pin the scalar reference
// to the documented 8-lane DAG so neither side can drift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"

namespace leaf {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  // Wide magnitude spread so reassociation would actually change bits.
  for (auto& x : v) x = rng.normal() * std::pow(10.0, rng.normal() * 3.0);
  return v;
}

// Sizes that cover the empty case, every tail residue mod 8, the
// histogram lane cutoff boundary, and a large block.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,   7,   8,    9,
                              10, 11, 12, 13, 14, 15, 16,  17,  31,   63,
                              64, 65, 100, 128, 1000};

TEST(SimdKernels, Reduce8IsTheDocumentedTree) {
  // Values where association visibly matters.
  const double lanes[8] = {1e16, 1.0, -1e16, 1.0, 3.0, 1e-8, 7.0, -3.0};
  const double expect = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                        ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  EXPECT_BITS_EQ(simd::reduce8(lanes), expect);
}

TEST(SimdKernels, SumMatchesExplicitLaneSimulation) {
  Rng rng(7);
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = random_vec(n, rng);
    // Independent simulation of the contract: element i -> lane i % 8
    // within blocks of 8, tail element i -> lane i - nb, then reduce8.
    double lanes[simd::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
    const std::size_t nb = n & ~std::size_t{7};
    for (std::size_t i = 0; i < nb; i += 8)
      for (std::size_t j = 0; j < 8; ++j) lanes[j] += a[i + j];
    for (std::size_t i = nb; i < n; ++i) lanes[i - nb] += a[i];
    EXPECT_BITS_EQ(simd::scalar::sum(a.data(), n), simd::reduce8(lanes))
        << "n=" << n;
  }
}

TEST(SimdKernels, VectorMatchesScalarBitForBit) {
  Rng rng(11);
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = random_vec(n, rng);
    const std::vector<double> b = random_vec(n, rng);

    EXPECT_BITS_EQ(simd::vector::sum(a.data(), n),
                   simd::scalar::sum(a.data(), n))
        << "sum n=" << n;
    EXPECT_BITS_EQ(simd::vector::dot(a.data(), b.data(), n),
                   simd::scalar::dot(a.data(), b.data(), n))
        << "dot n=" << n;
    EXPECT_BITS_EQ(simd::vector::l2_distance2(a.data(), b.data(), n),
                   simd::scalar::l2_distance2(a.data(), b.data(), n))
        << "l2 n=" << n;

    std::vector<double> ys = b, yv = b;
    simd::scalar::axpy(0.37, a.data(), ys.data(), n);
    simd::vector::axpy(0.37, a.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bits(ys[i]), bits(yv[i])) << "axpy n=" << n << " i=" << i;

    const simd::ErrorAcc es = simd::scalar::squared_error(a.data(), b.data(), n);
    const simd::ErrorAcc ev = simd::vector::squared_error(a.data(), b.data(), n);
    EXPECT_BITS_EQ(ev.sum_sq, es.sum_sq) << "squared_error n=" << n;
    EXPECT_EQ(ev.finite, es.finite) << "squared_error n=" << n;
  }
}

// Row-major rows x n matrix plus a per-row alpha with every third entry
// zero (alternating signs), as the LSTM's BPTT produces them.
struct RowsCase {
  std::size_t rows, n;
  std::vector<double> w, alpha;
  RowsCase(std::size_t rows_, std::size_t n_, Rng& rng)
      : rows(rows_), n(n_), w(random_vec(rows_ * n_, rng)),
        alpha(random_vec(rows_, rng)) {
    for (std::size_t r = 0; r < rows; r += 3) alpha[r] = r % 2 ? -0.0 : 0.0;
  }
};

const std::size_t kRowCounts[] = {0, 1, 3, 13, 64};

TEST(SimdKernels, MatvecMatchesDotPerRowOnBothPaths) {
  Rng rng(29);
  for (const std::size_t rows : kRowCounts) {
    for (const std::size_t n : kSizes) {
      const RowsCase c(rows, n, rng);
      const std::vector<double> x = random_vec(n, rng);
      std::vector<double> out_s(rows), out_v(rows);
      simd::scalar::matvec(c.w.data(), rows, x.data(), n, out_s.data());
      simd::vector::matvec(c.w.data(), rows, x.data(), n, out_v.data());
      for (std::size_t r = 0; r < rows; ++r) {
        const double ref = simd::scalar::dot(c.w.data() + r * n, x.data(), n);
        ASSERT_EQ(bits(out_s[r]), bits(ref)) << "rows=" << rows << " n=" << n;
        ASSERT_EQ(bits(out_v[r]), bits(ref)) << "rows=" << rows << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, AxpyRowsMatchesAxpyLoopOnBothPaths) {
  Rng rng(31);
  for (const std::size_t rows : kRowCounts) {
    for (const std::size_t n : kSizes) {
      const RowsCase c(rows, n, rng);
      const std::vector<double> v = random_vec(n, rng);
      // Every stride shape: rank-1 update of y's rows (x shared), sum of
      // scaled x rows into one y (y shared), row-to-row, and both shared.
      for (const bool x_rows : {false, true}) {
        for (const bool y_rows : {false, true}) {
          const std::size_t xs = x_rows ? n : 0, ys = y_rows ? n : 0;
          const std::vector<double>& x = x_rows ? c.w : v;
          const std::vector<double> y0 =
              random_vec(y_rows ? rows * n : n, rng);
          std::vector<double> ref = y0, ys_out = y0, yv_out = y0;
          for (std::size_t r = 0; r < rows; ++r) {
            if (c.alpha[r] == 0.0) continue;
            simd::scalar::axpy(c.alpha[r], x.data() + r * xs,
                               ref.data() + r * ys, n);
          }
          simd::scalar::axpy_rows(c.alpha.data(), rows, x.data(), xs,
                                  ys_out.data(), ys, n);
          simd::vector::axpy_rows(c.alpha.data(), rows, x.data(), xs,
                                  yv_out.data(), ys, n);
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(bits(ys_out[i]), bits(ref[i]))
                << "rows=" << rows << " n=" << n << " xs=" << xs
                << " ys=" << ys << " i=" << i;
            ASSERT_EQ(bits(yv_out[i]), bits(ref[i]))
                << "rows=" << rows << " n=" << n << " xs=" << xs
                << " ys=" << ys << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, AxpyRowsSkipsZeroAlphaRowsBitForBit) {
  // A multiplied-out zero row would turn -0.0 into +0.0 and, against an
  // Inf/NaN x, poison y with NaN.  Skipped rows must do neither.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {std::size_t{3}, std::size_t{8}, std::size_t{19}}) {
    // Row 0 is live; rows 1 and 2 carry zero alphas over non-finite x.
    const std::vector<double> alpha = {1.5, 0.0, -0.0};
    std::vector<double> x(3 * n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.25 * static_cast<double>(i + 1);
      x[n + i] = i % 2 ? inf : -inf;
      x[2 * n + i] = nan;
    }
    std::vector<double> y0(3 * n, -0.0);
    for (std::size_t i = 0; i < n; i += 2) y0[i] = 2.0;
    for (const bool vector_path : {false, true}) {
      const auto run = vector_path ? simd::vector::axpy_rows
                                   : simd::scalar::axpy_rows;
      // Strided y: the zero rows' y stays -0.0 exactly.
      std::vector<double> y = y0;
      run(alpha.data(), 3, x.data(), n, y.data(), n, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_BITS_EQ(y[i], y0[i] + 1.5 * x[i]) << "i=" << i;
        EXPECT_BITS_EQ(y[n + i], -0.0) << "i=" << i;
        EXPECT_BITS_EQ(y[2 * n + i], -0.0) << "i=" << i;
      }
      // Shared y: only the live row contributes.
      std::vector<double> shared(y0.begin(), y0.begin() + static_cast<std::ptrdiff_t>(n));
      run(alpha.data(), 3, x.data(), n, shared.data(), 0, n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_BITS_EQ(shared[i], y0[i] + 1.5 * x[i]) << "i=" << i;
      // All-zero alphas: y untouched, -0.0 included.
      const std::vector<double> zeros = {0.0, -0.0, 0.0};
      std::vector<double> untouched = y0;
      run(zeros.data(), 3, x.data(), n, untouched.data(), n, n);
      run(zeros.data(), 3, x.data(), n, untouched.data(), 0, n);
      for (std::size_t i = 0; i < untouched.size(); ++i)
        ASSERT_EQ(bits(untouched[i]), bits(y0[i])) << "i=" << i;
    }
  }
}

TEST(SimdKernels, SquaredErrorMasksNonFinitePairsIdentically) {
  Rng rng(13);
  const std::size_t n = 129;  // odd tail
  std::vector<double> p = random_vec(n, rng), t = random_vec(n, rng);
  p[3] = std::numeric_limits<double>::quiet_NaN();
  t[17] = std::numeric_limits<double>::infinity();
  p[100] = -std::numeric_limits<double>::infinity();
  t[100] = std::numeric_limits<double>::quiet_NaN();
  p[n - 1] = std::numeric_limits<double>::quiet_NaN();

  const simd::ErrorAcc es = simd::scalar::squared_error(p.data(), t.data(), n);
  const simd::ErrorAcc ev = simd::vector::squared_error(p.data(), t.data(), n);
  EXPECT_BITS_EQ(ev.sum_sq, es.sum_sq);
  EXPECT_EQ(ev.finite, es.finite);
  EXPECT_EQ(es.finite, static_cast<std::uint64_t>(n - 4));
  EXPECT_TRUE(std::isfinite(es.sum_sq));

  // The masked pairs contribute exactly nothing: recompute with them
  // removed and the count must agree (sum differs only by lane layout).
  std::uint64_t manual = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (std::isfinite(p[i]) && std::isfinite(t[i])) ++manual;
  EXPECT_EQ(es.finite, manual);
}

TEST(SimdKernels, DistancesColsMatchClassicRowMajorLoop) {
  Rng rng(17);
  for (const std::size_t rows : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{8},
                                 std::size_t{13}, std::size_t{200}}) {
    const std::size_t cols = 5;
    std::vector<double> cm(rows * cols);
    for (auto& v : cm) v = rng.normal();
    std::vector<double> z(cols);
    for (auto& v : z) v = rng.normal();

    std::vector<double> out_s(rows), out_v(rows);
    simd::scalar::l2_distances_cols(cm.data(), rows, z.data(), cols,
                                    out_s.data());
    simd::vector::l2_distances_cols(cm.data(), rows, z.data(), cols,
                                    out_v.data());
    for (std::size_t r = 0; r < rows; ++r) {
      // Pre-kernel KNN DAG: sequential over features per distance.
      double d2 = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double d = cm[c * rows + r] - z[c];
        d2 += d * d;
      }
      ASSERT_EQ(bits(out_s[r]), bits(d2)) << "rows=" << rows << " r=" << r;
      ASSERT_EQ(bits(out_v[r]), bits(d2)) << "rows=" << rows << " r=" << r;
    }
  }
}

TEST(SimdKernels, HistAccumulateMatchesReferenceAcrossCutoff) {
  Rng rng(19);
  const int nb = 11;
  // Straddle kHistLaneCutoff: both the sequential and the lane-private
  // regime, plus the exact boundary on each side.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{5}, simd::kHistLaneCutoff - 1,
        simd::kHistLaneCutoff, simd::kHistLaneCutoff + 1, std::size_t{500}}) {
    std::vector<std::uint8_t> codes(n > 0 ? 2 * n : 1);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.index(nb));
    // Non-identity gather: rows picked from the wider codes array.
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) r = rng.index(codes.size());
    std::vector<double> w(n), wy(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = 0.5 + rng.uniform();
      wy[i] = w[i] * rng.normal();
    }

    std::vector<double> sw_s(nb), swy_s(nb), sw_v(nb), swy_v(nb);
    const simd::HistBounds hs = simd::scalar::hist_accumulate(
        codes.data(), rows.data(), w.data(), wy.data(), n, nb, sw_s.data(),
        swy_s.data());
    const simd::HistBounds hv = simd::vector::hist_accumulate(
        codes.data(), rows.data(), w.data(), wy.data(), n, nb, sw_v.data(),
        swy_v.data());
    EXPECT_EQ(hs.lo_bin, hv.lo_bin) << "n=" << n;
    EXPECT_EQ(hs.hi_bin, hv.hi_bin) << "n=" << n;
    for (int b = 0; b < nb; ++b) {
      ASSERT_EQ(bits(sw_s[static_cast<std::size_t>(b)]),
                bits(sw_v[static_cast<std::size_t>(b)]))
          << "n=" << n << " b=" << b;
      ASSERT_EQ(bits(swy_s[static_cast<std::size_t>(b)]),
                bits(swy_v[static_cast<std::size_t>(b)]))
          << "n=" << n << " b=" << b;
    }

    // Near-equality vs an order-free reference (lane-private accumulation
    // reassociates, so exact equality is only promised vector vs scalar).
    std::vector<double> ref_w(nb, 0.0), ref_wy(nb, 0.0);
    int lo = nb, hi = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const int b = codes[rows[i]];
      ref_w[static_cast<std::size_t>(b)] += w[i];
      ref_wy[static_cast<std::size_t>(b)] += wy[i];
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    if (n > 0) {
      EXPECT_EQ(hs.lo_bin, lo) << "n=" << n;
      EXPECT_EQ(hs.hi_bin, hi) << "n=" << n;
    } else {
      EXPECT_GT(hs.lo_bin, hs.hi_bin);
    }
    for (int b = 0; b < nb; ++b) {
      EXPECT_NEAR(sw_s[static_cast<std::size_t>(b)],
                  ref_w[static_cast<std::size_t>(b)],
                  1e-9 * (1.0 + std::abs(ref_w[static_cast<std::size_t>(b)])))
          << "n=" << n << " b=" << b;
      EXPECT_NEAR(swy_s[static_cast<std::size_t>(b)],
                  ref_wy[static_cast<std::size_t>(b)],
                  1e-9 * (1.0 + std::abs(ref_wy[static_cast<std::size_t>(b)])))
          << "n=" << n << " b=" << b;
    }
  }
}

TEST(SimdDispatch, KillSwitchRoutesToScalarWithIdenticalResults) {
  Rng rng(23);
  const std::vector<double> a = random_vec(777, rng);
  const std::vector<double> b = random_vec(777, rng);

  const bool was_active = simd::vector_active();
  simd::set_vector_active(true);
  const double on_dot = simd::dot(a, b);
  const bool on_says_vector = simd::vector_active();
  simd::set_vector_active(false);
  EXPECT_FALSE(simd::vector_active());
  EXPECT_STREQ(simd::active_isa(), "scalar");
  const double off_dot = simd::dot(a, b);
  simd::set_vector_active(was_active);

  // The whole point: flipping the switch is invisible in results.
  EXPECT_BITS_EQ(on_dot, off_dot);
  if (simd::compiled_in()) {
    EXPECT_TRUE(on_says_vector);
  }
}

TEST(SimdDispatch, CountsKernelCalls) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out";
  }
  const auto counter = [](const char* kernel) -> obs::Counter& {
    return obs::MetricsRegistry::global().counter(
        "leaf_simd_calls_total", obs::label("kernel", kernel));
  };
  obs::Counter& c = counter("sum");
  const std::uint64_t before = c.value();
  const std::vector<double> a(17, 1.0);
  EXPECT_DOUBLE_EQ(simd::sum(a), 17.0);
  EXPECT_EQ(c.value(), before + 1);

  // The row kernels count one call per matrix, not per row.
  const std::vector<double> w(5 * 17, 0.5);
  std::vector<double> out(5);
  obs::Counter& mv = counter("matvec");
  const std::uint64_t mv_before = mv.value();
  simd::matvec(w, a, out);
  EXPECT_EQ(mv.value(), mv_before + 1);
  EXPECT_DOUBLE_EQ(out[4], 8.5);

  const std::vector<double> alpha = {1.0, 0.0, 2.0, 0.0, 1.0};
  std::vector<double> y(17, 0.0);
  obs::Counter& ar = counter("axpy_rows");
  const std::uint64_t ar_before = ar.value();
  simd::axpy_rows(alpha, w, 17, y, 0, 17);
  EXPECT_EQ(ar.value(), ar_before + 1);
  EXPECT_DOUBLE_EQ(y[16], 2.0);
}

TEST(SimdAlignedBuffer, AlignmentGrowthAndMove) {
  simd::AlignedBuffer buf;
  EXPECT_EQ(buf.capacity(), 0u);
  EXPECT_EQ(buf.grows(), 0u);

  const std::span<double> s = buf.acquire(10);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % 64, 0u);
  EXPECT_EQ(buf.grows(), 1u);
  EXPECT_GE(buf.capacity(), 10u);

  // Reuse within capacity: no new allocation.
  double* const p = buf.data();
  EXPECT_FALSE(buf.reserve(buf.capacity()));
  (void)buf.acquire(5);
  EXPECT_EQ(buf.data(), p);
  EXPECT_EQ(buf.grows(), 1u);

  // Growth is geometric from the high-water mark.
  const std::size_t old_cap = buf.capacity();
  EXPECT_TRUE(buf.reserve(old_cap + 1));
  EXPECT_GE(buf.capacity(), 2 * old_cap);
  EXPECT_EQ(buf.grows(), 2u);

  // Move transfers ownership and zeroes the source.
  simd::AlignedBuffer other(std::move(buf));
  EXPECT_EQ(other.grows(), 2u);
  EXPECT_GE(other.capacity(), old_cap + 1);
  EXPECT_EQ(buf.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(buf.data(), nullptr);
}

}  // namespace
}  // namespace leaf
