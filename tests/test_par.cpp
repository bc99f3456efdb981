// Tests for the deterministic parallel execution layer (par/) and the
// bit-identical-output contract of every parallel hot path: the same
// numbers must come out at LEAF_THREADS=1 and LEAF_THREADS=4.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/eval_cache.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "explain/importance.hpp"
#include "models/factory.hpp"
#include "models/forest.hpp"
#include "models/lstm.hpp"
#include "par/parallel.hpp"

namespace leaf {
namespace {

/// Restores the ambient thread count (the LEAF_THREADS default) when a
/// test that overrides it goes out of scope.
struct ThreadGuard {
  ~ThreadGuard() { par::set_threads(0); }
};

// --- pool / parallel primitives -------------------------------------------

TEST(Par, SetThreadsOverridesWidth) {
  ThreadGuard guard;
  par::set_threads(4);
  EXPECT_EQ(par::threads(), 4);
  par::set_threads(1);
  EXPECT_EQ(par::threads(), 1);
}

TEST(Par, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  par::set_threads(4);
  constexpr std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Par, ChunksAreContiguousAndCoverTheRange) {
  ThreadGuard guard;
  par::set_threads(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  par::parallel_for_chunks(101, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lk(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, 101u);
  for (std::size_t i = 1; i < ranges.size(); ++i)
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
}

TEST(Par, ParallelMapReturnsResultsInIndexOrder) {
  ThreadGuard guard;
  par::set_threads(4);
  const auto v =
      par::parallel_map(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(v.size(), 1000u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], i * i);
}

TEST(Par, ExceptionPropagatesAndPoolSurvives) {
  ThreadGuard guard;
  par::set_threads(4);
  EXPECT_THROW(par::parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must be quiescent and reusable after a throwing job.
  std::atomic<int> count{0};
  par::parallel_for(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Par, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  par::set_threads(4);
  std::atomic<int> total{0};
  par::parallel_for(8, [&](std::size_t) {
    par::parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Par, ReduceIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto run = [] {
    return par::parallel_reduce(
        10000, 0.0,
        [](std::size_t i) { return std::sin(static_cast<double>(i)) * 1e-3; },
        [](double acc, double v) { return acc + v; });
  };
  par::set_threads(1);
  const double serial = run();
  par::set_threads(4);
  const double parallel = run();
  EXPECT_EQ(serial, parallel);
}

// --- counter-based sub-streams --------------------------------------------

TEST(Substream, DoesNotAdvanceTheParent) {
  Rng a(9), b(9);
  (void)a.substream(3);
  (void)a.substream(12345);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Substream, IsAPureFunctionOfParentStateAndIndex) {
  const Rng parent(42);
  Rng s1 = parent.substream(7);
  Rng s2 = parent.substream(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s1(), s2());
}

TEST(Substream, DistinctIndicesGiveIndependentStreams) {
  const Rng parent(42);
  Rng s0 = parent.substream(0);
  Rng s1 = parent.substream(1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s0() == s1()) ++same;
  EXPECT_LT(same, 2);
}

// --- golden determinism of the parallel hot paths -------------------------

struct SynthProblem {
  Matrix X{600, 6};
  std::vector<double> y;
  Matrix X_test{200, 6};

  SynthProblem() {
    Rng rng(77);
    y.resize(X.rows());
    const auto fill = [&](Matrix& m) {
      for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rng.normal();
    };
    fill(X);
    fill(X_test);
    for (std::size_t r = 0; r < X.rows(); ++r)
      y[r] = 2.0 * X(r, 0) - X(r, 1) + 0.1 * rng.normal();
  }
};

TEST(Determinism, ForestFitIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SynthProblem p;
  for (const models::ForestConfig cfg :
       {models::ForestConfig::random_forest(24, 5),
        models::ForestConfig::extra_trees(24, 5)}) {
    const auto fit_and_predict = [&] {
      models::Forest f(cfg, "F");
      f.fit(p.X, p.y);
      return f.predict(p.X_test);
    };
    par::set_threads(1);
    const std::vector<double> serial = fit_and_predict();
    par::set_threads(4);
    const std::vector<double> parallel = fit_and_predict();
    EXPECT_EQ(serial, parallel);
  }
}

TEST(Determinism, PredictIntoMatchesPredict) {
  ThreadGuard guard;
  par::set_threads(4);
  const SynthProblem p;
  models::Forest f(models::ForestConfig::random_forest(16, 3), "F");
  f.fit(p.X, p.y);
  const std::vector<double> a = f.predict(p.X_test);
  std::vector<double> b(p.X_test.rows());
  f.predict_into(p.X_test, b);
  EXPECT_EQ(a, b);
}

TEST(Determinism, LstmPredictIntoMatchesPredictOne) {
  // The LSTM's forward-pass workspace is thread_local: parallel rows on
  // the pool must neither share nor corrupt one another's activations.
  ThreadGuard guard;
  const SynthProblem p;
  models::LstmConfig cfg;
  cfg.hidden = 8;
  cfg.chunk = 4;  // 6 features -> 2 timesteps, the last one zero-padded
  cfg.epochs = 3;
  models::Lstm lstm(cfg);
  lstm.fit(p.X, p.y);
  std::vector<double> expect(p.X_test.rows());
  for (std::size_t r = 0; r < p.X_test.rows(); ++r)
    expect[r] = lstm.predict_one(p.X_test.row(r));
  for (const int threads : {1, 4}) {
    par::set_threads(threads);
    std::vector<double> got(p.X_test.rows());
    lstm.predict_into(p.X_test, got);
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST(Determinism, PermutationImportanceIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SynthProblem p;
  par::set_threads(1);
  models::Forest f(models::ForestConfig::random_forest(16, 3), "F");
  f.fit(p.X, p.y);

  const auto score = [&](Rng& rng) {
    return explain::permutation_importance(f, p.X, p.y, 4.0, rng);
  };
  Rng rng1(5), rng2(5);
  const std::vector<double> serial = score(rng1);
  par::set_threads(4);
  const std::vector<double> parallel = score(rng2);
  EXPECT_EQ(serial, parallel);
  // The caller-visible generator must advance identically on both paths.
  EXPECT_EQ(rng1(), rng2());
}

// Full-pipeline golden runs on the shared tiny dataset.

Scale par_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 6;
  s.num_kpis = 16;
  s.gbdt_trees = 15;
  s.eval_stride_days = 4;
  return s;
}

const data::CellularDataset& par_ds() {
  static const data::CellularDataset d =
      data::generate_fixed_dataset(par_scale(), 42);
  return d;
}

void expect_same_run(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.days, b.days);
  EXPECT_EQ(a.nrmse, b.nrmse);
  EXPECT_EQ(a.mean_ne, b.mean_ne);
  EXPECT_EQ(a.retrain_days, b.retrain_days);
  EXPECT_EQ(a.drift_days, b.drift_days);
  EXPECT_EQ(a.ne_p95, b.ne_p95);
}

TEST(Determinism, RunSchemeIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const data::Featurizer f(par_ds(), data::TargetKpi::kDVol);
  const double dispersion =
      core::kpi_dispersion(par_ds(), data::TargetKpi::kDVol);
  const auto run = [&] {
    const auto model =
        models::make_model(models::ModelFamily::kGbdt, par_scale(), 1);
    const auto scheme = core::make_scheme("LEAF", dispersion, 7);
    return core::run_scheme(f, *model, *scheme,
                            core::make_eval_config(par_scale()));
  };
  par::set_threads(1);
  const core::EvalResult serial = run();
  par::set_threads(4);
  const core::EvalResult parallel = run();
  expect_same_run(serial, parallel);
}

TEST(Determinism, EvalCacheIsBitIdenticalToRecomputation) {
  ThreadGuard guard;
  par::set_threads(4);
  const data::Featurizer f(par_ds(), data::TargetKpi::kDVol);
  const auto run = [&](core::EvalCache* cache) {
    const auto model =
        models::make_model(models::ModelFamily::kGbdt, par_scale(), 1);
    core::TriggeredScheme scheme;
    core::EvalConfig cfg = core::make_eval_config(par_scale());
    cfg.cache = cache;
    return core::run_scheme(f, *model, scheme, cfg);
  };
  const core::EvalResult uncached = run(nullptr);
  core::EvalCache cache(f);
  const core::EvalResult cached = run(&cache);
  expect_same_run(uncached, cached);
  EXPECT_GT(cache.misses(), 0u);
  // A second pass through the same run is served from the cache.
  const std::size_t misses_after_first = cache.misses();
  const core::EvalResult again = run(&cache);
  expect_same_run(cached, again);
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(Determinism, CompareSchemesIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::vector<std::string> specs = {"Static", "Triggered"};
  const std::uint64_t seeds[] = {11};
  const auto grid = [&] {
    return core::compare_schemes(par_ds(), data::TargetKpi::kDVol,
                                 models::ModelFamily::kGbdt, par_scale(),
                                 specs, seeds);
  };
  par::set_threads(1);
  const auto serial = grid();
  par::set_threads(4);
  const auto parallel = grid();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].scheme, parallel[s].scheme);
    EXPECT_EQ(serial[s].avg_nrmse, parallel[s].avg_nrmse);
    EXPECT_EQ(serial[s].delta_pct, parallel[s].delta_pct);
    EXPECT_EQ(serial[s].retrains, parallel[s].retrains);
    EXPECT_EQ(serial[s].ne_p95, parallel[s].ne_p95);
    EXPECT_EQ(serial[s].static_nrmse, parallel[s].static_nrmse);
  }
  // The "Static" arm reuses the baseline run outright, so its ΔNRMSE̅ is
  // exactly zero — by identity, not by luck of averaging.
  EXPECT_EQ(serial[0].delta_pct, 0.0);
  EXPECT_EQ(serial[0].retrains, 0.0);
}

}  // namespace
}  // namespace leaf
