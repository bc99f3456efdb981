// Unit tests for the regression model zoo (models/).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"
#include "models/forest.hpp"
#include "models/gbdt.hpp"
#include "models/knn.hpp"
#include "models/lstm.hpp"
#include "models/ridge.hpp"
#include "simd/simd.hpp"

namespace leaf::models {
namespace {

/// Noisy linear problem with two informative features and two noise
/// features.
struct LinearProblem {
  Matrix X;
  std::vector<double> y;
  Matrix X_test;
  std::vector<double> y_test;

  explicit LinearProblem(std::size_t n = 400, double noise = 0.1) {
    Rng rng(77);
    auto make = [&](Matrix& x, std::vector<double>& t, std::size_t m) {
      x = Matrix(m, 4);
      t.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < 4; ++c) x(i, c) = rng.normal();
        t[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + noise * rng.normal();
      }
    };
    make(X, y, n);
    make(X_test, y_test, 100);
  }

  double test_rmse(const Regressor& model) const {
    return metrics::rmse(model.predict(X_test), y_test);
  }

  /// RMSE of always predicting the training mean.
  double mean_baseline_rmse() const {
    double m = 0.0;
    for (double v : y) m += v;
    m /= static_cast<double>(y.size());
    const std::vector<double> pred(y_test.size(), m);
    return metrics::rmse(pred, y_test);
  }
};

// ---- generic contract, parameterized over families ----------------------

class ModelContractTest : public ::testing::TestWithParam<ModelFamily> {};

TEST_P(ModelContractTest, BeatsMeanBaselineOnLinearProblem) {
  const LinearProblem p;
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = make_model(GetParam(), scale, 1);
  model->fit(p.X, p.y);
  ASSERT_TRUE(model->trained());
  EXPECT_LT(p.test_rmse(*model), 0.6 * p.mean_baseline_rmse())
      << to_string(GetParam());
}

TEST_P(ModelContractTest, DeterministicRefit) {
  const LinearProblem p(200);
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto a = make_model(GetParam(), scale, 5);
  const auto b = make_model(GetParam(), scale, 5);
  a->fit(p.X, p.y);
  b->fit(p.X, p.y);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(a->predict_one(p.X_test.row(i)),
                     b->predict_one(p.X_test.row(i)));
}

TEST_P(ModelContractTest, CloneUntrainedIsUntrainedAndRefittable) {
  const LinearProblem p(200);
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = make_model(GetParam(), scale, 1);
  model->fit(p.X, p.y);
  const auto clone = model->clone_untrained();
  EXPECT_FALSE(clone->trained());
  EXPECT_EQ(clone->name(), model->name());
  clone->fit(p.X, p.y);
  EXPECT_TRUE(clone->trained());
  // Same hyperparameters + same data -> same predictions.
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(clone->predict_one(p.X_test.row(i)),
                     model->predict_one(p.X_test.row(i)));
}

TEST_P(ModelContractTest, BatchPredictMatchesPredictOne) {
  const LinearProblem p(150);
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = make_model(GetParam(), scale, 1);
  model->fit(p.X, p.y);
  const auto batch = model->predict(p.X_test);
  for (std::size_t i = 0; i < p.X_test.rows(); ++i)
    EXPECT_DOUBLE_EQ(batch[i], model->predict_one(p.X_test.row(i)));
}

TEST_P(ModelContractTest, SampleWeightsBiasPredictions) {
  // Two clusters with different targets; weighting one cluster to ~0
  // must pull global predictions toward the other.
  Matrix x(100, 1);
  std::vector<double> y(100);
  std::vector<double> w(100);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool high = i % 2 == 1;
    x(i, 0) = high ? 1.0 : 0.0;
    y[i] = high ? 10.0 : 0.0;
    w[i] = high ? 1e-6 : 1.0;
  }
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto weighted = make_model(GetParam(), scale, 1);
  weighted->fit(x, y, w);
  const auto uniform = make_model(GetParam(), scale, 1);
  uniform->fit(x, y);
  // Prediction at the down-weighted cluster should move toward 0 compared
  // to the uniformly fitted model (strictness varies by family, so only
  // require a directional effect).
  const std::vector<double> probe = {1.0};
  EXPECT_LT(weighted->predict_one(probe), uniform->predict_one(probe) + 1e-9)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ModelContractTest,
    ::testing::Values(ModelFamily::kGbdt, ModelFamily::kLightGbdt,
                      ModelFamily::kRandomForest, ModelFamily::kExtraTrees,
                      ModelFamily::kKnn, ModelFamily::kLstm,
                      ModelFamily::kRidge),
    [](const ::testing::TestParamInfo<ModelFamily>& info) {
      return to_string(info.param);
    });

// ---- family-specific behaviour -------------------------------------------

TEST(Gbdt, MoreTreesFitBetter) {
  const LinearProblem p;
  Gbdt small(GbdtConfig::catboost_like(5, 1));
  Gbdt large(GbdtConfig::catboost_like(80, 1));
  small.fit(p.X, p.y);
  large.fit(p.X, p.y);
  EXPECT_LT(p.test_rmse(large), p.test_rmse(small));
}

TEST(Gbdt, TreeCountMatchesConfig) {
  const LinearProblem p(200);
  Gbdt model(GbdtConfig::catboost_like(25, 1));
  model.fit(p.X, p.y);
  EXPECT_EQ(model.tree_count(), 25u);
}

TEST(Gbdt, EmptyFitIsRejected) {
  Gbdt model(GbdtConfig::catboost_like(5, 1));
  Matrix empty(0, 3);
  model.fit(empty, {});
  EXPECT_FALSE(model.trained());
}

TEST(Forest, BootstrapDiffersFromExtraTrees) {
  const LinearProblem p(300);
  Forest rf(ForestConfig::random_forest(20, 3), "RandomForest");
  Forest et(ForestConfig::extra_trees(20, 3), "ExtraTrees");
  rf.fit(p.X, p.y);
  et.fit(p.X, p.y);
  // Both fit, but produce different functions.
  bool differ = false;
  for (std::size_t i = 0; i < 20 && !differ; ++i)
    differ = std::abs(rf.predict_one(p.X_test.row(i)) -
                      et.predict_one(p.X_test.row(i))) > 1e-9;
  EXPECT_TRUE(differ);
}

TEST(Knn, MemorizesTrainingPointsExactly) {
  Matrix x(10, 2);
  std::vector<double> y(10);
  Rng rng(5);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = rng.normal();
  }
  KnnConfig cfg;
  cfg.k = 1;
  Knn knn(cfg);
  knn.fit(x, y);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(knn.predict_one(x.row(i)), y[i], 1e-9);
}

TEST(Knn, InverseDistanceWeighting) {
  // Probe twice as close to the first point -> prediction nearer y0.
  Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 3.0;
  const std::vector<double> y = {0.0, 9.0};
  KnnConfig cfg;
  cfg.k = 2;
  Knn knn(cfg);
  knn.fit(x, y);
  const std::vector<double> probe = {1.0};
  const double pred = knn.predict_one(probe);
  EXPECT_LT(pred, 4.5);
  EXPECT_GT(pred, 0.0);
}

TEST(Ridge, RecoversCoefficientsWithSmallLambda) {
  const LinearProblem p(2000, 0.01);
  RidgeConfig cfg;
  cfg.lambda = 1e-6;
  Ridge model(cfg);
  model.fit(p.X, p.y);
  // beta on standardized features: coefficient * feature std (~1).
  ASSERT_EQ(model.coefficients().size(), 4u);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 0.1);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 0.1);
  EXPECT_NEAR(model.coefficients()[2], 0.0, 0.05);
}

TEST(Ridge, LargerLambdaShrinks) {
  const LinearProblem p(500);
  RidgeConfig weak{.lambda = 1e-6};
  RidgeConfig strong{.lambda = 1e5};
  Ridge a(weak), b(strong);
  a.fit(p.X, p.y);
  b.fit(p.X, p.y);
  EXPECT_LT(std::abs(b.coefficients()[0]), std::abs(a.coefficients()[0]));
}

TEST(CholeskySolve, SolvesSpdSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  std::vector<double> b = {1.0, 2.0};
  ASSERT_TRUE(cholesky_solve(a, b));
  // Solution of [[4,1],[1,3]] x = [1,2] is [1/11, 7/11].
  EXPECT_NEAR(b[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0 / 11.0, 1e-12);
}

TEST(CholeskySolve, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  std::vector<double> b = {1.0, 1.0};
  EXPECT_FALSE(cholesky_solve(a, b));
}

TEST(Lstm, ConvergesOnLinearProblem) {
  const LinearProblem p(300, 0.05);
  LstmConfig cfg;
  cfg.hidden = 12;
  cfg.epochs = 60;
  cfg.seed = 1;
  Lstm model(cfg);
  model.fit(p.X, p.y);
  // Training MSE in standardized units should be well below 1 (the
  // variance of the standardized target).
  EXPECT_LT(model.final_train_mse(), 0.3);
}

TEST(Lstm, MoreEpochsLowerTrainingLoss) {
  const LinearProblem p(200, 0.05);
  LstmConfig short_cfg;
  short_cfg.epochs = 3;
  short_cfg.seed = 2;
  LstmConfig long_cfg = short_cfg;
  long_cfg.epochs = 40;
  Lstm a(short_cfg), b(long_cfg);
  a.fit(p.X, p.y);
  b.fit(p.X, p.y);
  EXPECT_LT(b.final_train_mse(), a.final_train_mse());
}

// ---- LSTM bit-identity golden ---------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct LstmFingerprint {
  std::uint64_t predict = 0;
  std::uint64_t mse = 0;
  std::uint64_t snapshot = 0;
};

/// Fits an LSTM whose feature count is not a multiple of `chunk` (the last
/// pseudo-timestep is zero-padded) and hashes everything it produces.
LstmFingerprint lstm_fingerprint(const LstmConfig& cfg, std::size_t cols,
                                 bool weighted) {
  Rng rng(4242);
  const std::size_t n = 90;
  Matrix X(n, cols);
  std::vector<double> y(n), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < cols; ++c) X(i, c) = rng.normal() * (1.0 + c);
    y[i] = 2.0 * X(i, 0) - X(i, cols - 1) + 0.3 * rng.normal();
    // Every fifth row weightless: exercises the skipped-sample path.
    w[i] = i % 5 == 0 ? 0.0 : 0.25 + rng.uniform();
  }
  Lstm model(cfg);
  model.fit(X, y, weighted ? std::span<const double>(w)
                           : std::span<const double>());
  LstmFingerprint fp;
  std::uint64_t h = fnv1a(nullptr, 0);
  for (std::size_t i = 0; i < 25; ++i) {
    std::vector<double> probe(cols);
    for (auto& v : probe) v = rng.normal() * 2.0;
    const double p = model.predict_one(probe);
    h = fnv1a(&p, sizeof p, h);
  }
  fp.predict = h;
  const double mse = model.final_train_mse();
  fp.mse = fnv1a(&mse, sizeof mse);
  io::Serializer out;
  model.save(out);
  fp.snapshot = fnv1a(out.bytes().data(), out.bytes().size());
  return fp;
}

TEST(Lstm, GoldenFingerprintsAreBitIdentical) {
  // Pinned on the sample-at-a-time implementation (one dot per gate row,
  // one axpy per BPTT row); any change to a value's operation DAG breaks
  // them.  Two shapes: odd widths everywhere (hidden 6, chunk 5, 13
  // columns -> 3 timesteps), and the default widths with 37 columns.
  struct Case {
    int hidden, chunk;
    std::size_t cols;
    bool weighted;
    LstmFingerprint expect;
  };
  const Case cases[] = {
      {6, 5, 13, false,
       {0x789acbb32b53674aULL, 0x2c7eaa29bb8fa363ULL, 0xf37556df56cd7220ULL}},
      {6, 5, 13, true,
       {0x871fc7233d05c58eULL, 0x859e177f2275354dULL, 0x85f550bd7894676eULL}},
      {16, 16, 37, false,
       {0xdb94db1e98ee208eULL, 0x340642f6351209f2ULL, 0xbf7b2362a3032a03ULL}},
      {16, 16, 37, true,
       {0xe05fbb326733d611ULL, 0x9cf80642c4a6b9b6ULL, 0x7b4e2f6747dc7cf3ULL}},
  };
  const bool was_active = simd::vector_active();
  for (const Case& c : cases) {
    LstmConfig cfg;
    cfg.hidden = c.hidden;
    cfg.chunk = c.chunk;
    cfg.epochs = 4;
    cfg.batch = 16;
    cfg.seed = 9;
    for (const bool vector_on : {true, false}) {
      simd::set_vector_active(vector_on);
      const LstmFingerprint fp = lstm_fingerprint(cfg, c.cols, c.weighted);
      const std::string what = "hidden=" + std::to_string(c.hidden) +
                               " weighted=" + std::to_string(c.weighted) +
                               " vector=" + std::to_string(vector_on);
      EXPECT_EQ(fp.predict, c.expect.predict) << what;
      EXPECT_EQ(fp.mse, c.expect.mse) << what;
      EXPECT_EQ(fp.snapshot, c.expect.snapshot) << what;
    }
  }
  simd::set_vector_active(was_active);
}

TEST(Factory, NamesRoundTrip) {
  for (ModelFamily f :
       {ModelFamily::kGbdt, ModelFamily::kLightGbdt, ModelFamily::kRandomForest,
        ModelFamily::kExtraTrees, ModelFamily::kKnn, ModelFamily::kLstm,
        ModelFamily::kRidge}) {
    ModelFamily parsed;
    ASSERT_TRUE(parse_model_family(to_string(f), parsed));
    EXPECT_EQ(parsed, f);
  }
  ModelFamily dummy;
  EXPECT_FALSE(parse_model_family("SVM", dummy));
}

TEST(Factory, Table4FamiliesCoverFourPaperFamilies) {
  const auto fams = table4_families();
  ASSERT_EQ(fams.size(), 4u);
  EXPECT_EQ(fams[0], ModelFamily::kGbdt);        // boosting
  EXPECT_EQ(fams[1], ModelFamily::kExtraTrees);  // bagging
  EXPECT_EQ(fams[2], ModelFamily::kLstm);        // recurrent
  EXPECT_EQ(fams[3], ModelFamily::kKnn);         // distance-based
}

TEST(Factory, PaperNamesMarkStandIns) {
  EXPECT_EQ(paper_name(ModelFamily::kGbdt), "CatBoost*");
  EXPECT_EQ(paper_name(ModelFamily::kLstm), "LSTM*");
}

}  // namespace
}  // namespace leaf::models
