#include "models/lstm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace leaf::models {

namespace {
inline double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

/// Forward activations of one sample, retained for BPTT.  Every array is
/// flat and timestep-major (element [t * H + k]; x is [t * S + s]) and is
/// sized once per fit or per predicting thread, so no sample allocates.
struct Lstm::Workspace {
  std::vector<double> x;                         // T x S zero-padded chunks
  std::vector<double> i, f, g, o, c, h, tanh_c;  // T x H
  std::vector<double> zeros;                     // H: h and c before t = 0
  std::vector<double> gx, gh;                    // 4H: Wx x_t and Wh h_{t-1}

  void fit_to(std::size_t T, std::size_t S, std::size_t H) {
    x.resize(T * S);
    for (std::vector<double>* v : {&i, &f, &g, &o, &c, &h, &tanh_c})
      v->resize(T * H);
    zeros.resize(H);
    gx.resize(4 * H);
    gh.resize(4 * H);
  }

  const double* last_h(std::size_t T, std::size_t H) const {
    return T > 0 ? &h[(T - 1) * H] : zeros.data();
  }
};

Lstm::Lstm(LstmConfig cfg) : cfg_(cfg) {}

double Lstm::forward(std::span<const double> z, Workspace& ws) const {
  const std::size_t H = static_cast<std::size_t>(cfg_.hidden);
  const std::size_t S = static_cast<std::size_t>(cfg_.chunk);
  const std::size_t T = static_cast<std::size_t>(timesteps_);

  // Chunk the feature vector into timesteps, zero-padded at the tail.
  const std::size_t nz = std::min(z.size(), T * S);
  std::copy_n(z.begin(), nz, ws.x.begin());
  std::fill(ws.x.begin() + static_cast<std::ptrdiff_t>(nz), ws.x.end(), 0.0);

  for (std::size_t t = 0; t < T; ++t) {
    const std::size_t at = t * H;
    const double* h_prev = t > 0 ? &ws.h[at - H] : ws.zeros.data();
    const double* c_prev = t > 0 ? &ws.c[at - H] : ws.zeros.data();
    // Pre-activations (b + Wx x_t) + Wh h_{t-1}, one kernel call per
    // weight matrix; row r of each product is the dot of weight row r.
    simd::matvec(wx_.flat(), {&ws.x[t * S], S}, ws.gx);
    simd::matvec(wh_.flat(), {h_prev, H}, ws.gh);
    const auto pre = [&](std::size_t r) { return b_[r] + ws.gx[r] + ws.gh[r]; };
    for (std::size_t k = 0; k < H; ++k) {
      const double gi = sigmoid(pre(k));
      const double gf = sigmoid(pre(H + k));
      const double gg = std::tanh(pre(2 * H + k));
      const double go = sigmoid(pre(3 * H + k));
      const double c = gf * c_prev[k] + gi * gg;
      const double tc = std::tanh(c);
      ws.i[at + k] = gi;
      ws.f[at + k] = gf;
      ws.g[at + k] = gg;
      ws.o[at + k] = go;
      ws.c[at + k] = c;
      ws.tanh_c[at + k] = tc;
      ws.h[at + k] = go * tc;
    }
  }

  return bo_ + simd::dot(wo_, {ws.last_h(T, H), H});
}

void Lstm::fit(const Matrix& X, std::span<const double> y,
               std::span<const double> w) {
  LEAF_SPAN("fit.LSTM");
  static obs::Counter& fits_ctr = obs::MetricsRegistry::global().counter(
      "leaf_model_fits_total", obs::label("family", "LSTM"));
  fits_ctr.inc();
  trained_ = false;
  if (!check_fit_args(X, y, w)) return;
  const std::size_t H = static_cast<std::size_t>(cfg_.hidden);
  const std::size_t S = static_cast<std::size_t>(cfg_.chunk);
  const std::size_t n = X.rows();
  const std::size_t T = (X.cols() + S - 1) / S;
  timesteps_ = static_cast<int>(T);

  scaler_.fit(X);
  const Matrix Z = scaler_.transform(X);
  y_mean_ = stats::mean(y);
  y_std_ = stats::stddev(y);
  if (y_std_ < 1e-12) y_std_ = 1.0;
  std::vector<double> yz(n);
  for (std::size_t i = 0; i < n; ++i) yz[i] = (y[i] - y_mean_) / y_std_;

  // --- init -------------------------------------------------------------
  Rng rng(cfg_.seed);
  const double xs = 1.0 / std::sqrt(static_cast<double>(S));
  const double hs = 1.0 / std::sqrt(static_cast<double>(H));
  wx_ = Matrix(4 * H, S);
  wh_ = Matrix(4 * H, H);
  for (double& v : wx_.flat()) v = rng.normal(0.0, xs);
  for (double& v : wh_.flat()) v = rng.normal(0.0, hs);
  b_.assign(4 * H, 0.0);
  for (std::size_t k = 0; k < H; ++k) b_[H + k] = 1.0;  // forget-gate bias
  wo_.assign(H, 0.0);
  for (double& v : wo_) v = rng.normal(0.0, hs);
  bo_ = 0.0;

  // --- Adam state ---------------------------------------------------------
  // grad, m and v2 share one layout: [wx | wh | b | wo | bo].
  const std::size_t n_wx = wx_.flat().size();
  const std::size_t n_wh = wh_.flat().size();
  const std::size_t n_b = b_.size();
  const std::size_t n_wo = wo_.size();
  const std::size_t n_params = n_wx + n_wh + n_b + n_wo + 1;
  std::vector<double> m(n_params, 0.0), v2(n_params, 0.0), grad(n_params, 0.0);
  double* g_wx = grad.data();
  double* g_wh = g_wx + n_wx;
  double* g_b = g_wh + n_wh;
  double* g_wo = g_b + n_b;
  double* g_bo = g_wo + n_wo;
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  std::int64_t step = 0;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  Workspace ws;
  ws.fit_to(T, S, H);
  std::vector<double> dh(H);
  std::vector<double> dc(H);
  std::vector<double> dz(4 * H);
  const std::span<const double> wh = std::as_const(wh_).flat();

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    double epoch_weight = 0.0;

    for (std::size_t start = 0; start < n; start += static_cast<std::size_t>(cfg_.batch)) {
      const std::size_t end = std::min(n, start + static_cast<std::size_t>(cfg_.batch));
      std::fill(grad.begin(), grad.end(), 0.0);
      double batch_w = 0.0;

      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t r = order[bi];
        const double wi = w.empty() ? 1.0 : w[r];
        if (wi <= 0.0) continue;
        batch_w += wi;

        const double pred = forward(Z.row(r), ws);
        const double err = pred - yz[r];
        epoch_loss += wi * err * err;
        epoch_weight += wi;

        // Output layer gradients.
        const double dy = 2.0 * wi * err;
        const double* hT = ws.last_h(T, H);
        for (std::size_t k = 0; k < H; ++k) {
          g_wo[k] += dy * hT[k];
          dh[k] = dy * wo_[k];
        }
        *g_bo += dy;
        std::fill(dc.begin(), dc.end(), 0.0);

        // BPTT.
        for (std::size_t t = T; t-- > 0;) {
          const std::size_t at = t * H;
          const double* gi = &ws.i[at];
          const double* gf = &ws.f[at];
          const double* gg = &ws.g[at];
          const double* go = &ws.o[at];
          const double* tc = &ws.tanh_c[at];
          for (std::size_t k = 0; k < H; ++k) {
            const double dct = dc[k] + dh[k] * go[k] * (1.0 - tc[k] * tc[k]);
            const double c_prev = t > 0 ? ws.c[at - H + k] : 0.0;
            const double d_i = dct * gg[k];
            const double d_f = dct * c_prev;
            const double d_g = dct * gi[k];
            const double d_o = dh[k] * tc[k];
            dz[k] = d_i * gi[k] * (1.0 - gi[k]);
            dz[H + k] = d_f * gf[k] * (1.0 - gf[k]);
            dz[2 * H + k] = d_g * (1.0 - gg[k] * gg[k]);
            dz[3 * H + k] = d_o * go[k] * (1.0 - go[k]);
            dc[k] = dct * gf[k];
          }
          // Parameter gradients: rank-1 updates dz x_t^T and dz h_{t-1}^T
          // (h_{-1} = 0 contributes nothing); zero dz rows are skipped.
          simd::axpy_rows(dz, {&ws.x[t * S], S}, 0, {g_wx, n_wx}, S, S);
          for (std::size_t rr = 0; rr < 4 * H; ++rr) {
            if (dz[rr] != 0.0) g_b[rr] += dz[rr];
          }
          if (t == 0) continue;
          simd::axpy_rows(dz, {&ws.h[at - H], H}, 0, {g_wh, n_wh}, H, H);
          // dh for step t-1: the dz-weighted sum of the rows of Wh.
          std::fill(dh.begin(), dh.end(), 0.0);
          simd::axpy_rows(dz, wh, H, dh, 0, H);
        }
      }

      if (batch_w <= 0.0) continue;
      for (double& g : grad) g /= batch_w;

      // Global-norm clip.
      const double norm = std::sqrt(simd::dot(grad, grad));
      const double clip_scale =
          norm > cfg_.grad_clip ? cfg_.grad_clip / norm : 1.0;

      // Adam, one pass per parameter segment in grad's layout order.
      ++step;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      std::size_t i = 0;
      const auto adam = [&](std::span<double> params) {
        for (double& p : params) {
          const double g = grad[i] * clip_scale;
          m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
          v2[i] = kBeta2 * v2[i] + (1.0 - kBeta2) * g * g;
          const double mhat = m[i] / bc1;
          const double vhat = v2[i] / bc2;
          p -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + kEps);
          ++i;
        }
      };
      adam(wx_.flat());
      adam(wh_.flat());
      adam(b_);
      adam(wo_);
      adam({&bo_, 1});
    }
    final_mse_ = epoch_weight > 0.0 ? epoch_loss / epoch_weight : 0.0;
  }
  trained_ = true;
}

double Lstm::predict_one(std::span<const double> x) const {
  assert(trained_);
  // Per-query scratch is thread_local: predict_one runs on the leaf::par
  // pool (one query per row).
  thread_local std::vector<double> z;
  thread_local Workspace ws;
  z.resize(x.size());
  scaler_.transform_row(x, z);
  ws.fit_to(static_cast<std::size_t>(timesteps_),
            static_cast<std::size_t>(cfg_.chunk),
            static_cast<std::size_t>(cfg_.hidden));
  return forward(z, ws) * y_std_ + y_mean_;
}

std::unique_ptr<Regressor> Lstm::clone_untrained() const {
  return std::make_unique<Lstm>(cfg_);
}

void Lstm::save(io::Serializer& out) const {
  out.put_i32(cfg_.hidden);
  out.put_i32(cfg_.chunk);
  out.put_i32(cfg_.epochs);
  out.put_i32(cfg_.batch);
  out.put_f64(cfg_.learning_rate);
  out.put_f64(cfg_.grad_clip);
  out.put_u64(cfg_.seed);
  out.put_bool(trained_);
  out.put_i32(timesteps_);
  io::write(out, scaler_);
  out.put_f64(y_mean_);
  out.put_f64(y_std_);
  out.put_f64(final_mse_);
  io::write(out, wx_);
  io::write(out, wh_);
  out.put_doubles(b_);
  out.put_doubles(wo_);
  out.put_f64(bo_);
}

std::unique_ptr<Lstm> Lstm::load(io::Deserializer& in) {
  LstmConfig cfg;
  cfg.hidden = in.get_i32();
  cfg.chunk = in.get_i32();
  cfg.epochs = in.get_i32();
  cfg.batch = in.get_i32();
  cfg.learning_rate = in.get_f64();
  cfg.grad_clip = in.get_f64();
  cfg.seed = in.get_u64();
  auto model = std::make_unique<Lstm>(cfg);
  model->trained_ = in.get_bool();
  model->timesteps_ = in.get_i32();
  io::read_standardizer(in, model->scaler_);
  model->y_mean_ = in.get_f64();
  model->y_std_ = in.get_f64();
  model->final_mse_ = in.get_f64();
  model->wx_ = io::read_matrix(in);
  model->wh_ = io::read_matrix(in);
  model->b_ = in.get_doubles();
  model->wo_ = in.get_doubles();
  model->bo_ = in.get_f64();
  // Shapes are checked before any kernel can index with them: the gate
  // matvecs read chunk-wide rows of wx and hidden-wide rows of wh, and
  // the forward pass lays the scaled row out over timesteps * chunk.
  if (cfg.hidden <= 0 || cfg.chunk <= 0 || cfg.batch <= 0)
    throw io::SnapshotError("lstm config needs positive hidden, chunk and batch");
  if (!model->trained_) return model;
  const auto h = static_cast<std::size_t>(cfg.hidden);
  const auto s = static_cast<std::size_t>(cfg.chunk);
  if (model->wx_.rows() != 4 * h || model->wx_.cols() != s ||
      model->wh_.rows() != 4 * h || model->wh_.cols() != h ||
      model->b_.size() != 4 * h || model->wo_.size() != h)
    throw io::SnapshotError("lstm parameter shapes inconsistent with config");
  const std::size_t width = model->scaler_.mean().size();
  if (model->timesteps_ < 1 ||
      static_cast<std::size_t>(model->timesteps_) != (width + s - 1) / s)
    throw io::SnapshotError(
        "lstm timestep count inconsistent with feature width");
  return model;
}

}  // namespace leaf::models
