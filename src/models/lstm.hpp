// LSTM regressor — the paper's recurrent family (§3.1).
//
// A single-layer LSTM with a dense head, trained with truncated BPTT and
// Adam on squared loss.  Because LEAF feeds all models the same tabular
// feature rows (the full KPI log of the feature day), the LSTM consumes
// each row as a *pseudo-sequence*: the standardized feature vector is
// chunked into fixed-size timesteps and scanned recurrently.  This keeps
// the Regressor interface uniform while preserving what matters for the
// reproduction — a gradient-trained recurrent model family whose response
// to drift mitigation differs from the tree ensembles (Table 4's LSTM
// rows).  The substitution is documented in DESIGN.md.
//
// Everything (weights, Adam moments, shuffling) is deterministic in the
// configured seed.
#pragma once

#include <memory>

#include "data/features.hpp"
#include "models/regressor.hpp"

namespace leaf::models {

struct LstmConfig {
  int hidden = 16;       ///< hidden state width
  int chunk = 16;        ///< features per pseudo-timestep
  int epochs = 30;
  int batch = 32;
  double learning_rate = 0.01;
  double grad_clip = 5.0;  ///< global-norm clip
  std::uint64_t seed = 1;
};

class Lstm final : public Regressor {
 public:
  explicit Lstm(LstmConfig cfg = {});

  void fit(const Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override;
  double predict_one(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone_untrained() const override;
  std::string name() const override { return "LSTM"; }
  bool trained() const override { return trained_; }

  /// Mean squared training error (standardized target units) of the final
  /// epoch; exposed for convergence tests.
  double final_train_mse() const { return final_mse_; }

  std::string serial_key() const override { return "lstm"; }
  void save(io::Serializer& out) const override;
  static std::unique_ptr<Lstm> load(io::Deserializer& in);

 private:
  struct Workspace;
  /// Forward pass over the standardized row z; leaves every timestep's
  /// activations in ws (BPTT reads them) and returns the standardized
  /// prediction.  ws must be sized for this model (Workspace::fit_to).
  double forward(std::span<const double> z, Workspace& ws) const;

  LstmConfig cfg_;
  bool trained_ = false;
  int timesteps_ = 0;

  data::Standardizer scaler_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double final_mse_ = 0.0;

  // Parameters, gate order [i, f, g, o] stacked along the first axis.
  Matrix wx_;  // 4H x chunk
  Matrix wh_;  // 4H x H
  std::vector<double> b_;   // 4H
  std::vector<double> wo_;  // H
  double bo_ = 0.0;
};

}  // namespace leaf::models
