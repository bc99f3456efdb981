// Permutation-based feature importance (Breiman 2001) — step one of
// LEAF's explainer (§4.2): "we first rank features by permutation-based
// feature importance (i.e., sensitivity score to permutation)".
//
// The score of feature j is the increase in NRMSE when column j of the
// evaluation set is randomly permuted (breaking its relationship with the
// target while preserving its marginal distribution), averaged over
// `repeats` permutations.  Model-agnostic: only predictions are used.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "models/regressor.hpp"

namespace leaf::explain {

struct ImportanceConfig {
  int repeats = 3;
  /// Evaluation rows are subsampled to at most this many for speed (the
  /// permutation loop is O(rows * features * repeats) predictions).
  std::size_t max_rows = 2000;
  /// Only the leading `max_cols` columns are permuted; the rest score
  /// exactly 0.  A column's score does not depend on this bound.
  std::size_t max_cols = std::numeric_limits<std::size_t>::max();
};

/// Per-feature importance scores (same order as X's columns).  Scores are
/// NRMSE deltas: <= 0 means the feature carries no measurable signal.
std::vector<double> permutation_importance(const models::Regressor& model,
                                           const Matrix& X,
                                           std::span<const double> y,
                                           double norm_range, Rng& rng,
                                           const ImportanceConfig& cfg = {});

/// Column indices sorted by descending importance.
std::vector<std::size_t> importance_ranking(std::span<const double> scores);

}  // namespace leaf::explain
