#include "core/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/calendar.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "core/eval_cache.hpp"
#include "obs/metrics.hpp"

namespace leaf::core {

double EvalResult::avg_nrmse() const { return stats::mean(nrmse); }

namespace {

std::string fmt6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// OUTAGE on either the day being scored or the day its features came
/// from means the step's error is dominated by collection loss, not by
/// the model: the detector must not see it.
bool outage_at_step(std::span<const ingest::HealthState> health, int day,
                    int horizon) {
  const auto state_at = [&health](int d) {
    return d >= 0 && d < static_cast<int>(health.size()) &&
           health[static_cast<std::size_t>(d)] == ingest::HealthState::kOutage;
  };
  return !health.empty() && (state_at(day) || state_at(day - horizon));
}

}  // namespace

EvalResult run_scheme(const data::Featurizer& featurizer,
                      const models::Regressor& prototype,
                      MitigationScheme& scheme, const EvalConfig& cfg,
                      const StepObserver& observer,
                      const PredictionSink& sink) {
  EvalResult result;
  result.scheme = scheme.name();
  result.model = prototype.name();

  const int anchor =
      cfg.anchor_day >= 0 ? cfg.anchor_day : cal::anchor_2018_07_01();
  const double norm_range = cfg.norm_range_override > 0.0
                                ? cfg.norm_range_override
                                : featurizer.norm_range();
  const int num_days = featurizer.dataset().num_days();

  // Initial model: trained on the `train_window` days ending at the
  // anchor.
  data::SupervisedSet train =
      cfg.cache != nullptr
          ? cfg.cache->window(anchor - cfg.train_window + 1, anchor)
          : featurizer.window(anchor - cfg.train_window + 1, anchor);
  if (train.empty()) {
    throw std::runtime_error(
        "run_scheme: training window [" +
        cal::day_to_string(anchor - cfg.train_window + 1) + " .. " +
        cal::day_to_string(anchor) + "] (anchor day " + std::to_string(anchor) +
        ", " + std::to_string(cfg.train_window) +
        " days) produced no supervised pairs — no eNodeB reports on both a "
        "feature day and its +"
        + std::to_string(cfg.horizon) + "-day target day");
  }
  // Run-scoped fit caches (bin-edge reuse across retrains): every clone
  // trained by this run attaches to the same instance, so consecutive
  // retrains on overlapping windows skip most of the quantile work.
  models::FitCaches fit_caches;
  std::unique_ptr<models::Regressor> model = prototype.clone_untrained();
  model->attach_caches(&fit_caches);
  {
    LEAF_SPAN("run_scheme.initial_fit");
    model->fit(train.X, train.y);
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& steps_ctr = reg.counter("leaf_eval_steps_total");
  obs::Counter& scored_ctr = reg.counter("leaf_eval_days_scored_total");
  obs::Counter& skipped_ctr = reg.counter("leaf_eval_days_skipped_total");
  obs::Counter& nonfinite_ctr = reg.counter("leaf_eval_nonfinite_total");
  obs::Counter& frozen_ctr = reg.counter("leaf_eval_outage_frozen_total");
  obs::Counter& drift_ctr = reg.counter("leaf_drift_events_total");
  obs::Counter& retrain_ctr = reg.counter("leaf_retrains_total");
  obs::Histogram& retrain_latency = reg.histogram(
      "leaf_retrain_latency_seconds", obs::latency_buckets());
  const std::string kpi_label = data::to_string(featurizer.target());
  const auto emit = [&](obs::EventKind kind, int day, std::string detail,
                        double seconds = 0.0) {
    if (cfg.events == nullptr) return;
    cfg.events->emit({kind, day, cfg.obs_shard, kpi_label, result.model,
                      result.scheme, std::move(detail), seconds});
  };

  scheme.reset();
  drift::Kswin detector(cfg.detector);
  Rng rng(cfg.seed);

  // First forecastable day: the anchor's forecasts land at
  // anchor + horizon; evaluation starts there.
  const int first_eval = anchor + cfg.horizon;
  std::vector<double> abs_ne_samples;
  data::SupervisedSet test_local;  // storage for the uncached path
  std::vector<double> pred;        // reused prediction buffer

  for (int day = first_eval; day < num_days; day += cfg.stride) {
    steps_ctr.inc();
    const data::SupervisedSet* test_p;
    if (cfg.cache != nullptr) {
      test_p = &cfg.cache->at_target_day(day);
    } else {
      test_local = featurizer.at_target_day(day);
      test_p = &test_local;
    }
    const data::SupervisedSet& test = *test_p;
    if (static_cast<int>(test.size()) < cfg.min_samples_per_day) {
      ++result.degraded.days_skipped;
      skipped_ctr.inc();
      continue;
    }

    pred.resize(test.size());
    model->predict_into(test.X, pred);
    const double err = metrics::nrmse(pred, test.y, norm_range);
    if (cfg.guard_nonfinite && !std::isfinite(err)) {
      // A corrupt test slice must poison neither the NRMSE series nor the
      // detector window; the step is skipped and accounted for.
      ++result.degraded.nonfinite_errors;
      nonfinite_ctr.inc();
      emit(obs::EventKind::kNonFinite, day,
           "rows=" + std::to_string(test.size()));
      if (observer) observer(day, err, false, false);
      continue;
    }
    // Collection outage on this step: labels and/or features are imputed
    // placeholders, so the error measures data loss, not the model.  The
    // step is not scored, the detector is frozen (no update, no
    // truncation), and the scheme is suppressed so the outage cannot
    // trigger a retrain on a fabricated window.
    if (outage_at_step(cfg.target_health, day, cfg.horizon)) {
      ++result.degraded.frozen_detector_days;
      ++result.degraded.suppressed_retrains;
      frozen_ctr.inc();
      emit(obs::EventKind::kOutageFreeze, day, "nrmse=" + fmt6(err));
      if (observer) observer(day, err, false, false);
      continue;
    }
    if (sink) sink(day, test, pred);
    scored_ctr.inc();

    double ne_acc = 0.0;
    std::size_t ne_count = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const double ne = metrics::normalized_error(pred[i], test.y[i], norm_range);
      if (cfg.guard_nonfinite && !std::isfinite(ne)) continue;
      ne_acc += ne;
      ++ne_count;
      abs_ne_samples.push_back(std::abs(ne));
    }

    result.days.push_back(day);
    result.nrmse.push_back(err);
    result.mean_ne.push_back(
        ne_count > 0 ? ne_acc / static_cast<double>(ne_count) : 0.0);

    const bool drift = detector.update(err);
    if (drift) {
      result.drift_days.push_back(day);
      drift_ctr.inc();
      emit(obs::EventKind::kDrift, day,
           "detector=KSWIN,p=" + fmt6(detector.last_p_value()) +
               ",nrmse=" + fmt6(err));
    }

    SchemeContext ctx{.featurizer = featurizer,
                      .model = *model,
                      .current_train = train,
                      .eval_day = day,
                      .nrmse = err,
                      .drift = drift,
                      .train_window = cfg.train_window,
                      .rng = &rng,
                      .prototype = &prototype,
                      .fit_caches = &fit_caches,
                      .cache = cfg.cache,
                      .events = cfg.events,
                      .shard = cfg.obs_shard};
    // Wall-clock on the trigger→fit→swap path (scheme decision + refit);
    // the clock is read only when obs is runtime-enabled.
    const double retrain_t0 = obs::enabled() ? obs::monotonic_seconds() : 0.0;
    std::optional<data::SupervisedSet> new_train = scheme.on_step(ctx);
    bool retrained = false;
    if (std::unique_ptr<models::Regressor> replacement =
            scheme.take_replacement_model()) {
      // The scheme built the model itself: install it directly.
      model = std::move(replacement);
      if (new_train.has_value()) train = std::move(*new_train);
      result.retrain_days.push_back(day);
      retrained = true;
    } else if (new_train.has_value() && !new_train->empty()) {
      train = std::move(*new_train);
      model = prototype.clone_untrained();
      model->attach_caches(&fit_caches);
      {
        LEAF_SPAN("run_scheme.retrain_fit");
        model->fit(train.X, train.y);
      }
      result.retrain_days.push_back(day);
      retrained = true;
    }
    if (retrained) {
      const double secs =
          obs::enabled() ? obs::monotonic_seconds() - retrain_t0 : 0.0;
      retrain_ctr.inc();
      retrain_latency.observe(secs);
      emit(obs::EventKind::kRetrain, day,
           "train_rows=" + std::to_string(train.size()), secs);
    }
    if (observer) observer(day, err, drift, retrained);
  }

  result.ne_p95 =
      abs_ne_samples.empty() ? 0.0 : stats::quantile(abs_ne_samples, 0.95);
  if (cfg.ingest_report != nullptr) {
    result.degraded.values_imputed = cfg.ingest_report->values_imputed;
    result.degraded.quarantined_records = cfg.ingest_report->quarantined_records;
  }
  return result;
}

double delta_vs_static(const EvalResult& mitigated,
                       const EvalResult& static_run) {
  return metrics::delta_nrmse_pct(mitigated.nrmse, static_run.nrmse);
}

}  // namespace leaf::core
