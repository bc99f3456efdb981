#include "core/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/calendar.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "core/breaker.hpp"
#include "core/eval_cache.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"
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

Stepper::Stepper(const data::Featurizer& featurizer,
                 const models::Regressor& prototype, MitigationScheme& scheme,
                 const EvalConfig& cfg, Unfitted)
    : featurizer_(&featurizer),
      prototype_(&prototype),
      scheme_(&scheme),
      cfg_(cfg),
      fit_caches_(std::make_unique<models::FitCaches>()),
      detector_(cfg.detector),
      rng_(cfg.seed) {
  result_.scheme = scheme.name();
  result_.model = prototype.name();
}

Stepper::Stepper(const data::Featurizer& featurizer,
                 const models::Regressor& prototype, MitigationScheme& scheme,
                 const EvalConfig& cfg)
    : Stepper(featurizer, prototype, scheme, cfg, Unfitted{}) {
  const int anchor =
      cfg.anchor_day >= 0 ? cfg.anchor_day : cal::anchor_2018_07_01();
  norm_range_ = cfg.norm_range_override > 0.0 ? cfg.norm_range_override
                                              : featurizer.norm_range();
  num_days_ = featurizer.dataset().num_days();

  // Initial model: trained on the `train_window` days ending at the
  // anchor.
  train_ = cfg.cache != nullptr
               ? cfg.cache->window(anchor - cfg.train_window + 1, anchor)
               : featurizer.window(anchor - cfg.train_window + 1, anchor);
  if (train_.empty()) {
    throw std::runtime_error(
        "run_scheme: training window [" +
        cal::day_to_string(anchor - cfg.train_window + 1) + " .. " +
        cal::day_to_string(anchor) + "] (anchor day " + std::to_string(anchor) +
        ", " + std::to_string(cfg.train_window) +
        " days) produced no supervised pairs — no eNodeB reports on both a "
        "feature day and its +"
        + std::to_string(cfg.horizon) + "-day target day");
  }
  model_ = prototype.clone_untrained();
  model_->attach_caches(fit_caches_.get());
  {
    LEAF_SPAN("run_scheme.initial_fit");
    model_->fit(train_.X, train_.y);
  }
  scheme.reset();

  // First forecastable day: the anchor's forecasts land at
  // anchor + horizon; evaluation starts there.
  next_day_ = anchor + cfg.horizon;
  done_ = next_day_ >= num_days_;
}

void Stepper::emit(obs::EventKind kind, int day, std::string detail,
                   double seconds) const {
  if (cfg_.events == nullptr) return;
  cfg_.events->emit({kind, day, cfg_.obs_shard,
                     data::to_string(featurizer_->target()), result_.model,
                     result_.scheme, std::move(detail), seconds});
}

StepOutcome Stepper::step(bool force_retrain, RetrainBreaker* breaker,
                          const PredictionSink& sink) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  static obs::Counter& steps_ctr = reg.counter("leaf_eval_steps_total");
  static obs::Counter& scored_ctr = reg.counter("leaf_eval_days_scored_total");
  static obs::Counter& skipped_ctr =
      reg.counter("leaf_eval_days_skipped_total");
  static obs::Counter& nonfinite_ctr = reg.counter("leaf_eval_nonfinite_total");
  static obs::Counter& frozen_ctr =
      reg.counter("leaf_eval_outage_frozen_total");
  static obs::Counter& drift_ctr = reg.counter("leaf_drift_events_total");
  static obs::Counter& retrain_ctr = reg.counter("leaf_retrains_total");
  static obs::Counter& suppressed_ctr =
      reg.counter("leaf_breaker_suppressed_retrains_total");
  static obs::Counter& scratch_grows_ctr =
      reg.counter("leaf_shard_scratch_grows_total");
  static obs::Counter& scratch_reuses_ctr =
      reg.counter("leaf_shard_scratch_reuses_total");
  static obs::Histogram& retrain_latency = reg.histogram(
      "leaf_retrain_latency_seconds", obs::latency_buckets());

  StepOutcome out;
  const int day = out.day = next_day_;
  ++steps_;
  steps_ctr.inc();
  next_day_ += cfg_.stride;
  done_ = next_day_ >= num_days_;

  data::SupervisedSet test_local;  // storage for the uncached path
  const data::SupervisedSet* test_p;
  if (cfg_.cache != nullptr) {
    test_p = &cfg_.cache->at_target_day(day);
  } else {
    test_local = featurizer_->at_target_day(day);
    test_p = &test_local;
  }
  const data::SupervisedSet& test = *test_p;
  if (static_cast<int>(test.size()) < cfg_.min_samples_per_day) {
    ++result_.degraded.days_skipped;
    skipped_ctr.inc();
    out.skipped = true;
    return out;
  }

  (pred_.reserve(test.size()) ? scratch_grows_ctr : scratch_reuses_ctr).inc();
  const std::span<double> pred = pred_.acquire(test.size());
  model_->predict_into(test.X, pred);
  const double err = out.nrmse = metrics::nrmse(pred, test.y, norm_range_);
  if (cfg_.guard_nonfinite && !std::isfinite(err)) {
    // A corrupt test slice must poison neither the NRMSE series nor the
    // detector window; the step is skipped and accounted for.
    ++result_.degraded.nonfinite_errors;
    nonfinite_ctr.inc();
    emit(obs::EventKind::kNonFinite, day,
         "rows=" + std::to_string(test.size()));
    return out;
  }
  // Collection outage on this step: labels and/or features are imputed
  // placeholders, so the error measures data loss, not the model.  The
  // step is not scored, the detector is frozen (no update, no
  // truncation), and the scheme is suppressed so the outage cannot
  // trigger a retrain on a fabricated window.
  if (outage_at_step(cfg_.target_health, day, cfg_.horizon)) {
    ++result_.degraded.frozen_detector_days;
    ++result_.degraded.suppressed_retrains;
    frozen_ctr.inc();
    emit(obs::EventKind::kOutageFreeze, day, "nrmse=" + fmt6(err));
    return out;
  }
  if (sink) sink(day, test, pred);
  scored_ctr.inc();

  double ne_acc = 0.0;
  std::size_t ne_count = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double ne =
        metrics::normalized_error(pred[i], test.y[i], norm_range_);
    if (cfg_.guard_nonfinite && !std::isfinite(ne)) continue;
    ne_acc += ne;
    ++ne_count;
    abs_ne_samples_.push_back(std::abs(ne));
  }

  result_.days.push_back(day);
  result_.nrmse.push_back(err);
  result_.mean_ne.push_back(
      ne_count > 0 ? ne_acc / static_cast<double>(ne_count) : 0.0);

  out.drift = detector_.update(err);
  if (out.drift) {
    result_.drift_days.push_back(day);
    drift_ctr.inc();
    emit(obs::EventKind::kDrift, day,
         "detector=KSWIN,p=" + fmt6(detector_.last_p_value()) +
             ",nrmse=" + fmt6(err));
  }

  SchemeContext ctx{.featurizer = *featurizer_,
                    .model = *model_,
                    .current_train = train_,
                    .eval_day = day,
                    .nrmse = err,
                    .drift = out.drift,
                    .train_window = cfg_.train_window,
                    .rng = &rng_,
                    .prototype = prototype_,
                    .fit_caches = fit_caches_.get(),
                    .cache = cfg_.cache,
                    .events = cfg_.events,
                    .shard = cfg_.obs_shard};
  // Wall-clock on the trigger→fit→swap path (scheme decision + refit);
  // the clock is read only when obs is runtime-enabled.
  const double retrain_t0 = obs::enabled() ? obs::monotonic_seconds() : 0.0;
  std::optional<data::SupervisedSet> new_train = scheme_->on_step(ctx);
  std::unique_ptr<models::Regressor> replacement =
      scheme_->take_replacement_model();
  const auto has_new_train = [&new_train] {
    return new_train.has_value() && !new_train->empty();
  };
  if (force_retrain && replacement == nullptr && !has_new_train()) {
    data::SupervisedSet forced = latest_labeled_window(ctx, cfg_.train_window);
    if (!forced.empty()) new_train = std::move(forced);
  }
  if (replacement == nullptr && !has_new_train()) return out;
  if (breaker != nullptr && !breaker->allow(day)) {
    // The deployed model stays frozen, counted like the OUTAGE freeze.  A
    // suppressed LEAF candidate is dropped here, but its fit already
    // committed to the fit caches: later fits see its bin edges.
    ++result_.degraded.suppressed_retrains;
    suppressed_ctr.inc();
    return out;
  }

  if (replacement != nullptr) {
    // The scheme built the model itself: install it directly.
    model_ = std::move(replacement);
    if (new_train.has_value()) train_ = std::move(*new_train);
  } else {
    train_ = std::move(*new_train);
    model_ = prototype_->clone_untrained();
    model_->attach_caches(fit_caches_.get());
    LEAF_SPAN("run_scheme.retrain_fit");
    model_->fit(train_.X, train_.y);
  }
  result_.retrain_days.push_back(day);
  out.retrained = true;
  out.retrain_seconds =
      obs::enabled() ? obs::monotonic_seconds() - retrain_t0 : 0.0;
  retrain_ctr.inc();
  retrain_latency.observe(out.retrain_seconds);
  emit(obs::EventKind::kRetrain, day,
       "train_rows=" + std::to_string(train_.size()), out.retrain_seconds);
  return out;
}

EvalResult Stepper::result() const {
  EvalResult out = result_;
  out.ne_p95 =
      abs_ne_samples_.empty() ? 0.0 : stats::quantile(abs_ne_samples_, 0.95);
  if (cfg_.ingest_report != nullptr) {
    out.degraded.values_imputed = cfg_.ingest_report->values_imputed;
    out.degraded.quarantined_records = cfg_.ingest_report->quarantined_records;
  }
  return out;
}

void Stepper::save(io::Serializer& out) const {
  io::write(out, rng_);
  detector_.save_state(out);
  scheme_->save_state(out);
  models::save_regressor(out, *model_);
  fit_caches_->bin_edges.save(out);
  io::write(out, train_);
  out.put_i32(next_day_);
  out.put_i32(num_days_);
  out.put_f64(norm_range_);
  out.put_bool(done_);
  out.put_u64(steps_);
  out.put_ints(result_.days);
  out.put_doubles(result_.nrmse);
  out.put_doubles(result_.mean_ne);
  out.put_ints(result_.retrain_days);
  out.put_ints(result_.drift_days);
  out.put_i32(result_.degraded.days_skipped);
  out.put_i32(result_.degraded.nonfinite_errors);
  out.put_i32(result_.degraded.frozen_detector_days);
  out.put_i32(result_.degraded.suppressed_retrains);
  out.put_i64(result_.degraded.values_imputed);
  out.put_i64(result_.degraded.quarantined_records);
  out.put_doubles(abs_ne_samples_);
}

Stepper Stepper::load(io::Deserializer& in, const data::Featurizer& featurizer,
                      const models::Regressor& prototype,
                      MitigationScheme& scheme, const EvalConfig& cfg) {
  Stepper s(featurizer, prototype, scheme, cfg, Unfitted{});
  io::read_rng(in, s.rng_);
  s.detector_.load_state(in);
  scheme.reset();
  scheme.load_state(in);
  s.model_ = models::load_regressor(in);
  if (s.model_->name() != prototype.name())
    throw io::SnapshotError("shard model family mismatch: snapshot has '" +
                            s.model_->name() + "', runtime expects '" +
                            prototype.name() + "'");
  s.fit_caches_->bin_edges.load(in);
  s.model_->attach_caches(s.fit_caches_.get());
  s.train_ = io::read_supervised_set(in);
  s.next_day_ = in.get_i32();
  s.num_days_ = in.get_i32();
  s.norm_range_ = in.get_f64();
  s.done_ = in.get_bool();
  s.steps_ = in.get_u64();
  EvalResult& r = s.result_;
  r.days = in.get_ints();
  r.nrmse = in.get_doubles();
  r.mean_ne = in.get_doubles();
  r.retrain_days = in.get_ints();
  r.drift_days = in.get_ints();
  r.degraded.days_skipped = in.get_i32();
  r.degraded.nonfinite_errors = in.get_i32();
  r.degraded.frozen_detector_days = in.get_i32();
  r.degraded.suppressed_retrains = in.get_i32();
  r.degraded.values_imputed = in.get_i64();
  r.degraded.quarantined_records = in.get_i64();
  s.abs_ne_samples_ = in.get_doubles();
  if (r.nrmse.size() != r.days.size() || r.mean_ne.size() != r.days.size())
    throw io::SnapshotError("shard result series have inconsistent sizes");
  return s;
}

EvalResult run_scheme(const data::Featurizer& featurizer,
                      const models::Regressor& prototype,
                      MitigationScheme& scheme, const EvalConfig& cfg,
                      const StepObserver& observer,
                      const PredictionSink& sink) {
  Stepper stepper(featurizer, prototype, scheme, cfg);
  while (!stepper.done()) {
    const StepOutcome st = stepper.step(false, nullptr, sink);
    if (observer && !st.skipped)
      observer(st.day, st.nrmse, st.drift, st.retrained);
  }
  return stepper.result();
}

double delta_vs_static(const EvalResult& mitigated,
                       const EvalResult& static_run) {
  return metrics::delta_nrmse_pct(mitigated.nrmse, static_run.nrmse);
}

}  // namespace leaf::core
